"""``python -m repro`` subprocesses of this source tree, for the tools.

``tools/bench.py``, ``tools/serve_smoke.py`` and ``tools/sweep_gate.py``
drive the program from outside: :func:`repro_environment` is the
environment their subprocesses run in, and :func:`serve_daemon` boots a
``repro serve`` daemon and cleans up after it however its block ends.
Importing this module puts the tree's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import Iterator

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.serve import ServeClient  # noqa: E402

#: The first line a daemon prints.
_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


def repro_environment(**overrides: str) -> dict:
    """The caller's environment with this tree's ``src`` first on
    ``PYTHONPATH``, then ``overrides``."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = (
        SRC + (os.pathsep + environment["PYTHONPATH"]
               if environment.get("PYTHONPATH") else ""))
    environment.update(overrides)
    return environment


@contextlib.contextmanager
def serve_daemon(tool: str, *arguments: str) -> Iterator[ServeClient]:
    """Boot ``python -m repro serve --port 0 ARGUMENTS`` on a fresh state
    directory and yield a client of it.

    The daemon's :class:`subprocess.Popen` is the client's ``process``
    attribute; what it prints after its first line stays on the pipe.
    However the block ends, the daemon is killed if it still runs and its
    state directory is removed.  A daemon that does not report its port
    raises ``SystemExit`` naming ``tool`` and the line it printed.
    """
    state_dir = tempfile.mkdtemp(prefix=f"repro-{tool}-")
    try:
        with subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--state-dir", state_dir, *arguments],
                env=repro_environment(), cwd=REPO_ROOT,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True) as process:
            try:
                line = process.stdout.readline()
                match = _LISTENING.search(line)
                if not match:
                    raise SystemExit(
                        f"{tool}: daemon did not start: {line!r}")
                client = ServeClient(host=match.group(1),
                                     port=int(match.group(2)))
                client.process = process
                yield client
            finally:
                if process.poll() is None:
                    process.kill()
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
