"""The serve daemon as the benchmark sees it: a subprocess and its clients.

:class:`Daemon` boots ``python -m repro serve --jobs 2`` on a free port
with its state inside the benchmark's work directory, and always stops
it (graceful ``/shutdown``, then kill).  :func:`drive` is the closed
loop: ``CLIENTS`` threads, each sending its next request only after the
previous reply arrived, with the seeded class mix of
:mod:`inputs`.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.serve import ServeClient
from repro.serve.client import ServeClientError

from inputs import CLIENTS, Request, ServeInputs, Spec, problems

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


class Daemon:
    """One ``repro serve`` subprocess; use as a context manager."""

    def __init__(self, root: str, state_dir: str) -> None:
        self.root = root
        self.state_dir = state_dir
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self._drain: Optional[threading.Thread] = None

    def start(self) -> None:
        """Boot and wait for the first ``/healthz``."""
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.path.join(self.root, "src")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", str(CLIENTS), "--state-dir", self.state_dir],
            cwd=self.root, env=environment, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        line = self.process.stdout.readline()
        match = _LISTENING.search(line)
        if not match:
            raise RuntimeError(f"daemon failed to start: {line!r}")
        self.port = int(match.group(2))
        # Keep reading so a chatty daemon never blocks on a full pipe.
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()
        self.client().health()

    def _read_rest(self) -> None:
        for _ in self.process.stdout:
            pass

    def client(self) -> ServeClient:
        return ServeClient(port=self.port, timeout=120.0)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process is None:
            return
        try:
            if self.process.poll() is None:
                try:
                    self.client().shutdown()
                except ServeClientError:
                    pass
                try:
                    self.process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=30)
        finally:
            if self._drain is not None:
                self._drain.join(timeout=10)
            self.process.stdout.close()
            self.process = None

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def counter(snapshot: Dict[str, object], name: str) -> float:
    return float(snapshot["metrics"][name]["value"])


@dataclass
class Prewarm:
    """Replies to the untimed requests every run starts with."""

    base_states: int
    warm_stable: Dict[str, str] = field(default_factory=dict)


def prewarm(client: ServeClient, inputs: ServeInputs) -> Prewarm:
    """Check the delta base and every warm entry once."""
    base = client.check(g_text=inputs.base.g_text, name=inputs.base.name,
                        checks=list(inputs.base.checks))
    found = problems(base["entry"]["report"], inputs.base)
    result = Prewarm(base_states=int(base["entry"]["report"]["num_states"]))
    for spec in inputs.warm:
        reply = client.check(entry=spec.name)
        found += _status(reply, spec) + problems(reply["entry"]["report"],
                                                 spec)
        result.warm_stable[spec.name] = _canonical(reply["stable"])
    if found:
        raise RuntimeError("prewarm replies are wrong: " + "; ".join(found))
    return result


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True)


def _status(reply, spec: Spec) -> List[str]:
    status = reply["entry"]["status"]
    return [] if status == "ok" else [f"{spec.name}: status {status}"]


@dataclass
class Outcome:
    """One request of the closed loop."""

    request: Request
    seconds: float
    #: Completion time, seconds since the loop started.
    finished: float
    problems: List[str]
    reply: Optional[Dict[str, object]] = None

    @property
    def kind(self) -> str:
        return self.request.kind

    @property
    def spec(self) -> Spec:
        return self.request.spec


def judge(kind: str, spec: Spec, reply, warm: Prewarm) -> List[str]:
    """Check one reply against its class's reference."""
    found = _status(reply, spec)
    if found:
        return found
    report = reply["entry"]["report"]
    if kind == "warm":
        if not reply["entry"]["cached"]:
            found.append(f"{spec.name}: warm request was recomputed")
        if _canonical(reply["stable"]) != warm.warm_stable[spec.name]:
            found.append(f"{spec.name}: warm reply differs from the first")
        return found
    found += problems(report, spec)
    if kind == "delta":
        tier = (report.get("delta") or {}).get("tier")
        if tier != "seed":
            found.append(f"{spec.name}: delta tier {tier}, expected seed")
        if report["num_states"] != 2 * warm.base_states:
            found.append(f"{spec.name}: {report['num_states']} states, "
                         f"expected twice the base's {warm.base_states}")
    return found


def drive(daemon: Daemon, inputs: ServeInputs, seconds: float,
          warm: Prewarm) -> Tuple[List[Outcome], float, float]:
    """The closed loop; returns every request's outcome (in send order
    per client, clients concatenated), the loop's ``perf_counter`` start
    and its wall time."""
    start = time.perf_counter()
    deadline = start + seconds
    per_client: List[List[Outcome]] = [[] for _ in range(CLIENTS)]
    errors: List[BaseException] = []

    def loop(client_index: int) -> None:
        client = daemon.client()
        plan = inputs.requests(client_index)
        try:
            client.server_schema()  # negotiated before timing, not mid-loop
            while time.perf_counter() < deadline:
                request = next(plan)
                spec = request.spec
                began = time.perf_counter()
                try:
                    if request.kind == "warm":
                        reply = client.check(entry=spec.name)
                    else:
                        checks = (list(spec.checks)
                                  if request.kind == "delta" else None)
                        reply = client.check(g_text=spec.g_text,
                                             name=spec.name, checks=checks,
                                             base=request.base)
                except ServeClientError as error:
                    now = time.perf_counter()
                    per_client[client_index].append(Outcome(
                        request, now - began, now - start,
                        [f"{spec.name}: {error} (HTTP {error.status})"]))
                    continue
                now = time.perf_counter()
                per_client[client_index].append(Outcome(
                    request, now - began, now - start,
                    judge(request.kind, spec, reply, warm), reply))
        except BaseException as error:  # surfaced after join
            errors.append(error)

    threads = [threading.Thread(target=loop, args=(index,))
               for index in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return ([outcome for chunk in per_client for outcome in chunk], start,
            wall)
