"""The BDD work of one all-checks verification, pinned.

Wall time is too noisy to gate on, but the manager's work counters --
op-cache lookups and created nodes -- are deterministic across
``PYTHONHASHSEED``.  Each count comes from a fresh interpreter, so no
cache or node another test built can lower it.
"""

import json
import os
import subprocess
import sys

import repro

#: ``run(muller_pipeline(12), checks=ALL)`` in a fresh interpreter.
PINNED = {"cache_lookups": 1_951, "created_nodes": 885}
TOLERANCE = 0.05

SCRIPT = """\
import json
from repro.api import ALL, run
from repro.stg.generators import muller_pipeline

manager = run(muller_pipeline(12), checks=ALL).pipeline.manager
print(json.dumps({"cache_lookups": manager.cache_lookups,
                  "created_nodes": manager.created_nodes}))
"""


def work_counters(hash_seed):
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=source_root)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_work_counters_repeat_and_stay_within_the_pin():
    first, second = work_counters(0), work_counters(1)
    assert first == second, "BDD work counters depend on PYTHONHASHSEED"
    for name, pinned in PINNED.items():
        assert first[name] <= pinned * (1 + TOLERANCE), (
            f"{name} = {first[name]} is more than {TOLERANCE:.0%} above "
            f"its pin {pinned}; if the extra BDD work is intended, update "
            f"PINNED in {__file__}")
