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

import pytest

import repro

#: ``run(stg, checks=ALL)`` in a fresh interpreter, per specification.
#: The in-memory ``muller_pipeline(12)`` is the generator's own net; the
#: ``.g`` round trip of ``master_read(8)`` is the net as ``batch-check``,
#: the daemon and perfbench parse it, where the variable order matters
#: most (11,689 lookups under the declaration-seeded, unweighted FORCE).
#: Both have USC, so CSC is decided from the state count alone; the
#: ``.g`` round trip of ``random_parallel_family(5)`` has eight CSC
#: violators and pins the per-signal split of ``R`` and the frozen
#: closures.
PINNED = {
    "muller_pipeline(12)": {"cache_lookups": 1_733, "created_nodes": 678},
    "parse_g(to_g_string(master_read(8)))": {"cache_lookups": 1_846,
                                             "created_nodes": 595},
    "parse_g(to_g_string(random_parallel_family(5)))": {
        "cache_lookups": 4_977, "created_nodes": 1_793},
}
TOLERANCE = 0.05

SCRIPT = """\
import json
from repro.api import ALL, run
from repro.stg.generators import (master_read, muller_pipeline,
                                  random_parallel_family)
from repro.stg.parser import parse_g
from repro.stg.writer import to_g_string

manager = run({spec}, checks=ALL).pipeline.manager
print(json.dumps({{"cache_lookups": manager.cache_lookups,
                   "created_nodes": manager.created_nodes}}))
"""


def work_counters(spec, hash_seed):
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=source_root)
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(spec=spec)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("spec", sorted(PINNED))
def test_work_counters_repeat_and_stay_within_the_pin(spec):
    first, second = work_counters(spec, 0), work_counters(spec, 1)
    assert first == second, "BDD work counters depend on PYTHONHASHSEED"
    for name, pinned in PINNED[spec].items():
        assert first[name] <= pinned * (1 + TOLERANCE), (
            f"{spec}: {name} = {first[name]} is more than "
            f"{TOLERANCE:.0%} above its pin {pinned}; if the extra BDD "
            f"work is intended, update PINNED in {__file__}")
