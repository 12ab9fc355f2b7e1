"""The sweep runner: parallel, sharded, cached corpus verification.

This subsystem owns sweep execution end to end and is what the
``batch-check`` CLI mode is a thin front-end over::

    from repro.runner import SweepPlan, ShardSpec, run_sweep

    plan = SweepPlan(jobs=4, shard=ShardSpec.parse("0/2"),
                     families=[("random_ring", range(1, 101))])
    sweep = run_sweep(plan, cache_dir=".repro-cache")
    for entry in sweep:
        print(entry.name, entry.display_status)

The moving parts:

* :class:`~repro.runner.plan.SweepPlan` / :class:`~repro.runner.plan.SweepTask`
  -- declarative sweep description, deterministic task expansion,
  round-robin :class:`~repro.runner.plan.ShardSpec` partitioning and the
  content fingerprints that key the cache;
* :mod:`~repro.runner.backends` -- the execution layer: the fixed
  ``process`` (worker pool, kills an entry past its timeout) and
  ``serial`` backends, both producing byte-identical stable results;
* :mod:`~repro.runner.worker` -- self-contained task execution, every
  in-check failure reported as an ``error`` result;
* :class:`~repro.runner.store.RunStore` -- append-only JSONL persistence
  of entry results, fingerprint-validated cache hits, shard-store
  :meth:`~repro.runner.store.RunStore.merge` and
  :meth:`~repro.runner.store.RunStore.gc` eviction;
* :class:`~repro.runner.runner.SweepRunner` -- cache triage, backend
  dispatch, incremental persistence (resumable sweeps), deterministic
  result ordering.
"""

from repro.runner import backends
from repro.runner.backends import UnknownBackendError
from repro.runner.plan import (
    PlanError,
    ShardSpec,
    SweepPlan,
    SweepTask,
    parse_family_spec,
)
from repro.runner.results import EntryResult, SweepResult
from repro.runner.runner import SweepRunner, run_sweep
from repro.runner.store import RunStore, RunStoreWarning, parse_gc_spec

__all__ = [
    "EntryResult",
    "PlanError",
    "RunStore",
    "RunStoreWarning",
    "ShardSpec",
    "SweepPlan",
    "SweepRunner",
    "SweepTask",
    "SweepResult",
    "UnknownBackendError",
    "backends",
    "parse_family_spec",
    "parse_gc_spec",
    "run_sweep",
]
