"""Fault-tolerant sweep fabric: leases, retry policy, coordinator.

The fabric layer turns the statically sharded sweep runner into an
elastic, failure-tolerant fleet primitive:

* :mod:`repro.fabric.policy` -- :class:`~repro.fabric.policy.RetryPolicy`,
  a frozen, serialisable retry/backoff policy with deterministic seeded
  jitter (also reused by the serve client's opt-in retry);
* :mod:`repro.fabric.leases` -- :class:`~repro.fabric.leases.LeaseStore`,
  an append-only JSONL journal of claim/renew/release records with
  wall-clock deadlines, shared safely by every process on one host;
  expired leases become claimable again, so a dead or wedged worker's
  entries are automatically re-issued;
* :mod:`repro.fabric.coordinator` --
  :class:`~repro.fabric.coordinator.LeaseCoordinator`, the work-stealing
  dispatch loop replacing static ``--shard I/N`` round-robin: it claims
  leases over sweep entries, hands them to the existing executor
  backends longest-job-first, retries retryable statuses per policy and
  drains gracefully on SIGINT/SIGTERM.

None of this may leak into verdicts: lease, retry and fault metadata
ride :attr:`~repro.runner.results.EntryResult.provenance` (stripped
from stable views) and the analyzer's RA205 rule keeps it out of
fingerprint material.
"""

from repro.fabric.policy import RetryPolicy, RetrySpecError, parse_retry_spec
from repro.fabric.leases import Lease, LeaseStore, LeaseStoreWarning
from repro.fabric.coordinator import LeaseCoordinator

__all__ = [
    "RetryPolicy",
    "RetrySpecError",
    "parse_retry_spec",
    "Lease",
    "LeaseStore",
    "LeaseStoreWarning",
    "LeaseCoordinator",
]
