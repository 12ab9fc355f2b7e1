"""Firing fixture for RA203: a serve-layer module reaching verification
machinery.  The path fragment ``repro/serve/`` marks this as daemon
code, which is transport/queueing/caching only."""

import repro.core.traversal  # must-fire: RA203
from repro.core.pipeline import VerificationPipeline  # must-fire: RA203
from repro.sg.checker import ExplicitVerification  # must-fire: RA203


def handle_check(stg, config):
    strategy = repro.core.traversal.fixpoint
    pipeline = VerificationPipeline(stg)  # must-fire: RA203
    oracle = ExplicitVerification(stg)  # must-fire: RA203
    return strategy, pipeline, oracle
