"""Firing fixture for the facade-purity pass: a runner-layer module
reaching verification internals.  The path fragment ``repro/runner/``
marks this as front-end code."""

from repro.core.pipeline import VerificationPipeline  # must-fire: RA202
from repro.sg.checker import ExplicitVerification  # must-fire: RA202


def run_entry(stg, config):
    pipeline = VerificationPipeline(stg)  # must-fire: RA202
    oracle = ExplicitVerification(stg)  # must-fire: RA202
    return pipeline, oracle
