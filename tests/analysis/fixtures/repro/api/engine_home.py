"""Non-firing fixture: the facade layer itself builds the engine
contexts (the path fragment ``repro/api/`` is not front-end code)."""

from repro.core.pipeline import VerificationPipeline
from repro.sg.checker import ExplicitVerification


def engine_context(stg, engine):
    if engine == "symbolic":
        return VerificationPipeline(stg)
    return ExplicitVerification(stg)
