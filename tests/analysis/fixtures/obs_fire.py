"""Fixture: observability-hygiene violations (RA501, RA502)."""

from repro import obs
from repro.obs import event, span


def dynamic_span_names(tracer, metrics, check_name):
    with obs.span(f"check-{check_name}"):  # must-fire: RA501
        pass
    with tracer.span("check:" + check_name):  # must-fire: RA501
        pass
    tracer.event(check_name)  # must-fire: RA501
    with span(check_name.upper()):  # must-fire: RA501
        pass
    with obs.timed(check_name):  # must-fire: RA501
        pass
    event("literal-is-fine", detail=check_name)
    metrics.counter("iterations-" + check_name)  # must-fire: RA501
    metrics.histogram("frontier")  # literal: clean


def fingerprint(material, tracer):
    obs.event("hashing")  # must-fire: RA502
    with tracer.span("fingerprint"):  # must-fire: RA502
        pass
    return material


def stable_dict(result, metrics):
    metrics.counter("stable-rows")  # must-fire: RA502
    return dict(result)


def unrelated_helper(tracer):
    with tracer.span("compute"):
        pass
