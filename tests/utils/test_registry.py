"""The one name registry and its unknown-name error."""

import pickle
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace
from typing import Callable, NamedTuple

import pytest

from repro import corpus, engines
from repro.api.checks import CHECKS
from repro.api.errors import ApiError, UnknownCheckError, UnknownEngineError
from repro.corpus import CorpusError, UnknownFamilyError
from repro.obs.metrics import MetricError, MetricsRegistry
from repro.runner import backends
from repro.runner.backends import UnknownBackendError
from repro.runner.plan import PlanError
from repro.stg.generators import (
    FIXED_EXAMPLES,
    SCALABLE_FAMILIES,
    UnknownExampleError,
    build_example,
)
from repro.stg.signals import STGError
from repro.utils.registry import Registry, UnknownNameError, suggest


class UnknownColourError(UnknownNameError, KeyError):
    kind = "colour"


@pytest.fixture
def colours():
    registry = Registry(UnknownColourError)
    for name in ("red", "green", "blue"):
        registry.register(name, name.upper())
    return registry


def test_lookup_order_and_membership(colours):
    assert colours.get("green") == colours["green"] == "GREEN"
    assert colours.available() == list(colours) == ["red", "green", "blue"]
    assert "blue" in colours and "cyan" not in colours


def test_unknown_name_lists_options_and_suggests(colours):
    with pytest.raises(KeyError) as info:
        colours["gren"]
    # A KeyError subclass, printed without KeyError's repr quotes.
    assert str(info.value) == ("unknown colour 'gren'; available: red, "
                               "green, blue; did you mean: green?")
    assert (info.value.name, info.value.options) == (
        "gren", ["red", "green", "blue"])


def test_empty_registry_and_custom_message():
    with pytest.raises(UnknownColourError, match=r"available: \(none\)$"):
        Registry(UnknownColourError).get("red")
    assert str(UnknownColourError("x", [], message="bad")) == "bad"


def test_duplicates_are_rejected(colours):
    with pytest.raises(ValueError, match="duplicate colour 'red'"):
        colours.register("red", "crimson")
    assert colours["red"] == "RED"
    assert colours.available() == ["red", "green", "blue"]


def test_constructor_items_come_first_and_reject_duplicates():
    registry = Registry(UnknownColourError, [("red", 1), ("green", 2)])
    registry.register("blue", 3)
    assert registry.available() == ["red", "green", "blue"]
    with pytest.raises(ValueError, match="duplicate colour 'red'"):
        Registry(UnknownColourError, [("red", 1), ("red", 2)])


def test_unknown_name_hides_the_internal_key_error(colours):
    with pytest.raises(UnknownColourError) as info:
        colours.get("gren")
    assert info.value.__cause__ is None
    assert info.value.__suppress_context__


def test_suggest_is_empty_without_a_close_match():
    assert suggest("zzz", ["red", "green"]) == ""
    assert suggest("red", []) == ""


def test_suggest_names_at_most_three_closest_first():
    options = ["ring", "pipe_3", "pipe_34", "pipe", "pipe_345"]
    assert suggest("pipe", options) == (
        "; did you mean: pipe, pipe_3, pipe_34?")


# ----------------------------------------------------------------------
# Every public registry is a Registry and fails the same way
# ----------------------------------------------------------------------
class Public(NamedTuple):
    make: Callable[[], object]  # a Registry, or one's available/get
    error: type                 # the public error class
    bases: tuple                # what callers of the old code caught
    bad: str                    # a misspelt name ...
    right: str                  # ... and the name it should suggest


def _metrics():
    registry = MetricsRegistry()
    registry.counter("images")
    registry.histogram("frontier")
    return registry


PUBLIC = {
    "engine": Public(
        lambda: engines.ENGINES, UnknownEngineError, (ApiError, ValueError),
        "symbolc", "symbolic"),
    "execution backend": Public(
        lambda: backends.BACKENDS, UnknownBackendError,
        (PlanError, ValueError), "serail", "serial"),
    # perfbench reads CHECKS[name].
    "check": Public(
        lambda: CHECKS, UnknownCheckError, (ApiError, ValueError),
        "cscx", "csc"),
    # perfbench reads corpus.names() as a list and corpus.entry, the
    # bound available and get of corpus.REGISTRY ...
    "corpus entry": Public(
        lambda: corpus.REGISTRY, CorpusError, (STGError, KeyError),
        "mutx_element", "mutex_element"),
    # ... and corpus.family, corpus.FAMILIES.get.
    "benchmark family": Public(
        lambda: corpus.FAMILIES, UnknownFamilyError, (KeyError,),
        "muler_pipeline", "muller_pipeline"),
    "metric": Public(_metrics, MetricError, (KeyError,), "image", "images"),
    # Not a Registry (fixed examples and scalable families share one
    # namespace), but its unknown names read the same.
    "example": Public(
        lambda: SimpleNamespace(
            available=lambda: [*FIXED_EXAMPLES, *SCALABLE_FAMILIES],
            get=build_example),
        UnknownExampleError, (ValueError,), "handshak", "handshake"),
}
REGISTRIES = [kind for kind in PUBLIC if kind != "example"]


def _unknown(kind):
    public = PUBLIC[kind]
    with pytest.raises(public.error) as info:
        public.make().get(public.bad)
    return info.value


@pytest.mark.parametrize("kind", list(PUBLIC))
def test_unknown_name_raises_the_public_error(kind):
    error = _unknown(kind)
    assert isinstance(error, UnknownNameError)
    for base in PUBLIC[kind].bases:
        assert isinstance(error, base)
    assert (error.kind, error.name) == (kind, PUBLIC[kind].bad)


@pytest.mark.parametrize("kind", list(PUBLIC))
def test_unknown_name_lists_the_options_and_suggests(kind):
    public = PUBLIC[kind]
    error = _unknown(kind)
    options = public.make().available()
    assert error.options == options
    assert str(error).startswith(
        f"unknown {kind} {public.bad!r}; available: {', '.join(options)}"
        f"; did you mean: {public.right}")


@pytest.mark.parametrize("kind", list(PUBLIC))
def test_unknown_name_error_survives_pickling(kind):
    # Process-backend workers send their exceptions back pickled.
    error = _unknown(kind)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert (str(copy), copy.name, copy.options) == (
        str(error), error.name, error.options)


def test_unknown_name_error_crosses_a_process_boundary():
    with ProcessPoolExecutor(max_workers=1) as pool:
        future = pool.submit(corpus.g_text, "mutx_element")
        with pytest.raises(CorpusError, match="did you mean: mutex_element"):
            future.result(timeout=60)


@pytest.mark.parametrize("kind", REGISTRIES)
def test_every_listed_name_looks_up(kind):
    registry = PUBLIC[kind].make()
    names = registry.available()
    assert isinstance(names, list) and len(set(names)) == len(names)
    assert PUBLIC[kind].right in names
    for name in names:
        registry.get(name)


@pytest.mark.parametrize("kind", REGISTRIES)
def test_duplicate_registration_is_a_value_error(kind):
    registry, right = PUBLIC[kind].make(), PUBLIC[kind].right
    item, names = registry.get(right), registry.available()
    with pytest.raises(ValueError, match=f"^duplicate {kind} '{right}'$"):
        registry.register(right, object())
    assert registry.get(right) is item
    assert registry.available() == names


@pytest.mark.parametrize("kind", REGISTRIES)
def test_registered_name_is_listed_last(kind, monkeypatch):
    registry, right = PUBLIC[kind].make(), PUBLIC[kind].right
    monkeypatch.setattr(registry, "_items", dict(registry._items))
    item, names = registry.get(right), registry.available()
    registry.register("extra", item)
    assert registry.available() == names + ["extra"]
    assert registry.get("extra") is item
