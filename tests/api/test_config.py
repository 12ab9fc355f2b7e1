"""Tests of the typed EngineConfig: normalisation, validation, round-trips."""

import pickle

import pytest

from repro.api import ApiError, EngineConfig, UnknownEngineError


class TestDefaults:
    @pytest.mark.smoke
    def test_defaults(self):
        config = EngineConfig()
        assert config.engine == "symbolic"
        assert config.ordering == "force"
        assert config.traversal_strategy == "saturation"
        assert config.arbitration_places == ()
        assert config.initial_values is None
        assert config.timeout is None

    def test_frozen_and_hashable(self):
        config = EngineConfig()
        with pytest.raises(AttributeError):
            config.engine = "explicit"
        assert {config: 1}[EngineConfig()] == 1


class TestNormalisation:
    def test_arbitration_places_sorted_tuple(self):
        config = EngineConfig(arbitration_places=("p_z", "p_a"))
        assert config.arbitration_places == ("p_a", "p_z")
        # Two spellings of the same semantics are the same config.
        assert config == EngineConfig(arbitration_places=["p_a", "p_z"])

    def test_initial_values_mapping_becomes_sorted_pairs(self):
        config = EngineConfig(initial_values={"b": 1, "a": 0})
        assert config.initial_values == (("a", False), ("b", True))
        assert config.initial_values_dict == {"a": False, "b": True}

    def test_with_overrides_revalidates(self):
        config = EngineConfig()
        assert config.with_overrides(engine="explicit").engine == "explicit"
        with pytest.raises(ApiError):
            config.with_overrides(engine="nonsense")


class TestValidation:
    def test_unknown_engine_has_did_you_mean(self):
        with pytest.raises(UnknownEngineError, match="did you mean: symbolic"):
            EngineConfig(engine="symbollic")

    def test_unknown_ordering_rejected(self):
        with pytest.raises(ApiError, match="ordering"):
            EngineConfig(ordering="alphabetical")

    def test_unknown_traversal_strategy_rejected(self):
        with pytest.raises(ApiError, match="traversal"):
            EngineConfig(traversal_strategy="dfs")

    @pytest.mark.parametrize("kwargs", [
        {"max_states": 0}, {"timeout": 0.0}, {"timeout": -1.0}])
    def test_invalid_numeric_knobs_rejected(self, kwargs):
        with pytest.raises(ApiError):
            EngineConfig(**kwargs)


class TestSerialisation:
    @pytest.mark.smoke
    def test_to_dict_from_dict_roundtrip(self):
        config = EngineConfig(
            engine="explicit", ordering="declaration",
            traversal_strategy="frontier", max_states=5_000,
            initial_values={"req": True, "ack": False},
            arbitration_places=("p_me",), timeout=12.5,
            commutativity_fallback_states=99)
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_to_dict_is_json_stable(self):
        import json

        config = EngineConfig(initial_values={"a": True})
        payload = json.dumps(config.to_dict(), sort_keys=True)
        reloaded = EngineConfig.from_dict(json.loads(payload))
        assert reloaded == config

    def test_from_dict_ignores_unknown_keys_and_fills_defaults(self):
        config = EngineConfig.from_dict(
            {"engine": "explicit", "some_future_field": 42})
        assert config.engine == "explicit"
        assert config.ordering == "force"

    def test_pickle_roundtrip(self):
        config = EngineConfig(arbitration_places=("p_me",))
        assert pickle.loads(pickle.dumps(config)) == config
