"""The monotone-compatibility classifier (repro.delta.classify)."""

from repro.delta import (
    TIER_COLD,
    TIER_SEED,
    TIERS,
    DeltaClassification,
    classify_delta,
    diff_stg,
)


class TestSeedTier:
    def test_disconnected_addition_is_seed_closed(self, base_stg,
                                                  edit_closed):
        c = classify_delta(diff_stg(base_stg, edit_closed), edit_closed)
        assert c.tier == TIER_SEED
        assert c.closed
        assert any("monotone" in reason for reason in c.reasons)

    def test_reading_an_existing_place_defeats_closed(self, base_stg,
                                                      edit_open):
        c = classify_delta(diff_stg(base_stg, edit_open), edit_open)
        assert c.tier == TIER_SEED
        assert not c.closed
        assert any("full sweep" in reason for reason in c.reasons)

    def test_existing_signal_on_added_transition_defeats_closed(
            self, base_stg, copy_stg):
        # A new transition of an *existing* signal toggles that signal's
        # variable: old transitions can then reach codes the seed never
        # saw, so the sweep must stay full-width even though the
        # transition's place environment is entirely new.
        signal = sorted(base_stg.signals)[0]
        edited = copy_stg(base_stg, name="edited")
        edited.add_place("p_x0", tokens=1)
        edited.add_place("p_x1")
        edited.add_transition(f"{signal}+/9")
        edited.add_arc("p_x0", f"{signal}+/9")
        edited.add_arc(f"{signal}+/9", "p_x1")
        c = classify_delta(diff_stg(base_stg, edited), edited)
        assert c.tier == TIER_SEED
        assert not c.closed

    def test_identical_is_seed_closed(self, base_stg):
        c = classify_delta(diff_stg(base_stg, base_stg), base_stg)
        assert c.tier == TIER_SEED
        assert c.closed


class TestColdTier:
    def test_arc_between_existing_nodes_is_cold(self, base_stg,
                                                edit_new_arc):
        c = classify_delta(diff_stg(base_stg, edit_new_arc), edit_new_arc)
        assert c.tier == TIER_COLD
        assert not c.closed
        assert any("changes existing transition" in reason
                   for reason in c.reasons)

    def test_removed_arc_is_cold(self, base_with_cycle, edit_removed_arc):
        c = classify_delta(diff_stg(base_with_cycle, edit_removed_arc),
                           edit_removed_arc)
        assert c.tier == TIER_COLD
        assert any("removed arc" in reason for reason in c.reasons)

    def test_signal_rename_is_cold(self, base_with_cycle, edit_renamed):
        c = classify_delta(diff_stg(base_with_cycle, edit_renamed),
                           edit_renamed)
        assert c.tier == TIER_COLD
        assert any("removed signal" in reason for reason in c.reasons)

    def test_changed_initial_value_is_cold(self, base_stg, copy_stg):
        edited = copy_stg(base_stg)
        signal = sorted(base_stg.signals)[0]
        edited.set_initial_values(dict(
            edited.initial_values,
            **{signal: not bool(edited.initial_values.get(signal))}))
        c = classify_delta(diff_stg(base_stg, edited), edited)
        assert c.tier == TIER_COLD


class TestSerialisation:
    def test_tiers_catalogue(self):
        assert TIERS == (TIER_SEED, TIER_COLD)

    def test_round_trip(self, base_stg, edit_closed):
        c = classify_delta(diff_stg(base_stg, edit_closed), edit_closed)
        assert DeltaClassification.from_dict(c.to_dict()) == c
