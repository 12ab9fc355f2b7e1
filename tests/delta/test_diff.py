"""Structural diffing (repro.delta.diff): field coverage, determinism,
round-trip."""

from repro.delta import STGDelta, diff_stg
from repro.stg.parser import parse_g
from repro.stg.writer import to_g_string


class TestIdentity:
    def test_self_diff_is_identical(self, base_stg):
        delta = diff_stg(base_stg, base_stg)
        assert delta.identical
        assert delta == STGDelta()

    def test_model_rename_is_not_an_edit(self, base_stg, copy_stg):
        renamed = copy_stg(base_stg, name="totally-different")
        assert diff_stg(base_stg, renamed).identical

    def test_text_round_trip_is_identical(self, base_stg, copy_stg):
        assert diff_stg(base_stg, copy_stg(base_stg)).identical


class TestAdditions:
    def test_probe_cycle_reports_every_added_element(self, base_stg,
                                                     edit_closed):
        delta = diff_stg(base_stg, edit_closed)
        assert delta.added_signals == ("xprobe",)
        assert delta.added_transitions == ("xprobe+", "xprobe-")
        assert delta.added_places == ("p_xprobe0", "p_xprobe1")
        assert len(delta.added_arcs) == 4
        assert not delta.identical
        assert not delta.removed_signals

    def test_arcs_are_sorted_pairs(self, base_stg, edit_closed):
        delta = diff_stg(base_stg, edit_closed)
        assert list(delta.added_arcs) == sorted(delta.added_arcs)
        assert all(isinstance(arc, tuple) and len(arc) == 2
                   for arc in delta.added_arcs)


class TestRemovalsAndChanges:
    def test_removed_arc_is_not_additive(self, base_with_cycle,
                                         edit_removed_arc):
        delta = diff_stg(base_with_cycle, edit_removed_arc)
        assert delta.removed_arcs == (("p_xprobe1", "xprobe-"),)

    def test_signal_rename_is_removal_plus_addition(self, base_with_cycle,
                                                    edit_renamed):
        delta = diff_stg(base_with_cycle, edit_renamed)
        assert delta.removed_signals == ("xprobe",)
        assert delta.added_signals == ("yprobe",)

    def test_changed_initial_value(self, base_stg, copy_stg):
        edited = copy_stg(base_stg)
        signal = sorted(base_stg.signals)[0]
        edited.set_initial_values(dict(
            edited.initial_values,
            **{signal: not bool(edited.initial_values.get(signal))}))
        delta = diff_stg(base_stg, edited)
        assert delta.changed_initial_values == (signal,)

    def test_changed_signal_kind(self, base_with_cycle, copy_stg):
        edited = copy_stg(base_with_cycle)
        # Re-declare the probe as an output instead of internal.
        text = to_g_string(edited).replace(
            ".internal xprobe", ".outputs xprobe")
        edited = parse_g(text, name="edited")
        assert edited.kind_of("xprobe") != base_with_cycle.kind_of("xprobe")
        delta = diff_stg(base_with_cycle, edited)
        assert delta.changed_signal_kinds == ("xprobe",)


class TestSerialisation:
    def test_summary_counts(self, base_stg, edit_closed):
        summary = diff_stg(base_stg, edit_closed).summary()
        assert summary["added_signals"] == 1
        assert summary["added_transitions"] == 2
        assert summary["added_arcs"] == 4
        assert summary["removed_arcs"] == 0
