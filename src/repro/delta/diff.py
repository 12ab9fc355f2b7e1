"""Structural diffing of two STGs.

:func:`diff_stg` compares a *base* specification against an *edited* one
purely structurally -- net elements and initial state, never names of
the models themselves -- and returns an :class:`STGDelta`, the input of
the monotone-compatibility classifier
(:func:`repro.delta.classify.classify_delta`).

Everything is reported as sorted tuples so a delta is deterministic,
hashable and JSON-stable regardless of ``PYTHONHASHSEED`` (the same
discipline as every other serialised object in the repo).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Tuple

from repro.stg.stg import STG

#: Arc as a ``(source, target)`` label pair, exactly as
#: :meth:`repro.petri.net.PetriNet.arcs` yields them.
Arc = Tuple[str, str]


@dataclass(frozen=True)
class STGDelta:
    """The structural difference between a base and an edited STG.

    ``added_*`` / ``removed_*`` partition the element sets; the
    ``changed_*`` tuples name elements present on *both* sides whose
    initial state (place marking, signal value) or signal kind differs.
    """

    added_signals: Tuple[str, ...] = ()
    removed_signals: Tuple[str, ...] = ()
    added_transitions: Tuple[str, ...] = ()
    removed_transitions: Tuple[str, ...] = ()
    added_places: Tuple[str, ...] = ()
    removed_places: Tuple[str, ...] = ()
    added_arcs: Tuple[Arc, ...] = ()
    removed_arcs: Tuple[Arc, ...] = ()
    changed_markings: Tuple[str, ...] = ()
    changed_initial_values: Tuple[str, ...] = ()
    changed_signal_kinds: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def identical(self) -> bool:
        """True when the two STGs are structurally the same."""
        return not any(getattr(self, spec.name) for spec in fields(self))

    def summary(self) -> Dict[str, int]:
        """Per-category counts (the provenance/observability view)."""
        return {spec.name: len(getattr(self, spec.name))
                for spec in fields(self)}

    def to_dict(self) -> Dict[str, object]:
        """Lossless JSON-serialisable form."""
        return {spec.name: [list(item) if isinstance(item, tuple) else item
                            for item in getattr(self, spec.name)]
                for spec in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "STGDelta":
        """Rebuild a delta from :meth:`to_dict` output."""
        kwargs = {}
        for spec in fields(cls):
            values = data.get(spec.name) or ()
            if spec.name.endswith("_arcs"):
                kwargs[spec.name] = tuple(
                    (str(source), str(target)) for source, target in values)
            else:
                kwargs[spec.name] = tuple(str(value) for value in values)
        return cls(**kwargs)


def diff_stg(base: STG, edited: STG) -> STGDelta:
    """The structural delta turning ``base`` into ``edited``.

    Model names are deliberately ignored: renaming a specification is
    not an edit of its behaviour (the serve daemon and the CLI re-check
    edited texts under fresh task names all the time).
    """
    base_signals = set(base.signals)
    edited_signals = set(edited.signals)
    base_transitions = set(base.transitions)
    edited_transitions = set(edited.transitions)
    base_places = set(base.places)
    edited_places = set(edited.places)
    base_arcs = set(base.net.arcs())
    edited_arcs = set(edited.net.arcs())

    base_marking = base.initial_marking()
    edited_marking = edited.initial_marking()
    changed_markings = tuple(sorted(
        place for place in base_places & edited_places
        if base_marking.get(place, 0) != edited_marking.get(place, 0)))
    changed_initial_values = tuple(sorted(
        signal for signal in base_signals & edited_signals
        if bool(base.initial_values.get(signal))
        != bool(edited.initial_values.get(signal))))
    changed_signal_kinds = tuple(sorted(
        signal for signal in base_signals & edited_signals
        if base.kind_of(signal) != edited.kind_of(signal)))

    return STGDelta(
        added_signals=tuple(sorted(edited_signals - base_signals)),
        removed_signals=tuple(sorted(base_signals - edited_signals)),
        added_transitions=tuple(sorted(edited_transitions
                                       - base_transitions)),
        removed_transitions=tuple(sorted(base_transitions
                                         - edited_transitions)),
        added_places=tuple(sorted(edited_places - base_places)),
        removed_places=tuple(sorted(base_places - edited_places)),
        added_arcs=tuple(sorted(edited_arcs - base_arcs)),
        removed_arcs=tuple(sorted(base_arcs - edited_arcs)),
        changed_markings=changed_markings,
        changed_initial_values=changed_initial_values,
        changed_signal_kinds=changed_signal_kinds)
