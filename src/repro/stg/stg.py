"""The STG class: a labelled Petri net with an input/output interface.

Definition 2.1 of the paper: an STG is ``(N, S_A, lambda)`` where ``N`` is
a Petri net, ``S_A = S_I U S_O U S_H`` the signal set (inputs, outputs,
internal signals) and ``lambda`` labels every transition with a signal
transition.  This class additionally records the initial signal values
``s0`` needed to build the (full) State Graph.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.stg.signals import STGError, SignalKind, SignalTransition


class STG:
    """A Signal Transition Graph.

    The underlying Petri net is owned by the STG and accessed through
    :attr:`net`.  Transition names are derived from their labels (``a+``,
    ``a-/2``); places can be declared explicitly or implicitly (an arc
    between two transitions creates an anonymous place, mirroring the
    short-hand form used in the paper's figures and the ``.g`` format).

    Examples
    --------
    >>> stg = STG("handshake")
    >>> stg.add_signal("r", SignalKind.INPUT)
    >>> stg.add_signal("a", SignalKind.OUTPUT)
    >>> for arc in ["r+ a+", "a+ r-", "r- a-"]:
    ...     source, target = arc.split()
    ...     _ = stg.connect(source, target)
    >>> _ = stg.connect("a-", "r+", tokens=1)
    >>> stg.net.enabled_transitions(stg.initial_marking())
    ['r+']
    """

    def __init__(self, name: str = "stg") -> None:
        self.name = name
        self.net = PetriNet(name)
        self._signals: Dict[str, SignalKind] = {}
        self._labels: Dict[str, SignalTransition] = {}
        self._initial_values: Dict[str, bool] = {}
        self._implicit_place_count = 0

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def add_signal(self, name: str, kind: SignalKind,
                   initial_value: Optional[bool] = None) -> None:
        """Declare a signal of the given kind (optionally with its value at
        the initial state)."""
        if name in self._signals:
            raise STGError(f"signal {name!r} already declared")
        self._signals[name] = kind
        if initial_value is not None:
            self._initial_values[name] = bool(initial_value)

    @property
    def signals(self) -> List[str]:
        """All declared signals, in declaration order."""
        return list(self._signals)

    @property
    def inputs(self) -> List[str]:
        return [s for s, kind in self._signals.items() if kind is SignalKind.INPUT]

    @property
    def outputs(self) -> List[str]:
        return [s for s, kind in self._signals.items() if kind is SignalKind.OUTPUT]

    @property
    def internals(self) -> List[str]:
        return [s for s, kind in self._signals.items()
                if kind is SignalKind.INTERNAL]

    @property
    def noninput_signals(self) -> List[str]:
        """Outputs and internal signals (the circuit's responsibility)."""
        return [s for s, kind in self._signals.items() if kind.is_noninput]

    def kind_of(self, signal: str) -> SignalKind:
        try:
            return self._signals[signal]
        except KeyError as exc:
            raise STGError(f"unknown signal {signal!r}") from exc

    def is_input(self, signal: str) -> bool:
        return self.kind_of(signal) is SignalKind.INPUT

    def has_signal(self, name: str) -> bool:
        return name in self._signals

    # ------------------------------------------------------------------
    # Initial signal values
    # ------------------------------------------------------------------
    def set_initial_value(self, signal: str, value: bool) -> None:
        """Set the value of a signal in the initial state ``s0``."""
        self.kind_of(signal)
        self._initial_values[signal] = bool(value)

    def set_initial_values(self, values: Mapping[str, bool]) -> None:
        for signal, value in values.items():
            self.set_initial_value(signal, value)

    def initial_value(self, signal: str) -> Optional[bool]:
        """Initial value of a signal, or ``None`` when not (yet) known."""
        self.kind_of(signal)
        return self._initial_values.get(signal)

    @property
    def initial_values(self) -> Dict[str, bool]:
        """Copy of the known initial signal values."""
        return dict(self._initial_values)

    def has_complete_initial_values(self) -> bool:
        """True when every signal has a declared initial value."""
        return all(signal in self._initial_values for signal in self._signals)

    def initial_state_vector(self) -> Dict[str, bool]:
        """Initial values for all signals; raises if any is unknown."""
        missing = [s for s in self._signals if s not in self._initial_values]
        if missing:
            raise STGError(
                f"initial values unknown for signals {missing}; declare them "
                f"or call repro.sg.builder.infer_initial_values")
        return dict(self._initial_values)

    # ------------------------------------------------------------------
    # Transitions and places
    # ------------------------------------------------------------------
    def add_transition(self, label: str | SignalTransition) -> str:
        """Add a transition labelled with a signal transition.

        Returns the Petri-net transition name (the string form of the
        label).  The signal must have been declared.
        """
        parsed = (label if isinstance(label, SignalTransition)
                  else SignalTransition.parse(label))
        if parsed.signal not in self._signals:
            raise STGError(
                f"transition {parsed} uses undeclared signal {parsed.signal!r}")
        name = str(parsed)
        if self.net.has_transition(name):
            raise STGError(f"duplicate transition {name!r}")
        self.net.add_transition(name, label=parsed)
        self._labels[name] = parsed
        return name

    def ensure_transition(self, label: str | SignalTransition) -> str:
        """Add the transition if missing; return its name."""
        parsed = (label if isinstance(label, SignalTransition)
                  else SignalTransition.parse(label))
        name = str(parsed)
        if not self.net.has_transition(name):
            return self.add_transition(parsed)
        return name

    def add_place(self, name: str, tokens: int = 0) -> str:
        """Add an explicit place."""
        self.net.add_place(name, tokens)
        return name

    def add_arc(self, source: str, target: str) -> None:
        """Add an arc between an existing place and an existing transition."""
        self.net.add_arc(source, target)

    def connect(self, source_label: str, target_label: str,
                tokens: int = 0) -> str:
        """Connect two transitions through an implicit place.

        Creates (if necessary) the transitions for both labels, an
        anonymous place between them carrying ``tokens`` tokens, and the two
        arcs.  Returns the name of the created place.  This mirrors the
        short-hand STG notation where single-fanin/fanout places are not
        drawn (Section 2).
        """
        source = self.ensure_transition(source_label)
        target = self.ensure_transition(target_label)
        place = self.implicit_place_name(source, target)
        if self.net.has_place(place):
            # Parallel arcs between the same pair get numbered suffixes.
            suffix = 2
            while self.net.has_place(f"{place}#{suffix}"):
                suffix += 1
            place = f"{place}#{suffix}"
        self.net.add_place(place, tokens)
        self.net.add_arc(source, place)
        self.net.add_arc(place, target)
        self._implicit_place_count += 1
        return place

    @staticmethod
    def implicit_place_name(source: str, target: str) -> str:
        """Canonical name of the implicit place between two transitions."""
        return f"<{source},{target}>"

    # ------------------------------------------------------------------
    # Labelling function
    # ------------------------------------------------------------------
    def label_of(self, transition: str) -> SignalTransition:
        """The signal-transition label of a Petri-net transition."""
        try:
            return self._labels[transition]
        except KeyError as exc:
            raise STGError(f"transition {transition!r} has no label") from exc

    def signal_of(self, transition: str) -> str:
        """The signal a transition belongs to."""
        return self.label_of(transition).signal

    def transitions_of_signal(self, signal: str) -> List[str]:
        """All transitions of a signal (both polarities, all indices)."""
        self.kind_of(signal)
        return [t for t, label in self._labels.items() if label.signal == signal]

    def transitions_of(self, signal: str, polarity: str) -> List[str]:
        """All transitions ``signal``/``polarity`` (any occurrence index)."""
        self.kind_of(signal)
        return [t for t, label in self._labels.items()
                if label.signal == signal and label.polarity == polarity]

    @property
    def transitions(self) -> List[str]:
        """All labelled transition names."""
        return list(self._labels)

    @property
    def places(self) -> List[str]:
        return self.net.places

    # ------------------------------------------------------------------
    # Behaviour helpers
    # ------------------------------------------------------------------
    def initial_marking(self) -> Marking:
        return self.net.initial_marking

    # ------------------------------------------------------------------
    # Copies / renaming
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "STG":
        """Deep copy of the STG (structure, kinds, initial values)."""
        clone = STG(self.name if name is None else name)
        clone.net = self.net.copy(clone.name)
        clone._signals = dict(self._signals)
        clone._labels = dict(self._labels)
        clone._initial_values = dict(self._initial_values)
        clone._implicit_place_count = self._implicit_place_count
        return clone

    def statistics(self) -> Dict[str, int]:
        """Size statistics used by reports and Table 1."""
        return {
            "places": self.net.num_places,
            "transitions": self.net.num_transitions,
            "signals": len(self._signals),
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "internals": len(self.internals),
        }

    def __repr__(self) -> str:
        stats = self.statistics()
        return (f"STG({self.name!r}, signals={stats['signals']}, "
                f"places={stats['places']}, transitions={stats['transitions']})")
