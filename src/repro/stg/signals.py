"""Signal kinds and signal-transition labels.

A signal transition label is a triple ``(signal, index, polarity)`` written
``a+``, ``a-`` or, when a signal switches several times per cycle,
``a+/2``, ``a-/3`` (the index distinguishes the occurrences, exactly as the
``j``-th transition ``a_j*`` of the paper and the ``.g`` file notation).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class STGError(Exception):
    """Raised for ill-formed STGs, labels or files."""


class SignalKind(Enum):
    """Partition of the signal set ``S_A = S_I U S_O U S_H``."""

    INPUT = "input"
    OUTPUT = "output"
    INTERNAL = "internal"

    @property
    def is_input(self) -> bool:
        return self is SignalKind.INPUT

    @property
    def is_noninput(self) -> bool:
        """Outputs and internal signals: the ones the circuit must produce."""
        return self is not SignalKind.INPUT


RISING = "+"
FALLING = "-"

_LABEL_RE = re.compile(
    r"^(?P<signal>[A-Za-z_][A-Za-z_0-9.\[\]]*)"
    r"(?P<polarity>[+-])"
    r"(?:/(?P<index>\d+))?$"
)


@dataclass(frozen=True)
class SignalTransition:
    """An interpreted transition label ``signal`` ``polarity`` ``/index``.

    ``index`` numbers repeated occurrences of the same signal change within
    one specification (default 1).  Two labels with different indices are
    distinct Petri-net transitions of the same *signal transition kind*.
    """

    signal: str
    polarity: str
    index: int = 1

    def __post_init__(self) -> None:
        if self.polarity not in (RISING, FALLING):
            raise STGError(f"invalid polarity {self.polarity!r}")
        if self.index < 1:
            raise STGError(f"invalid occurrence index {self.index}")

    @property
    def is_rising(self) -> bool:
        return self.polarity == RISING

    @property
    def is_falling(self) -> bool:
        return self.polarity == FALLING

    @property
    def target_value(self) -> bool:
        """Signal value after the transition fires (True for ``+``)."""
        return self.is_rising

    @property
    def generic(self) -> str:
        """Generic name ``a+`` / ``a-`` without the occurrence index."""
        return f"{self.signal}{self.polarity}"

    @staticmethod
    def parse(text: str) -> "SignalTransition":
        """Parse ``a+``, ``b-``, ``a+/2`` ... into a label."""
        match = _LABEL_RE.match(text.strip())
        if match is None:
            raise STGError(f"cannot parse signal transition label {text!r}")
        index = match.group("index")
        return SignalTransition(
            signal=match.group("signal"),
            polarity=match.group("polarity"),
            index=int(index) if index else 1,
        )

    def __str__(self) -> str:
        if self.index == 1:
            return self.generic
        return f"{self.generic}/{self.index}"
