"""Function handles: user-facing view of a BDD root.

A :class:`Function` pairs a manager with a root node identifier and exposes
the usual boolean operators.  Handles are hashable and compare equal when
they denote the same function in the same manager (plain edges make node
identity canonical).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.bdd.manager import BDDManager
    from repro.bdd.operators import TransferSteps


class Function:
    """A boolean function represented by a BDD root in a manager.

    Operator summary (all return new :class:`Function` objects):

    ========  =========================
    ``~f``    complement
    ``f & g`` conjunction
    ``f | g`` disjunction
    ``f ^ g`` exclusive or
    ``f - g`` difference (``f & ~g``)
    ``f >> g``implication
    ``f == g``semantic equality (bool)
    ========  =========================
    """

    __slots__ = ("manager", "node")

    def __init__(self, manager: "BDDManager", node: int) -> None:
        self.manager = manager
        self.node = node

    # ------------------------------------------------------------------
    # Constant tests
    # ------------------------------------------------------------------
    def is_true(self) -> bool:
        """True iff this is the constant TRUE function."""
        from repro.bdd.manager import TRUE_ID

        return self.node == TRUE_ID

    def is_false(self) -> bool:
        """True iff this is the constant FALSE function."""
        from repro.bdd.manager import FALSE_ID

        return self.node == FALSE_ID

    def __bool__(self) -> bool:
        raise TypeError(
            "Function truth value is ambiguous; use is_true()/is_false() "
            "or compare with == explicitly"
        )

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------
    def _other_node(self, other: "Function") -> int:
        if not isinstance(other, Function):
            raise TypeError(f"expected a Function, got {type(other).__name__}")
        if other.manager is not self.manager:
            raise ValueError("cannot combine functions from different managers")
        return other.node

    def __invert__(self) -> "Function":
        return self.manager._wrap(self.manager.negate(self.node))

    def __and__(self, other: "Function") -> "Function":
        return self.manager._wrap(
            self.manager.apply_and(self.node, self._other_node(other)))

    def __or__(self, other: "Function") -> "Function":
        return self.manager._wrap(
            self.manager.apply_or(self.node, self._other_node(other)))

    def __xor__(self, other: "Function") -> "Function":
        return self.manager._wrap(
            self.manager.apply_xor(self.node, self._other_node(other)))

    def __sub__(self, other: "Function") -> "Function":
        return self.manager._wrap(
            self.manager.apply_diff(self.node, self._other_node(other)))

    def __rshift__(self, other: "Function") -> "Function":
        return self.manager._wrap(
            self.manager.apply_implies(self.node, self._other_node(other)))

    def ite(self, then_f: "Function", else_f: "Function") -> "Function":
        """``self`` ? ``then_f`` : ``else_f``."""
        return self.manager._wrap(
            self.manager.ite(self.node, self._other_node(then_f),
                             self._other_node(else_f)))

    # ------------------------------------------------------------------
    # Comparison / hashing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Function):
            return NotImplemented
        return self.manager is other.manager and self.node == other.node

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def __le__(self, other: "Function") -> bool:
        """Implication test: True iff ``self -> other`` is a tautology."""
        from repro.bdd.manager import TRUE_ID

        return self.manager.apply_implies(self.node, self._other_node(other)) == TRUE_ID

    def __ge__(self, other: "Function") -> bool:
        return other <= self

    def __lt__(self, other: "Function") -> bool:
        return self <= other and self != other

    def __gt__(self, other: "Function") -> bool:
        return other < self

    def disjoint(self, other: "Function") -> bool:
        """True iff the two functions have no common satisfying assignment."""
        from repro.bdd.manager import FALSE_ID

        return self.manager.apply_and(self.node, self._other_node(other)) == FALSE_ID

    def meets(self, cubes: Sequence["Function"]) -> List[bool]:
        """For each cube, whether ``self & cube`` is satisfiable (one pass)."""
        from repro.bdd import operators

        return operators.meets(self, cubes)

    # ------------------------------------------------------------------
    # Derived operations (delegate to repro.bdd.operators / analysis)
    # ------------------------------------------------------------------
    def exist(self, variables: Sequence[str]) -> "Function":
        """Existential quantification over ``variables``."""
        from repro.bdd import operators

        return operators.exist(self, variables)

    def forall(self, variables: Sequence[str]) -> "Function":
        """Universal quantification over ``variables``."""
        from repro.bdd import operators

        return operators.forall(self, variables)

    def cofactor(self, literals: Dict[str, bool]) -> "Function":
        """Cofactor with respect to a cube given as ``{var: polarity}``."""
        from repro.bdd import operators

        return operators.cofactor(self, literals)

    def compose(self, substitutions: Dict[str, "Function"]) -> "Function":
        """Simultaneous functional composition ``f[var := g]``."""
        from repro.bdd import operators

        return operators.compose(self, substitutions)

    def rename(self, mapping: Dict[str, str]) -> "Function":
        """Rename variables (must map to variables, used for primed copies)."""
        from repro.bdd import operators

        return operators.rename(self, mapping)

    def and_exist(self, other: "Function", variables: Sequence[str]) -> "Function":
        """Relational product: ``exists variables . (self & other)``."""
        from repro.bdd import operators

        return operators.and_exist(self, other, variables)

    def transfer(self, steps: "TransferSteps",
                 drop: Optional["Function"] = None) -> "Function":
        """``((self|require) & assign) - drop`` in one pass (image kernel)."""
        from repro.bdd import operators

        return operators.transfer(self, steps, drop)

    def support(self) -> Sequence[str]:
        """The set of variables the function actually depends on."""
        from repro.bdd import analysis

        return analysis.support(self)

    def sat_count(self, care_vars: Optional[Sequence[str]] = None) -> int:
        """Number of satisfying assignments over ``care_vars``."""
        from repro.bdd import analysis

        return analysis.sat_count(self, care_vars)

    def iter_models(self, care_vars: Optional[Sequence[str]] = None
                    ) -> Iterator[Dict[str, bool]]:
        """Iterate over satisfying assignments as dictionaries."""
        from repro.bdd import analysis

        return analysis.iter_models(self, care_vars)

    def pick_one(self, care_vars: Optional[Sequence[str]] = None
                 ) -> Optional[Dict[str, bool]]:
        """Return one satisfying assignment, or ``None`` if unsatisfiable."""
        from repro.bdd import analysis

        return analysis.pick_one(self, care_vars)

    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        """Evaluate the function under a (total enough) assignment."""
        from repro.bdd import analysis

        return analysis.evaluate(self, assignment)

    def size(self) -> int:
        """Number of BDD nodes of this function (terminals included)."""
        return self.manager.size(self.node)

    def __repr__(self) -> str:
        if self.is_true():
            return "Function(TRUE)"
        if self.is_false():
            return "Function(FALSE)"
        return f"Function(node={self.node}, size={self.size()})"
