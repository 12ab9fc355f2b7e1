"""The benchmark registry: named STG specifications with metadata.

Every entry of :data:`REGISTRY` pairs a canonical ``.g`` text (the ASTG
interchange format of :mod:`repro.stg.parser` / :mod:`repro.stg.writer`)
with the metadata the verification pipeline is expected to reproduce:
interface sizes and the per-property verdicts (consistency, output
persistency, CSC/USC, deadlock freedom, reachable-state count and the
final implementability classification of Definition 2.6).

The population mirrors the evaluation of the paper:

* the **controller fixtures** used by the end-to-end integration tests
  (``sbuf_send_ctl``, ``choice_controller``, ``broken_double_rise``),
* the **Table-1-style circuits**: the SBUF send/read controllers, the VME
  bus controller (plain and CSC-resolved), the mutual-exclusion element,
  a master-read interface and a Muller pipeline instance,
* the **negative examples** of Section 3 (inconsistent double rise,
  output disabled by an input, reducible and irreducible CSC conflicts).

Hand-written entries keep their ``.g`` text verbatim; entries drawn from
the scalable families of :mod:`repro.stg.generators` serialise the
generator output once and cache it, so the text is deterministic and
byte-stable across processes.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.report import ImplementabilityClass
from repro.stg import generators

#: Map from an ``expected`` metadata key to the matching
#: :class:`repro.report.ImplementabilityReport` attribute.
REPORT_FIELDS: Dict[str, str] = {
    "consistent": "consistent",
    "persistent": "output_persistent",
    "csc": "csc",
    "usc": "usc",
    "deadlock_free": "deadlock_free",
    "states": "num_states",
    "classification": "classification",
}


def mismatches_against(expected: Mapping[str, object],
                       report) -> List[str]:
    """Expected-vs-observed differences for a finished report.

    Shared by :meth:`CorpusEntry.mismatches` and the sweep-runner workers,
    whose expected mappings have been round-tripped through JSON (so a
    ``classification`` value may be either an
    :class:`~repro.report.ImplementabilityClass` or its string form --
    both compare via ``str``).  Expected keys whose report field is
    ``None`` (not computed by the run that produced the report, e.g.
    deadlock freedom without the opt-in liveness check) are skipped
    rather than counted as mismatches; so is the ``partial``
    classification of a check-subset run -- the class is *undecided*
    there, which is not evidence against the recorded one.
    """
    from repro.report import ImplementabilityClass

    problems: List[str] = []
    for key, wanted in expected.items():
        observed = getattr(report, REPORT_FIELDS[key])
        if observed is None:
            continue
        if key == "classification":
            if str(observed) == str(ImplementabilityClass.PARTIAL):
                continue
            if str(observed) != str(wanted):
                problems.append(
                    f"{key}: expected {wanted}, observed {observed}")
        elif observed != wanted:
            problems.append(
                f"{key}: expected {wanted}, observed {observed}")
    return problems


@dataclass
class CorpusEntry:
    """One named benchmark: canonical ``.g`` text plus expected metadata.

    ``expected`` only pins the verdicts that are meaningful for the entry:
    e.g. for an inconsistent specification the two engines legitimately
    disagree on the state count (the symbolic traversal prunes states with
    no consistent binary code), so only ``consistent`` and
    ``classification`` are recorded.
    """

    name: str
    description: str
    source: str  # "fixture" | "table1" | "negative" | "random"
    num_inputs: int
    num_outputs: int
    expected: Mapping[str, object]
    num_internals: int = 0
    arbitration_places: Tuple[str, ...] = ()
    text: Optional[str] = None
    builder: Optional[Callable[[], object]] = None
    #: Provenance of entries drawn from a scalable family: the family
    #: name and the scale the builder was instantiated at (for the
    #: random families the scale is the generator seed).  ``None`` for
    #: hand-written, fixed-size entries.
    family: Optional[str] = None
    scale: Optional[int] = None
    _cached_text: Optional[str] = field(default=None, repr=False)

    @property
    def g_text(self) -> str:
        """The canonical ``.g`` source of the entry."""
        if self._cached_text is None:
            if self.text is not None:
                self._cached_text = textwrap.dedent(self.text).lstrip()
            else:
                from repro.stg.writer import to_g_string

                self._cached_text = to_g_string(self.builder())
        return self._cached_text

    @property
    def num_signals(self) -> int:
        return self.num_inputs + self.num_outputs + self.num_internals

    def mismatches(self, report) -> List[str]:
        """Expected-vs-observed differences (see :func:`mismatches_against`)."""
        return mismatches_against(self.expected, report)

    def listing_dict(self) -> Dict[str, object]:
        """Machine-readable record for ``batch-check --list --json``.

        Everything external tooling used to scrape from the text table:
        name, source, family/scale provenance, interface sizes,
        arbitration places and the expected verdicts (classifications as
        their string form).
        """
        return {
            "name": self.name,
            "source": self.source,
            "description": self.description,
            "family": self.family,
            "scale": self.scale,
            "num_inputs": self.num_inputs,
            "num_outputs": self.num_outputs,
            "num_internals": self.num_internals,
            "num_signals": self.num_signals,
            "arbitration_places": list(self.arbitration_places),
            "expected": {
                key: (str(value) if key == "classification" else value)
                for key, value in self.expected.items()},
        }


def _no_arbitration(stg) -> List[str]:
    return []


@dataclass(frozen=True)
class ScalableFamily:
    """One scalable benchmark family of the Table 1 sweep.

    The fixed-size corpus entries cover corpus-friendly instances; the
    benchmark harness scales the same families up.  ``arbitration``
    extracts the arbitration places an instance needs (only the mutex
    family has any), and ``expected`` pins the verdicts every instance of
    the family must produce regardless of scale.
    """

    name: str
    builder: Callable[[int], object]
    expected: Mapping[str, object]
    arbitration: Callable[[object], List[str]] = _no_arbitration

    def instantiate(self, scale: int):
        """Build one instance; returns ``(stg, arbitration_places)``."""
        stg = self.builder(scale)
        return stg, list(self.arbitration(stg))


FAMILIES: Dict[str, ScalableFamily] = {
    fam.name: fam
    for fam in (
        ScalableFamily(
            name="muller_pipeline",
            builder=generators.muller_pipeline,
            expected={"consistent": True, "persistent": True, "csc": True}),
        ScalableFamily(
            name="master_read",
            builder=generators.master_read,
            expected={"consistent": True, "persistent": True, "csc": True}),
        ScalableFamily(
            name="parallel_handshakes",
            builder=generators.parallel_handshakes,
            expected={"consistent": True, "persistent": True, "csc": True}),
        ScalableFamily(
            name="mutex",
            builder=generators.mutex_element,
            expected={"consistent": True, "persistent": True, "csc": True},
            arbitration=generators.mutex_arbitration_places),
        # The random families only pin their structural invariants: CSC
        # legitimately varies per seed (that is their point -- a scale
        # sweep exercises every implementability class).
        ScalableFamily(
            name="random_ring",
            builder=generators.random_ring_family,
            expected={"consistent": True, "persistent": True,
                      "deadlock_free": True}),
        ScalableFamily(
            name="random_parallel",
            builder=generators.random_parallel_family,
            expected={"consistent": True, "persistent": True,
                      "deadlock_free": True}),
    )
}


def family(name: str) -> ScalableFamily:
    """Look up a scalable family; raises ``KeyError`` naming the options."""
    try:
        return FAMILIES[name]
    except KeyError:
        available = ", ".join(FAMILIES)
        raise KeyError(
            f"unknown benchmark family {name!r}; available: {available}"
            ) from None


REGISTRY: Dict[str, CorpusEntry] = {}


def register(entry: CorpusEntry) -> CorpusEntry:
    if entry.name in REGISTRY:
        raise ValueError(f"duplicate corpus entry {entry.name!r}")
    if (entry.text is None) == (entry.builder is None):
        raise ValueError(
            f"corpus entry {entry.name!r} needs exactly one of text/builder")
    REGISTRY[entry.name] = entry
    return entry


_GATE = ImplementabilityClass.GATE
_IO = ImplementabilityClass.IO
_SI = ImplementabilityClass.SI
_NOT = ImplementabilityClass.NOT_IMPLEMENTABLE


# ----------------------------------------------------------------------
# Integration-test controller fixtures (hand-written canonical text)
# ----------------------------------------------------------------------
register(CorpusEntry(
    name="sbuf_send_ctl",
    description="SBUF send controller: latches outgoing data on request, "
                "acknowledges once the device signals completion; a clean "
                "gate-implementable 8-state cycle.",
    source="fixture",
    num_inputs=2, num_outputs=2,
    expected={"consistent": True, "persistent": True, "csc": True,
              "usc": True, "deadlock_free": True, "states": 8,
              "classification": _GATE},
    text="""
        .model sbuf_send_ctl
        .inputs req done
        .outputs ack latch
        .graph
        req+ latch+
        latch+ done+
        done+ ack+
        ack+ req-
        req- latch-
        latch- done-
        done- ack-
        ack- req+
        .marking { <ack-,req+> }
        .initial_values ack=0 done=0 latch=0 req=0
        .end
    """))

register(CorpusEntry(
    name="sbuf_read_ctl",
    description="SBUF read controller: output-enable handshake with the "
                "device overlapping the bus acknowledge; consistent and "
                "persistent but carries a CSC conflict (like the VME "
                "controller), so it is I/O- but not gate-implementable.",
    source="fixture",
    num_inputs=2, num_outputs=2,
    expected={"consistent": True, "persistent": True, "csc": False,
              "usc": False, "deadlock_free": True, "states": 12,
              "classification": _IO},
    text="""
        .model sbuf_read_ctl
        .inputs req done
        .outputs ack oe
        .graph
        req+ oe+
        oe+ done+
        done+ ack+ oe-
        ack+ req-
        oe- done-
        req- ack-
        done- ack-
        ack- req+
        .marking { <ack-,req+> }
        .initial_values ack=0 done=0 oe=0 req=0
        .end
    """))

register(CorpusEntry(
    name="choice_controller",
    description="Environment chooses between two requests; both branches "
                "share the binary code 001 (USC fails) yet enable the same "
                "grant behaviour, so CSC holds -- the classical USC/CSC "
                "separation example.",
    source="fixture",
    num_inputs=2, num_outputs=1,
    expected={"consistent": True, "persistent": True, "csc": True,
              "usc": False, "deadlock_free": True, "states": 7,
              "classification": _GATE},
    text="""
        .model choice_controller
        .inputs r1 r2
        .outputs g
        .graph
        p0 r1+ r2+
        r1+ g+
        g+ r1-
        r1- g-
        g- p0
        r2+ g+/2
        g+/2 r2-
        r2- g-/2
        g-/2 p0
        .marking { p0 }
        .initial_values g=0 r1=0 r2=0
        .end
    """))

register(CorpusEntry(
    name="broken_double_rise",
    description="Deliberately broken specification: signal b rises twice "
                "with no falling transition in between, so no consistent "
                "state assignment exists (Section 3.1).",
    source="negative",
    num_inputs=1, num_outputs=1,
    expected={"consistent": False, "classification": _NOT},
    text="""
        .model broken_double_rise
        .inputs a
        .outputs b
        .graph
        b+ a+
        a+ b+/2
        b+/2 b-
        b- a-
        a- b+
        .marking { <a-,b+> }
        .initial_values a=0 b=0
        .end
    """))


# ----------------------------------------------------------------------
# Table-1-style circuits (serialised from repro.stg.generators)
# ----------------------------------------------------------------------
register(CorpusEntry(
    name="handshake",
    description="Single 4-phase handshake: the smallest useful STG.",
    source="table1",
    num_inputs=1, num_outputs=1,
    expected={"consistent": True, "persistent": True, "csc": True,
              "usc": True, "deadlock_free": True, "states": 4,
              "classification": _GATE},
    builder=generators.handshake))

register(CorpusEntry(
    name="mutex_element",
    description="Two-user mutual-exclusion element of Figure 1; the "
                "output conflict on p_me is declared as arbitration.",
    source="table1",
    num_inputs=2, num_outputs=2,
    arbitration_places=("p_me",),
    expected={"consistent": True, "persistent": True, "csc": True,
              "usc": True, "deadlock_free": True, "states": 12,
              "classification": _GATE},
    family="mutex", scale=2,
    builder=generators.mutex_element))

register(CorpusEntry(
    name="vme_read",
    description="VME bus controller, read cycle: consistent and persistent "
                "with the well-known reducible CSC conflict.",
    source="table1",
    num_inputs=2, num_outputs=3,
    expected={"consistent": True, "persistent": True, "csc": False,
              "usc": False, "deadlock_free": True, "states": 14,
              "classification": _IO},
    builder=generators.vme_read_cycle))

register(CorpusEntry(
    name="vme_read_resolved",
    description="VME read cycle with the CSC conflict resolved by an "
                "inserted internal signal csc0.",
    source="table1",
    num_inputs=2, num_outputs=3, num_internals=1,
    expected={"consistent": True, "persistent": True, "csc": True,
              "usc": True, "deadlock_free": True, "states": 18,
              "classification": _GATE},
    builder=generators.vme_read_cycle_resolved))

register(CorpusEntry(
    name="master_read_2",
    description="Master read interface fetching from 2 concurrent slaves "
                "(fork/join marked graph, master-read family).",
    source="table1",
    num_inputs=3, num_outputs=3,
    expected={"consistent": True, "persistent": True, "csc": True,
              "usc": True, "deadlock_free": True, "states": 20,
              "classification": _GATE},
    family="master_read", scale=2,
    builder=lambda: generators.master_read(2)))

register(CorpusEntry(
    name="muller_pipeline_3",
    description="Muller C-element pipeline with 3 stages (the paper's "
                "scalable pipeline family at a corpus-friendly size).",
    source="table1",
    num_inputs=1, num_outputs=3,
    expected={"consistent": True, "persistent": True, "csc": True,
              "usc": True, "deadlock_free": True, "states": 16,
              "classification": _GATE},
    family="muller_pipeline", scale=3,
    builder=lambda: generators.muller_pipeline(3)))

register(CorpusEntry(
    name="parallel_handshakes_2",
    description="Two independent 4-phase handshakes: maximal concurrency, "
                "4**n reachable states.",
    source="table1",
    num_inputs=2, num_outputs=2,
    expected={"consistent": True, "persistent": True, "csc": True,
              "usc": True, "deadlock_free": True, "states": 16,
              "classification": _GATE},
    family="parallel_handshakes", scale=2,
    builder=lambda: generators.parallel_handshakes(2)))

register(CorpusEntry(
    name="muller_pipeline_4",
    description="Muller C-element pipeline with 4 stages: the next depth "
                "step of the paper's scalable pipeline family.",
    source="table1",
    num_inputs=1, num_outputs=4,
    expected={"consistent": True, "persistent": True, "csc": True,
              "usc": True, "deadlock_free": True, "states": 32,
              "classification": _GATE},
    family="muller_pipeline", scale=4,
    builder=lambda: generators.muller_pipeline(4)))

register(CorpusEntry(
    name="master_read_3",
    description="Master read interface fetching from 3 concurrent slaves: "
                "wider fork/join than master_read_2.",
    source="table1",
    num_inputs=4, num_outputs=4,
    expected={"consistent": True, "persistent": True, "csc": True,
              "usc": True, "deadlock_free": True, "states": 56,
              "classification": _GATE},
    family="master_read", scale=3,
    builder=lambda: generators.master_read(3)))

register(CorpusEntry(
    name="parallel_handshakes_3",
    description="Three independent 4-phase handshakes: 64 reachable states "
                "of pure concurrency.",
    source="table1",
    num_inputs=3, num_outputs=3,
    expected={"consistent": True, "persistent": True, "csc": True,
              "usc": True, "deadlock_free": True, "states": 64,
              "classification": _GATE},
    family="parallel_handshakes", scale=3,
    builder=lambda: generators.parallel_handshakes(3)))

register(CorpusEntry(
    name="mutex3",
    description="Three-user mutual-exclusion element: the Figure 1 "
                "arbiter generalised to a third competing client.",
    source="table1",
    num_inputs=3, num_outputs=3,
    arbitration_places=("p_me",),
    expected={"consistent": True, "persistent": True, "csc": True,
              "usc": True, "deadlock_free": True, "states": 32,
              "classification": _GATE},
    family="mutex", scale=3,
    builder=lambda: generators.mutex_element(3)))

register(CorpusEntry(
    name="pipeline_env_2",
    description="Two-stage Muller pipeline closed by an explicit "
                "environment acknowledge loop (the synthesis example).",
    source="table1",
    num_inputs=2, num_outputs=2,
    expected={"consistent": True, "persistent": True, "csc": True,
              "usc": True, "deadlock_free": True, "states": 16,
              "classification": _GATE},
    builder=lambda: generators.pipeline_with_environment(2)))


# ----------------------------------------------------------------------
# Negative examples of Section 3
# ----------------------------------------------------------------------
register(CorpusEntry(
    name="inconsistent",
    description="Consistency violation of Section 3.1: the trace "
                "b+ a+ b+/2 is feasible.",
    source="negative",
    num_inputs=1, num_outputs=1,
    expected={"consistent": False, "classification": _NOT},
    builder=generators.inconsistent_example))

register(CorpusEntry(
    name="output_disabled_by_input",
    description="Persistency violation: an input transition disables a "
                "pending output (Definition 3.2, case 1).",
    source="negative",
    num_inputs=1, num_outputs=1,
    expected={"consistent": True, "persistent": False,
              "deadlock_free": True, "states": 3,
              "classification": _NOT},
    builder=generators.output_disabled_by_input))

register(CorpusEntry(
    name="csc_violation",
    description="Reducible CSC violation: two states share the code "
                "a=1,b=0,c=0 but enable different outputs.",
    source="negative",
    num_inputs=1, num_outputs=2,
    expected={"consistent": True, "persistent": True, "csc": False,
              "usc": False, "deadlock_free": True, "states": 8,
              "classification": _IO},
    builder=generators.csc_violation_example))

register(CorpusEntry(
    name="csc_resolved",
    description="The reducible CSC violation repaired with an internal "
                "phase signal x.",
    source="negative",
    num_inputs=1, num_outputs=2, num_internals=1,
    expected={"consistent": True, "persistent": True, "csc": True,
              "usc": True, "deadlock_free": True, "states": 10,
              "classification": _GATE},
    builder=generators.csc_resolved_example))

register(CorpusEntry(
    name="irreducible_csc",
    description="Irreducible CSC violation: mutually complementary input "
                "sequences (Definition 3.5(3)); SI- but not "
                "I/O-implementable.",
    source="negative",
    num_inputs=2, num_outputs=1,
    expected={"consistent": True, "persistent": True, "csc": False,
              "usc": False, "deadlock_free": True, "states": 9,
              "classification": _SI},
    builder=generators.irreducible_csc_example))


# ----------------------------------------------------------------------
# Random benchmark families (seeded instances of repro.stg.generators)
# ----------------------------------------------------------------------
# Each instance is fully determined by its (size, seed) parameters, so the
# canonical .g text is reproducible byte for byte.  Only the structural
# invariants of the construction are pinned (consistency, persistency,
# deadlock freedom and the analytic state count); the coding verdicts
# (CSC/USC) vary per seed by design.  The interface split is drawn by the
# generator, so it is read off one throwaway instance at registration time
# (the instances are tiny -- this costs microseconds per entry).
def _register_random_entries() -> None:
    def _interface(stg):
        return {"num_inputs": len(stg.inputs),
                "num_outputs": len(stg.outputs),
                "num_internals": len(stg.internals)}

    for seed in range(1, 13):
        signals = 3 + seed % 6
        stg = generators.random_ring(signals, seed)
        register(CorpusEntry(
            name=stg.name,
            description=f"Random sequential transition ring over {signals} "
                        f"signals (seed {seed}): structural verdicts are "
                        "guaranteed by construction, coding verdicts vary.",
            source="random",
            expected={"consistent": True, "persistent": True,
                      "deadlock_free": True, "states": 2 * signals},
            family="random_ring", scale=seed,
            builder=(lambda signals=signals, seed=seed:
                     generators.random_ring(signals, seed)),
            **_interface(stg)))

    for seed in range(1, 7):
        rings = 2 + seed % 3
        stg = generators.random_parallel(rings, seed)
        register(CorpusEntry(
            name=stg.name,
            description=f"{rings} independent random rings running "
                        f"concurrently (seed {seed}): randomised "
                        "concurrency stress with an analytic state count.",
            source="random",
            expected={"consistent": True, "persistent": True,
                      "deadlock_free": True,
                      "states": generators.random_parallel_state_count(
                          rings, seed)},
            family="random_parallel", scale=seed,
            builder=(lambda rings=rings, seed=seed:
                     generators.random_parallel(rings, seed)),
            **_interface(stg)))


_register_random_entries()
