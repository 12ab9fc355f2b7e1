"""Seeded workload inputs and the independent references they are checked against.

Every input is a pure function of the benchmark seed, so the same seed
gives byte-identical specifications.  The references never come from a
verification run: they are the registry's pinned ``expected`` metadata,
closed-form state counts of the generator families, and liveness facts
that hold by construction (every family below is a cyclic handshake).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro import corpus
from repro.api import default_checks
from repro.stg.generators import (
    build_example,
    random_parallel_family,
    random_parallel_ring_sizes,
    random_parallel_state_count,
    random_ring_family,
)
from repro.stg.parser import parse_g
from repro.stg.stg import SignalKind
from repro.stg.writer import to_g_string

#: Every check the symbolic engine runs under ``checks=ALL``.
ALL_CHECKS = ("consistency", "safeness", "persistency", "fake_conflicts",
              "csc", "reducibility", "liveness")
DEFAULT_CHECKS = tuple(default_checks())

# Report field of each expected key, and the check that must have run
# for the field to be decided.  ``states`` comes from the traversal,
# which every check selection runs.
_FIELDS = {"consistent": ("consistent", "consistency"),
           "persistent": ("output_persistent", "persistency"),
           "csc": ("csc", "csc"),
           "usc": ("usc", "csc"),
           "deadlock_free": ("deadlock_free", "liveness"),
           "reversible": ("reversible", "liveness"),
           "states": ("num_states", None),
           "classification": ("classification", "reducibility")}


@dataclass(frozen=True)
class Spec:
    """One specification to verify, with its reference verdicts."""

    name: str
    g_text: str
    expected: Mapping[str, object]
    arbitration: Tuple[str, ...] = ()
    checks: Tuple[str, ...] = ALL_CHECKS


def problems(report: Mapping[str, object], spec: Spec) -> List[str]:
    """Differences between a report dict and the spec's references."""
    found = []
    for key, wanted in spec.expected.items():
        field_name, needs = _FIELDS[key]
        if needs is not None and needs not in spec.checks:
            continue
        observed = report.get(field_name)
        if key == "classification":
            same = str(observed) == str(wanted)
        else:
            same = observed == wanted
        if not same:
            found.append(f"{spec.name}: {key} expected {wanted!r}, "
                         f"observed {observed!r}")
    return found


def _family_spec(family: str, scale: int, checks: Tuple[str, ...],
                 **extra) -> Spec:
    stg, arbitration = corpus.family(family).instantiate(scale)
    expected = dict(corpus.family(family).expected)
    expected.update(extra)
    return Spec(name=f"{family}@{scale}", g_text=to_g_string(stg),
                expected=expected, arbitration=tuple(arbitration),
                checks=checks)


# ----------------------------------------------------------------------
# scale_allchecks
# ----------------------------------------------------------------------
#: The three large family instances.  Fixed scales: one scale step costs
#: about 1.5x (muller_pipeline) to 2x (master_read), so a seeded scale
#: would make ``specs_per_s`` a function of the seed, not of the code.
#: The seed orders each pass instead.
SCALES = (("muller_pipeline", 14), ("parallel_handshakes", 12),
          ("master_read", 8))


def scale_specs() -> List[Spec]:
    specs = []
    for family, scale in SCALES:
        extra = {"deadlock_free": True, "reversible": True}
        if family == "parallel_handshakes":
            extra["states"] = 4 ** scale  # independent 4-state cycles
        specs.append(_family_spec(family, scale, ALL_CHECKS, **extra))
    return specs


def pass_order(specs: Sequence[Spec], rng: random.Random) -> List[Spec]:
    order = list(specs)
    rng.shuffle(order)
    return order


# ----------------------------------------------------------------------
# corpus_sweep
# ----------------------------------------------------------------------
#: Seeded family draws per random family (on top of the whole corpus).
FAMILY_DRAWS = 20


def ring_shape(scale: int) -> int:
    """What fixes a ``random_ring`` draw's size: 3 + scale % 6 signals."""
    return scale % 6


def parallel_shape(scale: int) -> List[int]:
    """What fixes a ``random_parallel`` draw's size: its ring sizes."""
    return sorted(random_parallel_ring_sizes(2 + scale % 3, scale))


def same_shape(shape, template: int, candidates) -> int:
    """The first candidate scale shaped like ``template``."""
    wanted = shape(template)
    return next(scale for scale in candidates if shape(scale) == wanted)


def family_draws(seed: int) -> Tuple[List[int], List[int]]:
    """Distinct ``random_ring`` / ``random_parallel`` scales for a seed.

    Every seed draws the same shapes as the template scales 13..32 but
    different instances of them (other transition interleavings and
    interfaces), so the sweep's work hardly depends on the seed.  Scales
    start above the corpus' own random seeds (1..12), so no draw
    duplicates a registered entry.
    """
    rng = random.Random(seed)
    templates = range(13, 13 + FAMILY_DRAWS)
    used = set(templates)

    def fresh():
        while True:
            scale = rng.randrange(13, 1_000_000)
            if scale not in used:
                yield scale

    draws = []
    for shape in (ring_shape, parallel_shape):
        scales = []
        for template in templates:
            scales.append(same_shape(shape, template, fresh()))
            used.add(scales[-1])
        draws.append(sorted(scales))
    return draws[0], draws[1]


def ring_expected(scale: int) -> Dict[str, object]:
    # random_ring_family(scale) is a ring over 3 + scale % 6 signals,
    # which visits exactly two states per signal.
    return {"states": 2 * (3 + scale % 6)}


def parallel_expected(scale: int) -> Dict[str, object]:
    return {"states": random_parallel_state_count(2 + scale % 3, scale)}


def corpus_references(seed: int) -> Dict[str, Spec]:
    """Reference spec of every sweep task, keyed by task name."""
    refs = {}
    for name in corpus.names():
        entry = corpus.entry(name)
        refs[name] = Spec(name=name, g_text=entry.g_text,
                          expected=dict(entry.expected),
                          arbitration=tuple(entry.arbitration_places),
                          checks=DEFAULT_CHECKS)
    rings, parallels = family_draws(seed)
    for family, scales, extra in (("random_ring", rings, ring_expected),
                                  ("random_parallel", parallels,
                                   parallel_expected)):
        for scale in scales:
            spec = _family_spec(family, scale, DEFAULT_CHECKS,
                                **extra(scale))
            refs[spec.name] = spec
    return refs


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
#: Request classes per client, as blocks whose order the seed shuffles:
#: every ten requests hold exactly these classes.  Client 0 is an editor
#: (its own sequential edit loop, so delta traversals never overlap and
#: the daemon's peak memory does not depend on timing); client 1 checks
#: corpus entries and fresh specs.  Warm hits are the cheapest class and
#: deltas the dearest; about 30% of answers are warm, 55% cold and 15%
#: delta, so the mix p50 falls inside the cold class and the p95 inside
#: the delta class, away from class boundaries.
CLASS_BLOCKS = (("delta",) * 4 + ("cold",) * 3 + ("warm",) * 3,
                ("cold",) * 7 + ("warm",) * 3)
#: Scale stride of the cold specs: request ``n`` draws its scale from
#: ``[n * COLD_STRIDE, (n + 1) * COLD_STRIDE)``, so no two repeat.
COLD_STRIDE = 10_007
WARM_ENTRIES = 12
BASE_FAMILY, BASE_SCALE = "muller_pipeline", 14
BASE_NAME = "bench-base"
DELTA_CHECKS = ("csc",)
CLIENTS = 2


@dataclass
class Request:
    """One planned serve request (``kind`` is warm, cold or delta)."""

    kind: str
    spec: Spec
    base: Optional[str] = None


@dataclass
class ServeInputs:
    seed: int
    warm: List[Spec]
    base: Spec

    def requests(self, client: int) -> Iterator[Request]:
        """The endless, seed-determined request sequence of ``client``."""
        rng = random.Random(self.seed * 7919 + client)
        index = 0
        while True:
            for kind in rng.sample(CLASS_BLOCKS[client],
                                   len(CLASS_BLOCKS[client])):
                unique = index * CLIENTS + client  # disjoint across clients
                index += 1
                if kind == "warm":
                    yield Request("warm", rng.choice(self.warm))
                elif kind == "cold":
                    yield Request("cold", self.cold(unique, index))
                else:
                    yield Request("delta", self.edit(unique), base=BASE_NAME)

    def cold(self, unique: int, index: int) -> Spec:
        """A fresh random specification never sent before in this run.

        The ``index``-th request of a client alternates the two random
        families and cycles through the ``family_draws`` template shapes,
        so every seed sends the same sizes.
        """
        template = 13 + (index // 2) % FAMILY_DRAWS
        offsets = random.Random(self.seed * 1_000_003 + unique).sample(
            range(COLD_STRIDE), COLD_STRIDE)
        candidates = (unique * COLD_STRIDE + offset for offset in offsets)
        if index % 2:
            scale = same_shape(parallel_shape, template, candidates)
            stg, expected = (random_parallel_family(scale),
                             parallel_expected(scale))
        else:
            scale = same_shape(ring_shape, template, candidates)
            stg, expected = random_ring_family(scale), ring_expected(scale)
        expected.update(consistent=True, persistent=True,
                        deadlock_free=True)
        return Spec(name=stg.name, g_text=to_g_string(stg),
                    expected=expected, checks=ALL_CHECKS)

    def edit(self, unique: int) -> Spec:
        """A one-signal edit of the base: a disconnected internal cycle.

        The edit keeps the base's ``.model`` name and only adds places,
        transitions and a signal -- the monotone shape the delta
        classifier seeds from the base's reachable set.
        """
        stg = parse_g(self.base.g_text)
        signal = f"e{unique}"
        rising, falling = f"{signal}+", f"{signal}-"
        p0, p1 = f"p_{signal}0", f"p_{signal}1"
        stg.add_signal(signal, SignalKind.INTERNAL, initial_value=False)
        stg.add_place(p0, tokens=1)
        stg.add_place(p1)
        stg.add_transition(rising)
        stg.add_transition(falling)
        for arc in ((p0, rising), (rising, p1), (p1, falling),
                    (falling, p0)):
            stg.add_arc(*arc)
        # The added cycle is independent of the base, so the edit has
        # exactly twice the base's states; serve code checks that
        # against the base reply.
        return Spec(name=f"bench-edit-{unique}", g_text=to_g_string(stg),
                    expected={"csc": True}, checks=DELTA_CHECKS)


def serve_inputs(seed: int) -> ServeInputs:
    rng = random.Random(seed)
    names = rng.sample(corpus.names(), WARM_ENTRIES)
    warm = []
    for name in names:
        entry = corpus.entry(name)
        warm.append(Spec(name=name, g_text=entry.g_text,
                         expected=dict(entry.expected),
                         arbitration=tuple(entry.arbitration_places)))
    base_text = to_g_string(build_example(BASE_FAMILY, BASE_SCALE))
    base = Spec(name=BASE_NAME, g_text=base_text, expected={"csc": True},
                checks=DELTA_CHECKS)
    return ServeInputs(seed=seed, warm=warm, base=base)
