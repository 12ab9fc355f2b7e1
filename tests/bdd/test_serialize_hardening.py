"""Serialisation hardening: header rejection and corpus-scale round trips.

The format must fail *loudly and clearly* on anything that is not a
well-formed ``bdd-serialized 1`` stream (unknown headers, future format
versions, truncated node lines) -- a confusing downstream parse failure
inside a cache load is how corrupt stores silently eat sweeps.  The
round-trip tests run on real corpus reachable sets: loading must rebuild
the exact canonical structure, preserving sharing and node counts.
"""

import pytest

from repro import corpus
from repro.bdd import BDDError
from repro.core.pipeline import VerificationPipeline
from repro.stg.parser import parse_g

from tests.bdd.serialize_text import dumps, loads


class TestHeaderRejection:
    def test_empty_stream(self):
        with pytest.raises(BDDError, match="empty stream"):
            loads("")

    def test_unrelated_header(self):
        with pytest.raises(BDDError, match="not a bdd-serialized stream"):
            loads("hello world\n")

    def test_future_format_version(self):
        with pytest.raises(BDDError,
                           match="unsupported bdd-serialized format "
                                 "version '99'"):
            loads("bdd-serialized 99\nvars a\nroots 1\nroot 1\n")

    def test_json_garbage_is_not_a_parse_crash(self):
        with pytest.raises(BDDError):
            loads('{"vars": ["a"]}\n')

    def test_malformed_node_ids_raise_bdd_error(self):
        text = ("bdd-serialized 1\nvars a\nroots 1\n"
                "node two a 0 1\nroot 2\n")
        with pytest.raises(BDDError, match="malformed node line"):
            loads(text)

    def test_malformed_root_line_raises_bdd_error(self):
        text = ("bdd-serialized 1\nvars a\nroots 1\n"
                "node 2 a 0 1\nroot x\n")
        with pytest.raises(BDDError, match="malformed root line"):
            loads(text)

    def test_unknown_child_reference(self):
        text = ("bdd-serialized 1\nvars a\nroots 1\n"
                "node 5 a 0 9\nroot 5\n")
        with pytest.raises(BDDError, match="unknown child"):
            loads(text)


def reachable_of(name: str):
    entry = corpus.entry(name)
    stg = parse_g(entry.g_text, name=name)
    pipeline = VerificationPipeline(stg)
    return pipeline, pipeline.reached


@pytest.mark.parametrize("name", ["vme_read", "master_read_2",
                                  "muller_pipeline_4", "mutex3"])
class TestCorpusRoundTrips:
    def test_round_trip_preserves_semantics_and_node_count(self, name):
        pipeline, reached = reachable_of(name)
        text = dumps([reached])
        manager, roots = loads(text)
        assert len(roots) == 1
        loaded = roots[0]
        # Same variable order -> identical canonical structure.
        assert manager.variables == pipeline.encoding.manager.variables
        assert loaded.size() == reached.size()
        care = pipeline.encoding.all_variables
        assert loaded.sat_count(care) == reached.sat_count(care)

    def test_round_trip_into_existing_manager_is_identity(self, name):
        pipeline, reached = reachable_of(name)
        text = dumps([reached])
        _, roots = loads(text,
                                   manager=pipeline.encoding.manager)
        # Canonicity in one manager: the loaded root IS the original.
        assert roots[0].node == reached.node


class TestSharingPreserved:
    def test_shared_structure_serialises_once(self):
        pipeline, reached = reachable_of("master_read_2")
        encoding = pipeline.encoding
        # Two overlapping slices of the reachable set share most nodes.
        variable = encoding.all_variables[0]
        part = reached.cofactor({variable: True})
        text = dumps([reached, part])
        node_lines = [line for line in text.splitlines()
                      if line.startswith("node ")]
        # Sharing: emitting both costs less than the sum of their sizes.
        internal = (reached.size() - 2) + (part.size() - 2)
        assert len(node_lines) < internal
        manager, roots = loads(text)
        shared = (set(manager.descendants(roots[0].node))
                  | set(manager.descendants(roots[1].node)))
        assert len(shared) == len(node_lines) + 2
        care = encoding.all_variables
        assert roots[0].sat_count(care) == reached.sat_count(care)
        assert roots[1].sat_count(care) == part.sat_count(care)
