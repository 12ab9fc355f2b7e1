"""The ``.g`` parser resolves each distinct graph token once per file.

A token's kind (transition or place) and its canonical transition name
are looked up again by every arc that mentions it and by the marking's
implicit places; the label is parsed only the first time.
"""

import re

import pytest

from repro import corpus
from repro.stg.parser import parse_g
from repro.stg.signals import SignalTransition
from repro.stg.writer import to_g_string


#: A signal-transition token of the ``.g`` format (``a+``, ``b-/2``).
TRANSITION = re.compile(r"[A-Za-z_][A-Za-z_0-9.\[\]]*[+-](/\d+)?")


def graph_transition_tokens(g_text):
    """The distinct transition tokens of a text's ``.graph`` section."""
    tokens = set()
    in_graph = False
    for line in g_text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("."):
            in_graph = line == ".graph"
        elif in_graph:
            tokens.update(token for token in line.split()
                          if TRANSITION.fullmatch(token))
    return tokens


@pytest.fixture
def parses(monkeypatch):
    parsed = []
    parse = SignalTransition.parse

    def counting(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(SignalTransition, "parse", staticmethod(counting))
    return parsed


@pytest.mark.parametrize("name", corpus.names())
def test_each_transition_token_is_parsed_once(name, parses):
    g_text = corpus.entry(name).g_text
    reference = to_g_string(parse_g(g_text, name=name))
    parses.clear()
    stg = parse_g(g_text, name=name)
    assert sorted(parses) == sorted(graph_transition_tokens(g_text))
    assert to_g_string(stg) == reference


def test_a_marking_outside_the_graph_tokens_is_still_parsed(parses):
    g_text = "\n".join([
        ".model indexed", ".inputs a", ".outputs b", ".graph",
        "a+/1 b+", "b+ a-", "a- b-", "b- a+/1",
        ".marking { <b-,a+> }", ".end", ""])
    stg = parse_g(g_text)
    # ``a+/1`` is parsed for the graph; ``b-`` and ``a+`` of the marking's
    # implicit place: ``b-`` is a graph token, ``a+`` is not.
    assert sorted(parses) == ["a+", "a+/1", "a-", "b+", "b-"]
    assert stg.net.place("<b-,a+>").initial_tokens == 1
