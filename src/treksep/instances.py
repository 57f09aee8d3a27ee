"""Canonical small instances used in docs, tests and the verification suite."""

from __future__ import annotations

from .graph import MixedGraph, parse_graph

CHOKE_TEXT = """\
v 5
e 1 -> 2
e 1 -> 3
e 2 -> 4
e 3 -> 4
e 4 -> 5
"""

CHOKE_A = frozenset({1, 3})
CHOKE_B = frozenset({4, 5})

SPIDER_TEXT = """\
v 7
e 7 -> 1
e 7 -> 2
e 3 -> 7
e 7 -> 4
e 7 -> 5
e 6 -> 7
"""

SPIDER_A = frozenset({1, 2, 3})
SPIDER_B = frozenset({4, 5, 6})


def choke_graph() -> MixedGraph:
    """Five-vertex DAG where every trek from {1,3} to {4,5} passes vertex 4."""
    return parse_graph(CHOKE_TEXT)


def spider_graph() -> MixedGraph:
    """Hub-and-spoke DAG: hub 7 between legs {1,2,3} and {4,5,6}."""
    return parse_graph(SPIDER_TEXT)
