"""The library's records, and the cost of the import that defines them.

Every record keeps the contract it had as a dataclass: its field names and
order, positional and keyword construction, equality and hash by the tuple
of its fields (`RankResult` leaves out `treks`), a `Name(field=value, ...)`
repr, and no assignment to a field.  The records need neither `dataclasses`
nor `typing`, and `import treksep` loads every submodule without them.  The
library's arithmetic is on `int`s, so it loads no `fractions` (nor the
`decimal` that `fractions` pulls in) either.
"""

import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import treksep
from treksep import algebra
from treksep.algebra import ParamAssignment, RationalMatrix
from treksep.graph import MixedGraph
from treksep.separation import RankResult, SeparationTriple
from treksep.treks import Trek
from treksep.verify import SuiteConfig, SuiteReport

TRIPLE_FIELDS = (frozenset({1}), frozenset(), frozenset({4, 5}))
TRIPLE = SeparationTriple(*TRIPLE_FIELDS)

# (record, its fields in order, values, values that differ in the last field)
RECORDS = [
    (Trek, ("left", "middle_kind", "middle", "right"),
     ((1, 2), "undirected", (1, 3), (3,)), ((1, 2), "undirected", (1, 3), (3, 4))),
    (SeparationTriple, ("c_left", "c_mid", "c_right"),
     TRIPLE_FIELDS, (frozenset({1}), frozenset(), frozenset({4}))),
    (ParamAssignment, ("lam", "phi", "k"),
     ({(1, 2): 3}, {(2, 2): 7}, {}), ({(1, 2): 3}, {(2, 2): 7}, {(1, 1): 2})),
    (RationalMatrix, ("rows", "cols", "entries"),
     (1, 2, [[1, 3]]), (1, 2, [[1, 2]])),
    (SuiteConfig, ("seed", "max_vertices", "graph_count", "trials_per_instance"),
     (7, 5, 20, 3), (7, 5, 20, 4)),
    (SuiteReport, ("checks", "failures"),
     ({"probe": {"passes": 1, "failures": 0}}, []),
     ({"probe": {"passes": 1, "failures": 0}}, [{"check": "probe"}])),
    (MixedGraph, ("m", "u_set", "w_set", "directed_edges", "undirected_edges",
                  "bidirected_edges"),
     (3, frozenset({1, 2}), frozenset({3}), frozenset({(1, 3)}), frozenset({(1, 2)}),
      frozenset()),
     (3, frozenset({1, 2}), frozenset({3}), frozenset({(1, 3)}), frozenset({(1, 2)}),
      frozenset({(3, 3)}))),
]


@pytest.mark.parametrize("cls, fields, values, other", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_a_record_keeps_its_fields_equality_hash_repr_and_immutability(
        cls, fields, values, other):
    rec = cls(*values)
    assert cls(**dict(zip(fields, values))) == rec
    assert [getattr(rec, f) for f in fields] == list(values)
    if cls is not MixedGraph:
        assert cls._fields == fields
        assert list(cls.__annotations__) == list(fields)  # the body documents each field
    assert rec == cls(*values) and not rec != cls(*values)
    assert rec != cls(*other) and not rec == cls(*other)
    try:
        expected = hash(values)
    except TypeError:  # a dict or list field: as unhashable as the field tuple
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == expected
    assert repr(rec) == (f"{cls.__name__}("
                         + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")")
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, values[0])
    with pytest.raises(AttributeError):
        rec.added = 1
    assert [getattr(rec, f) for f in fields] == list(values)


def test_record_reprs_read_as_before():
    assert repr(Trek((1,), None, (1,), (1, 2))) \
        == "Trek(left=(1,), middle_kind=None, middle=(1,), right=(1, 2))"
    assert repr(SeparationTriple.of(cr=(4,))) == \
        "SeparationTriple(c_left=frozenset(), c_mid=frozenset(), c_right=frozenset({4}))"
    assert repr(RankResult(0, SeparationTriple(), 0)) == (
        "RankResult(rank=0, certificate=SeparationTriple(c_left=frozenset(), "
        "c_mid=frozenset(), c_right=frozenset()), flow_value=0, treks=())")
    assert repr(treksep.parse_graph("v 1\n")) == (
        "MixedGraph(m=1, u_set=frozenset(), w_set=frozenset({1}), "
        "directed_edges=frozenset(), undirected_edges=frozenset(), "
        "bidirected_edges=frozenset())")


def test_rank_results_compare_and_hash_without_their_treks():
    a = RankResult(2, TRIPLE, 2, (((1, 0), (4, 2)), ((2, 0), (5, 2))))
    b = RankResult(rank=2, certificate=TRIPLE, flow_value=2, treks=(((2, 0), (4, 2)),))
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash((2, TRIPLE, 2))
    assert len({a, b}) == 1
    assert a != RankResult(2, SeparationTriple.of(cl=(1, 2)), 2, a.treks)
    assert RankResult(2, TRIPLE, 2).treks == ()
    assert a.treks != b.treks


def test_record_defaults():
    assert SeparationTriple() == SeparationTriple.of() == (frozenset(),) * 3
    assert SuiteConfig() == SuiteConfig(31415, 6, 200, 5)
    assert SuiteConfig().trials_per_instance == algebra.DEFAULT_TRIALS == 5
    assert SuiteConfig.edge_density == SuiteConfig().edge_density == 0.4
    assert "edge_density" not in SuiteConfig._fields


def test_suite_config_refuses_positional_fields_too():
    # the checks run however the fields are given, `_replace` included;
    # keyword refusals are in test_verify.py
    for args, message in (((1, 3), "max_vertices must be at least 4"),
                          ((1, 6, 0), "graph_count must be at least 1"),
                          ((1, 16, 1978), "graph_count at max_vertices 16 must be at most 1977"),
                          ((1, 6, 200, 1001), "trials_per_instance must be at most 1000")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SuiteConfig(*args)
    with pytest.raises(TypeError):
        SuiteConfig(1, 6, 200, 5, 0.4)
    with pytest.raises(ValueError, match="^max_vertices must be at most 16$"):
        SuiteConfig()._replace(max_vertices=17)
    assert SuiteConfig()._replace(seed=1) == SuiteConfig(seed=1)


def test_a_graph_is_weakly_referable_and_immutable():
    g = treksep.parse_graph("v 3\ne 1 -> 2\ne 2 -> 3\n")
    assert weakref.ref(g)() is g
    with pytest.raises(AttributeError):
        del g.m
    with pytest.raises(AttributeError):
        g._child_lists = []
    assert g._child_lists == [[], [2], [3], []]  # the index still fills itself
    assert g == treksep.make_graph(3, directed=[(2, 3), (1, 2)])
    assert g != treksep.make_graph(3, directed=[(1, 2)])
    assert g != tuple(getattr(g, f) for f in RECORDS[-1][1])


_IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
HEAVY = ("dataclasses", "inspect", "typing", "fractions", "decimal")
import treksep
print([m for m in HEAVY if m in sys.modules])
print(sorted(m for m in sys.modules if m.startswith("treksep.")))
import treksep.cli
print([m for m in HEAVY if m in sys.modules])
"""


def test_import_treksep_needs_neither_dataclasses_nor_typing():
    # -S: no site module, which itself imports typing on some installs
    src = str(Path(treksep.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", _IMPORT_PROBE, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    heavy, loaded, heavy_with_cli = done.stdout.splitlines()
    assert heavy == heavy_with_cli == "[]"
    # every submodule loads with the package: none is deferred to first use
    for name in ("graph", "treks", "separation", "algebra", "verify", "instances"):
        assert f"'treksep.{name}'" in loaded
