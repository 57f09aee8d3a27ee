"""Acceptance gate: the ten headline checks, one test (and one line) each.

Everything is deterministic given the default suite seed.  Exact rational
equality throughout; the rank cross-checks demand 100% agreement between
the min-cut pipeline and the algebraic oracle.  The last test runs the
criteria at a small configuration, and the tests of the library's input and
invariant checks, under `python -O`, which strips `assert` statements.
"""

import os
import subprocess
import sys
from pathlib import Path

from treksep import verify
from treksep.verify import SuiteConfig

CFG = SuiteConfig()  # seed 31415, 200 graphs, n <= 6, density 0.4, 5 trials


def _report(criterion):
    result = criterion(CFG)
    line = (f"{'PASS' if result.ok else 'FAIL'} {result.name}: "
            f"{result.passes} passed, {len(result.failures)} failed")
    print(line)
    assert result.ok, f"{line}\nfirst failure: {result.failures[:1]}"


def test_criterion_01_trek_rule_identity():
    # trek rule == simple trek rule == covariance entry on 200 random DAGs
    _report(verify.criterion_trek_rule)


def test_criterion_02_gvl_identity():
    # det of Lambda^{-1} minors == signed disjoint-path-system sums
    _report(verify.criterion_gvl)


def test_criterion_03_cauchy_binet():
    # det Sigma_{A,B} == phi_S-weighted expansion over column subsets
    _report(verify.criterion_cauchy_binet)


def test_criterion_04_rank_directed():
    # min-cut rank == oracle rank on 200 random DAGs, 100% agreement
    _report(verify.criterion_rank_directed)


def test_criterion_05_rank_undirected():
    # min vertex separator == oracle rank of K^{-1} blocks, 100% agreement
    _report(verify.criterion_rank_undirected)


def test_criterion_06_rank_mixed():
    # mixed graphs through the bidirected subdivision, 100% agreement
    _report(verify.criterion_rank_mixed)


def test_criterion_07_subdivision_invariance():
    # rank unchanged by subdividing bidirected edges, both pipelines
    _report(verify.criterion_subdivision)


def test_criterion_08_dsep_equivalence():
    # d-separation == partitioned t-separation == rank test, exhaustively
    _report(verify.criterion_dsep_equivalence)


def test_criterion_09_canonical_instances():
    # choke: rank 1 with vertex 4 on the right; spider: rank 2, hub triple
    # separates; choke tetrad certificate found
    _report(verify.criterion_canonical)


def test_criterion_10_menger_duality():
    # flow value == certificate size, certificate separating and minimal,
    # on every instance seen by criteria 4-6
    _report(verify.criterion_menger)


_OPTIMIZED_GATE = """
import sys
import pytest
from treksep import verify
report = verify.run_suite(verify.SuiteConfig(graph_count=20, max_vertices=5))
print("optimize", sys.flags.optimize, "checks", len(report.checks),
      "failures", report.total_failures, flush=True)
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""

# The tests of the checks the library raises on bad input or a broken invariant.
_INVARIANT_MODULES = ("test_graph.py", "test_separation.py", "test_treks.py", "test_verify.py")


def test_gate_and_invariant_tests_pass_under_python_O(tmp_path):
    tests = Path(__file__).resolve().parent
    src = str(Path(verify.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_GATE,
                           *(str(tests / name) for name in _INVARIANT_MODULES)],
                          capture_output=True, text=True, timeout=300, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr
    assert done.stdout.splitlines()[0] == "optimize 1 checks 10 failures 0"
