"""The brute-force searches that one shared disjoint-system search replaced.

`exists_noncrossing_system`, `has_sided_intersection` (with
`_middle_tokens`), `gvl_minor_two_ways` (with `_perm_sign`) and
`undirected_minor_check` as they stood when each wrote its own capped
backtracking search, copied verbatim apart from the `_reference` suffix, so
that the differential tests compare the library's answers, cap outcomes
included, against the code it replaced.  The library no longer searches for
trek systems: `min_t_separator` returns one with its separator, and the
tests hold its rank against `exists_noncrossing_system_reference`.
`TrekSystem` stands in for the library class of that name, which
`has_sided_intersection_reference` reads.  `_undirected_middles` now lists
only the paths from the starts it is given, which are the rows here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Tuple

from treksep.algebra import (ParamAssignment, _path_weight, build_covariance,
                             lambda_inverse, submatrix_for)
from treksep.graph import DAG, UNDIRECTED, MixedGraph, graph_class
from treksep.treks import (DEFAULT_CAP, MIDDLE_BIDIRECTED, CapExceededError,
                           Trek, _directed_paths_into, _undirected_middles,
                           enumerate_simple_treks)


@dataclass(frozen=True)
class TrekSystem:
    """Treks joining distinct A-vertices to distinct B-vertices."""

    treks: Tuple[Trek, ...]


def _middle_tokens_reference(t: Trek):
    # A bidirected middle behaves like its subdivision vertex: two bidirected
    # middles intersect only when they are the same edge, and never intersect
    # a vertex-valued middle.
    if t.middle_kind == MIDDLE_BIDIRECTED:
        return frozenset({("edge",) + tuple(sorted(t.middle))})
    return frozenset(t.middle)


def has_sided_intersection_reference(sys: TrekSystem) -> bool:
    """Two treks sharing a vertex on the same side (left, middle or right)."""
    treks = sys.treks
    lefts = [frozenset(t.left) for t in treks]
    mids = [_middle_tokens_reference(t) for t in treks]
    rights = [frozenset(t.right) for t in treks]
    for a in range(len(treks)):
        for b in range(a + 1, len(treks)):
            if lefts[a] & lefts[b] or mids[a] & mids[b] or rights[a] & rights[b]:
                return True
    return False


def exists_noncrossing_system_reference(g: MixedGraph, A, B, r: int,
                              cap: int = DEFAULT_CAP) -> bool:
    """Brute-force search for r treks from A to B with no sided intersection."""
    A = sorted(set(A))
    B = sorted(set(B))
    if r < 1:
        raise ValueError("r must be positive")
    if r > min(len(A), len(B)):
        raise ValueError("r exceeds min(#A, #B)")

    table = {}
    for a in A:
        for b in B:
            table[(a, b)] = enumerate_simple_treks(g, a, b, cap)

    from itertools import combinations

    budget = [cap]

    def extend(chosen_a, k, free_b, used_l, used_m, used_r):
        if k == r:
            return True
        a = chosen_a[k]
        for b in free_b:
            for t in table[(a, b)]:
                budget[0] -= 1
                if budget[0] < 0:
                    raise CapExceededError(cap)
                lv, mv, rv = frozenset(t.left), _middle_tokens_reference(t), frozenset(t.right)
                if lv & used_l or mv & used_m or rv & used_r:
                    continue
                if extend(chosen_a, k + 1, [x for x in free_b if x != b],
                          used_l | lv, used_m | mv, used_r | rv):
                    return True
        return False

    for chosen_a in combinations(A, r):
        if extend(chosen_a, 0, B, frozenset(), frozenset(), frozenset()):
            return True
    return False


def _perm_sign_reference(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def gvl_minor_two_ways_reference(g: MixedGraph, p: ParamAssignment, R, S,
                       cap: int = DEFAULT_CAP) -> Tuple[Fraction, Fraction]:
    """Minor of Lambda^{-1} two ways: exact determinant vs the signed sum
    over vertex-disjoint directed path systems from R to S."""
    if graph_class(g) != DAG:
        raise ValueError("path-determinant expansion is defined for DAGs")
    Rs, Ss = sorted(set(R)), sorted(set(S))
    if len(Rs) != len(Ss):
        raise ValueError("R and S must have equal size")
    det_side = submatrix_for(lambda_inverse(g, p), Rs, Ss).det()

    into = {s: _directed_paths_into(g, s) for s in Ss}
    paths = {(r, s): into[s].get(r, []) for r in Rs for s in Ss}
    ell = len(Rs)
    total = Fraction(0)
    budget = [cap]

    def extend(perm, k, used, acc):
        nonlocal total
        if k == ell:
            total += _perm_sign_reference(perm) * acc
            return
        for path in paths[(Rs[k], Ss[perm[k]])]:
            budget[0] -= 1
            if budget[0] < 0:
                raise CapExceededError(cap)
            pv = set(path)
            if pv & used:
                continue
            extend(perm, k + 1, used | pv, acc * _path_weight(p, path))

    for perm in permutations(range(ell)):
        extend(perm, 0, set(), Fraction(1))
    return det_side, total


def undirected_minor_check_reference(g: MixedGraph, p: ParamAssignment, A, B,
                           cap: int = DEFAULT_CAP) -> Tuple[Fraction, bool]:
    """Exact minor of Sigma = K^{-1} plus a combinatorial zero/nonzero verdict.

    The verdict is True iff there is a system of #A vertex-disjoint paths
    from A to B in the doubling of the undirected graph, which by the
    path-determinant expansion decides generic vanishing of the minor.
    """
    if graph_class(g) != UNDIRECTED:
        raise ValueError("expects a purely undirected graph")
    As, Bs = sorted(set(A)), sorted(set(B))
    if len(As) != len(Bs):
        raise ValueError("A and B must have equal size")
    sigma = build_covariance(g, p)
    minor = submatrix_for(sigma, As, Bs).det()

    middles = _undirected_middles(g, As)
    paths = {(a, b): [(a,)] if a == b else middles.get((a, b), [])
             for a in As for b in Bs}
    ell = len(As)
    budget = [cap]

    def extend(perm, k, used):
        if k == ell:
            return True
        for path in paths[(As[k], Bs[perm[k]])]:
            budget[0] -= 1
            if budget[0] < 0:
                raise CapExceededError(cap)
            pv = set(path)
            if pv & used:
                continue
            if extend(perm, k + 1, used | pv):
                return True
        return False

    verdict = any(extend(perm, 0, set()) for perm in permutations(range(ell)))
    return minor, verdict
