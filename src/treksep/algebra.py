"""Exact algebra: the generic rank oracle and the trek-rule identities.

`generic_rank_oracle` works over F_p, p = PRIME = 2^61 - 1, and touches
only what Sigma_{A,B} depends on: the columns of Lambda^{-1} over the
ancestors of A and B, each summed by a walk of an(v) that lists every
vertex before its parents (`graph._ancestor_walk`), and the blocks of K on
the components U' of the undirected graph on U that meet both an(A) and
an(B) (`_kept_components`).  It never solves K: Sigma_{A,B} is the Schur
complement of K_{U'} in a sparse matrix N', so each trial ranks N' mod
PRIME and subtracts |U'|.  A trial keys every entry of N' that can be
nonzero, so each call plans the sparse elimination once (`_plan`, no fill
lists) from its first trial's rows; each trial draws its parameters
(`_draws`), fills N' and runs the planned steps (`_eliminate`), which hand
the rows left after a pivot that vanishes mod PRIME to a plan made from
their own entries.  Its error is one-sided (see its docstring).
The identities (trek rule, simple trek rule, path determinants,
Cauchy-Binet, the subdivision translation) demand exact rational equality,
so they run over `fractions.Fraction`, on large random integer parameters.
No floating point is involved anywhere.

Over Q, rank, det and inverse share one Gauss-Jordan, `_gauss_jordan`.  The
simple trek rule reads a_v = sigma_vv off the covariance it is given, and
the path-system sides of the determinant expansions come from
`treks._disjoint_systems`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Mapping, Tuple

from .graph import (DAG, UNDIRECTED, MixedGraph, _ancestor_walk, _require_vertices,
                    graph_class, topological_order)
from .treks import (DEFAULT_CAP, _directed_paths_into, _disjoint_systems,
                    _undirected_middles, enumerate_simple_treks)

SCALE = 10**6
PRIME = 2**61 - 1


class SingularMatrixError(ArithmeticError):
    pass


@dataclass
class RationalMatrix:
    """Dense matrix over arbitrary-precision rationals (0-based indexing)."""

    rows: int
    cols: int
    entries: List[List[Fraction]]

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[Fraction(0)] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n, n)
        for i in range(n):
            m.entries[i][i] = Fraction(1)
        return m

    @classmethod
    def from_rows(cls, rows):
        rows = [[Fraction(x) for x in row] for row in rows]
        cols = len(rows[0]) if rows else 0
        for i, row in enumerate(rows):
            if len(row) != cols:
                raise ValueError(f"row {i} has {len(row)} entries, row 0 has {cols}")
        return cls(len(rows), cols, rows)

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]

    def transpose(self):
        return RationalMatrix(self.cols, self.rows,
                              [[self.entries[i][j] for i in range(self.rows)]
                               for j in range(self.cols)])

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply a {self.rows}x{self.cols} matrix "
                             f"by a {other.rows}x{other.cols} matrix")
        out = RationalMatrix.zeros(self.rows, other.cols)
        for i in range(self.rows):
            row = self.entries[i]
            for k in range(self.cols):
                a = row[k]
                if a:
                    ok = other.entries[k]
                    orow = out.entries[i]
                    for j in range(other.cols):
                        if ok[j]:
                            orow[j] += a * ok[j]
        return out

    def submatrix(self, row_idx, col_idx) -> "RationalMatrix":
        return RationalMatrix.from_rows(
            [[self.entries[i][j] for j in col_idx] for i in row_idx])

    def _side(self) -> int:
        if self.rows != self.cols:
            raise ValueError(f"a {self.rows}x{self.cols} matrix is not square")
        return self.rows

    def rank(self) -> int:
        return _gauss_jordan([row[:] for row in self.entries], self.cols)[0]

    def det(self) -> Fraction:
        return _gauss_jordan([row[:] for row in self.entries], self._side())[1]

    def inverse(self) -> "RationalMatrix":
        n = self._side()
        a = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
             for i, row in enumerate(self.entries)]
        if _gauss_jordan(a, n)[0] < n:
            raise SingularMatrixError("matrix is singular")
        return RationalMatrix.from_rows([row[n:] for row in a])


def _gauss_jordan(rows: List[List[Fraction]], width: int) -> Tuple[int, Fraction]:
    """Exact Gauss-Jordan on the first `width` columns of rows, in place.

    Returns (rank, det): det is the determinant when the rows form a
    width x width matrix of full rank, and 0 otherwise.  Columns past
    `width` are carried along, so [M | I] reduces to [I | M^{-1}].
    """
    rank = 0
    det = Fraction(1)
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        pv = rows[rank][col]
        det *= pv
        # Left of col the pivot row is zero, so only its tail is touched.
        tail = [x / pv for x in rows[rank][col:]]
        rows[rank][col:] = tail
        for r, row in enumerate(rows):
            f = row[col]
            if r != rank and f:
                row[col:] = [x - f * y for x, y in zip(row[col:], tail)]
        rank += 1
    return rank, det if rank == len(rows) == width else Fraction(0)


def submatrix_for(matrix: RationalMatrix, A, B) -> RationalMatrix:
    """Covariance block with sorted vertex rows A and columns B (1-based ids)."""
    return matrix.submatrix([a - 1 for a in sorted(A)], [b - 1 for b in sorted(B)])


@dataclass(frozen=True)
class ParamAssignment:
    """Exact rational parameters respecting the graph's sparsity pattern.

    `lam` maps directed edges (i, j) to entries of L (so Lambda = I - L),
    `phi` is the symmetric W-block keyed by (min, max) pairs including the
    diagonal, and `k` is the symmetric U-block in the same convention.
    """

    lam: Mapping[Tuple[int, int], Fraction]
    phi: Mapping[Tuple[int, int], Fraction]
    k: Mapping[Tuple[int, int], Fraction]


def sample_parameters(g: MixedGraph, seed: int) -> ParamAssignment:
    """Deterministic generic integer parameters.

    Off-diagonal entries are nonzero integers in [-SCALE, SCALE]; diagonals
    are 1 + (row absolute sum) + a random integer in [1, SCALE], which makes
    Phi and K diagonally dominant (hence positive definite) while keeping the
    diagonal itself generic.
    """
    rng = random.Random(seed)

    def signed():
        return rng.choice((-1, 1)) * rng.randint(1, SCALE)

    lam = {e: Fraction(signed()) for e in sorted(g.directed_edges)}

    def symmetric_block(vertices, edges):
        block = {}
        for i, j in sorted(edges):
            block[(i, j)] = Fraction(signed())
        for v in sorted(vertices):
            row = sum(abs(val) for (i, j), val in block.items() if v in (i, j))
            block[(v, v)] = Fraction(1 + row + rng.randint(1, SCALE))
        return block

    phi = symmetric_block(g.w_set, g.bidirected_edges)
    k = symmetric_block(g.u_set, g.undirected_edges)
    return ParamAssignment(lam=lam, phi=phi, k=k)


def lambda_inverse(g: MixedGraph, p: ParamAssignment) -> RationalMatrix:
    """Exact inverse of Lambda = I - L by the path recurrence in topological order."""
    n = g.m
    inv = RationalMatrix.identity(n)
    for j in topological_order(g):
        for par in g._parent_lists.get(j, ()):
            lam = p.lam[(par, j)]
            for i in range(n):
                v = inv.entries[i][par - 1]
                if v:
                    inv.entries[i][j - 1] += v * lam
    return inv


def _symmetric_matrix(block, vertices):
    vs = sorted(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    m = RationalMatrix.zeros(len(vs), len(vs))
    for (i, j), val in block.items():
        m.entries[pos[i]][pos[j]] = val
        m.entries[pos[j]][pos[i]] = val
    return m, vs


def build_covariance(g: MixedGraph, p: ParamAssignment) -> RationalMatrix:
    """Exact covariance from the factorization Sigma = Lambda^{-T} (K^{-1} (+) Phi) Lambda^{-1}."""
    n = g.m
    inner = RationalMatrix.zeros(n, n)
    if g.u_set:
        kmat, u_vs = _symmetric_matrix(p.k, g.u_set)
        try:
            kinv = kmat.inverse()
        except SingularMatrixError:
            raise SingularMatrixError("K is singular") from None
        for a, va in enumerate(u_vs):
            for b, vb in enumerate(u_vs):
                inner.entries[va - 1][vb - 1] = kinv.entries[a][b]
    for (i, j), val in p.phi.items():
        inner.entries[i - 1][j - 1] = val
        inner.entries[j - 1][i - 1] = val
    lam_inv = lambda_inverse(g, p)
    return lam_inv.transpose().matmul(inner).matmul(lam_inv)


def generic_rank_oracle(g: MixedGraph, A, B, seed: int, trials: int = 5) -> int:
    """Generic rank of Sigma_{A,B}: the largest rank mod PRIME over `trials`
    models whose parameters are drawn uniformly from 1..PRIME-1.

    With X = Lambda^{-1}, Sigma_{A,B} = X_{U,A}^T K^{-1} X_{U,B} +
    X_{W,A}^T Phi X_{W,B}, the Schur complement of K in

        N = [[K, X_{U,B}], [-X_{U,A}^T, X_{W,A}^T Phi X_{W,B}]],

    so rank Sigma_{A,B} = rank N - |U| (Guttman's rank additivity) and K is
    never solved.  Column v of X sums the directed paths into v, so it
    vanishes outside an(v): it is computed by a sweep over an(v) alone, in
    the order of `graph._ancestor_walk` (v first, each vertex before its
    parents), that pushes each entry up to the parents of its vertex.  Entry
    (a, b) of the last block sums over the i in an(a) where column b of
    Phi X can be nonzero: i in an(b) & W, or i a bidirected neighbour of
    such a vertex.

    K is block diagonal over the components of the undirected graph on U,
    and only the components U' that meet both an(A) and an(B) are kept.  A
    component Q that misses an(B) has X_{Q,B} = 0, so its rows of N are
    [K_Q | 0]; when K_Q is nonsingular they clear Q's columns in the A rows,
    and rank N = |Q| + rank(N without Q's rows and columns).  A component
    that misses an(A) is the same on columns.  So rank Sigma_{A,B} =
    rank N' - |U'|, with N' the N of K_{U'}.  Every parameter is still
    drawn, those of dropped blocks included, so every entry of N' keeps its
    value.

    The sorted edge lists, the walks and U' are built once per call.  A
    trial draws its parameters and fills N' as dict rows that key every
    entry that can be nonzero, whatever its value, so the first trial's keys
    are the pattern of N': the elimination is planned from them once
    (`_plan`, no fill lists), and each trial runs the planned steps
    (`_eliminate`).  A pivot that vanishes mod PRIME hands the rows left to
    a plan made from their own entries, so every trial's answer is the
    exact rank of N' mod PRIME, less |U'|.

    The entries of N' are polynomials in the parameters, its generic rank is
    |U'| + rk Sigma_{A,B}, so no trial exceeds the generic rank, even when
    a block of K is singular mod PRIME, and by Schwartz-Zippel a trial falls
    short with probability at most deg/PRIME.  Trials stop once the rank is
    min(|A|, |B|), which no trial can exceed.  A vertex outside 1..m, or
    fewer than one trial, raises ValueError; an empty A or B answers 0.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    p = PRIME
    A, B = set(A), set(B)
    _require_vertices(g, sorted(A | B))
    As, Bs = sorted(A), sorted(B)
    full = min(len(As), len(Bs))
    if not full:
        return 0
    # A trial draws lam, then phi (bidirected edges, then W's diagonal), then
    # K (its off-diagonal edges, then its diagonal): draw t of a trial is
    # the value of the t-th parameter in that order.
    lam_at = {}  # j -> (parent i of j, draw of lam_ij) for each parent of j
    for t, (i, j) in enumerate(sorted(g.directed_edges)):
        lam_at.setdefault(j, []).append((i, t))
    phi_at = {}  # w -> (i, draw of phi_iw) for each entry of Phi's column w
    for t, (i, j) in enumerate(sorted(g.bidirected_edges), len(g.directed_edges)):
        phi_at.setdefault(i, []).append((j, t))
        phi_at.setdefault(j, []).append((i, t))
    w_at = len(g.directed_edges) + len(g.bidirected_edges)
    for t, w in enumerate(sorted(g.w_set), w_at):
        phi_at.setdefault(w, []).append((w, t))
    k_at = w_at + len(g.w_set)
    # v -> (j, lam_at[j]) for j in an(v), v first and each j before its parents
    walks = {v: [(j, lam_at.get(j, ())) for j in _ancestor_walk(v, g._parent_lists)]
             for v in sorted(A | B)}
    an_a, an_b = ({j for v in side for j, _ in walks[v]} for side in (As, Bs))
    pos = {u: i for i, u in enumerate(_kept_components(g, an_a, an_b))}
    width = len(pos)  # column width + k of N belongs to Bs[k]
    # K's draws, those of dropped blocks included: (row, column, draw) of each
    # kept off-diagonal entry, then (row, draw) of each kept diagonal entry
    undirected = sorted(g.undirected_edges)
    k_edges = [(pos[i], pos[j], t) for t, (i, j) in enumerate(undirected, k_at) if i in pos]
    k_diag = [(pos[u], t) for t, u in enumerate(sorted(g.u_set), k_at + len(undirected))
              if u in pos]
    count = k_at + len(undirected) + len(g.u_set)  # draws per trial
    u_in = {v: [(u, pos[u]) for u, _ in walk if u in pos] for v, walk in walks.items()}
    # for Bs[k]: (i, draw of phi_ij, j) with (Phi X)_{i,b} += phi_ij x_b[j]
    phi_terms = [[(i, t, j) for j, _ in walks[b] if j in phi_at for i, t in phi_at[j]]
                 for b in Bs]
    plan = None
    best = 0
    for t in range(trials):
        if best == full:
            break
        d = _draws(random.Random(seed + t), p, count)
        x = {}  # column v of Lambda^{-1} mod p, keyed by the vertices of an(v)
        for v, walk in walks.items():
            # x_v[i] sums lam_ij x_v[j] over the children j of i in an(v);
            # the walk lists each vertex before its parents, so x_v[j] is
            # complete when j is reached and is pushed up to its parents
            col = x[v] = {j: 0 for j, _ in walk}
            col[v] = 1
            for j, parents in walk:
                xj = col[j] = col[j] % p
                if xj:
                    for i, e in parents:
                        col[i] += d[e] * xj
        rows = [{} for _ in range(width + len(As))]  # keyed alike in every trial
        for i, j, e in k_edges:
            rows[i][j] = rows[j][i] = d[e]
        for i, e in k_diag:
            rows[i][i] = d[e]
        phi_x = []  # column Bs[k] of Phi X, keyed by the i where it can be nonzero
        for k, b in enumerate(Bs):
            xb = x[b]
            for u, i in u_in[b]:
                rows[i][width + k] = xb[u]
            acc = {}
            for i, e, j in phi_terms[k]:
                acc[i] = acc.get(i, 0) + d[e] * xb[j]
            phi_x.append(acc)
        for row, a in zip(rows[width:], As):  # -X_{U,A}^T, then X_{W,A}^T Phi X_{W,B}
            xa = x[a]
            for u, i in u_in[a]:
                row[i] = -xa[u] % p
            for k, acc in enumerate(phi_x):
                if over := xa.keys() & acc.keys():
                    row[width + k] = sum(xa[i] * acc[i] for i in over) % p
        if plan is None:
            plan = _plan([row.keys() for row in rows])
        best = max(best, _eliminate(rows, plan) - width)
    return best


def _kept_components(g: MixedGraph, an_a, an_b) -> List[int]:
    """The vertices, in increasing order, of each component of the
    undirected graph on U that meets both an_a and an_b."""
    nbr = g._undirected_lists
    seen = set()
    kept = []
    for u in an_b & g.u_set:
        if u in seen:
            continue
        seen.add(u)
        component = [u]
        for x in component:
            for y in nbr[x]:
                if y not in seen:
                    seen.add(y)
                    component.append(y)
        if not an_a.isdisjoint(component):
            kept.extend(component)
    kept.sort()
    return kept


def _draws(rng: random.Random, p: int, count: int) -> List[int]:
    """The next `count` values of rng.randrange(1, p), drawn as randrange
    draws them: getrandbits of the bit length of p - 1, redrawn while at
    least p - 1."""
    n = p - 1
    k = n.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(r + 1)
    return out


def _plan(patterns) -> list:
    """Symbolic elimination of rows whose entries lie in `patterns`.

    patterns[r] lists the columns where row r may be nonzero.  Each step
    pivots on the sparsest remaining row (lowest index on ties), on its
    diagonal (column = row index) if present and otherwise on its lowest
    column, and adds the pivot row's columns to every remaining row that has
    the pivot column, which then loses it; a row that empties takes no
    pivot.  Returns the steps alone, with no fill lists: (pivot row, pivot
    column, the pivot row's columns, the rows it reaches).
    """
    live = [set(cols) for cols in patterns]
    remaining = list(range(len(live)))
    steps = []
    while remaining:
        r = min(remaining, key=lambda s: len(live[s]))
        remaining.remove(r)
        pivot_row = live[r]
        if not pivot_row:
            continue
        c = r if r in pivot_row else min(pivot_row)
        targets = []
        for s in remaining:
            row = live[s]
            if c in row:
                row |= pivot_row
                row.discard(c)
                targets.append(s)
        steps.append((r, c, sorted(pivot_row), targets))
    return steps


def _eliminate(rows: List[Dict[int, int]], steps=None) -> int:
    """Rank mod PRIME of dict rows (column -> entry), by sparse Gaussian
    elimination in place.

    A row holds keys for its own entries alone, a missing column reads as 0,
    and a fill entry appears when a step first writes it.  Without `steps`
    (from `_plan`), they are planned from the rows' keys.  Entries are
    reduced only where they are read: a pivot row's entries, and a target
    row's entry in the pivot column.  A planned pivot that is 0 mod PRIME
    stops the plan: the rows not yet pivoted keep their entries that are
    nonzero mod PRIME and are ranked by a plan made from those, whose first
    pivot is nonzero, so every round makes progress.
    """
    p = PRIME
    rank = 0
    while True:
        if steps is None:
            steps = _plan([row.keys() for row in rows])
        for done, (r, c, cols, targets) in enumerate(steps):
            pivot_row = rows[r]
            pivot = pivot_row.get(c, 0) % p
            if not pivot:
                break
            if targets:
                inv = pow(pivot, -1, p)
                pairs = [(k, pivot_row.get(k, 0) % p) for k in cols]
                for s in targets:
                    row = rows[s]
                    f = row.get(c, 0) % p * inv % p
                    if f:
                        for k, v in pairs:
                            row[k] = row.get(k, 0) - f * v
        else:
            return rank + len(steps)
        rank += done
        pivoted = {r for r, _, _, _ in steps[:done]}
        rows = [{k: v % p for k, v in row.items() if v % p}
                for s, row in enumerate(rows) if s not in pivoted]
        steps = None


def _path_weight(p: ParamAssignment, path) -> Fraction:
    w = Fraction(1)
    for a, b in zip(path, path[1:]):
        w *= p.lam[(a, b)]
    return w


def trek_rule_covariance(g: MixedGraph, p: ParamAssignment, i: int, j: int) -> Fraction:
    """Covariance entry as the explicit sum over all treks between i and j.

    Enumerates path pairs hanging off every supported (top, top) pair of the
    Phi block, so it is an independent check of the matrix factorization.
    Undirected edges make the trek set infinite and are rejected.
    """
    if g.undirected_edges:
        raise ValueError("trek set may be infinite with undirected edges; "
                         "use build_covariance instead")
    paths_i = _directed_paths_into(g, i)
    paths_j = _directed_paths_into(g, j)
    total = Fraction(0)
    for (s, t), phi in p.phi.items():
        for left_src, right_src in {(s, t), (t, s)}:
            if left_src in paths_i and right_src in paths_j:
                lsum = sum(_path_weight(p, path) for path in paths_i[left_src])
                rsum = sum(_path_weight(p, path) for path in paths_j[right_src])
                total += phi * lsum * rsum
    return total


def simple_trek_rule_covariance(g: MixedGraph, p: ParamAssignment,
                                sigma: RationalMatrix, i: int, j: int) -> Fraction:
    """Covariance entry as the sum over simple treks, the trek with top v
    weighted by a_v = sigma_vv, the variance read off the covariance sigma."""
    if graph_class(g) != DAG:
        raise ValueError("the simple trek rule is defined for DAGs")
    total = Fraction(0)
    for t in enumerate_simple_treks(g, i, j, DEFAULT_CAP):
        top = t.middle[0] - 1
        total += (sigma.entries[top][top] * _path_weight(p, t.left)
                  * _path_weight(p, t.right))
    return total


def gvl_minor_two_ways(g: MixedGraph, p: ParamAssignment, R, S) -> Tuple[Fraction, Fraction]:
    """Minor of Lambda^{-1} two ways: exact determinant vs the signed sum
    over vertex-disjoint directed path systems from R to S."""
    if graph_class(g) != DAG:
        raise ValueError("path-determinant expansion is defined for DAGs")
    Rs, Ss = sorted(set(R)), sorted(set(S))
    if len(Rs) != len(Ss):
        raise ValueError("R and S must have equal size")
    det_side = submatrix_for(lambda_inverse(g, p), Rs, Ss).det()

    into = {s: _directed_paths_into(g, s) for s in Ss}
    options = {(r, s): [(path, frozenset(path)) for path in into[s].get(r, [])]
               for r in Rs for s in Ss}
    total = Fraction(0)
    for system in _disjoint_systems(Rs, Ss, options, DEFAULT_CAP):
        cols = [s for s, _ in system]  # the permutation's sign: -1 per inversion
        weight = Fraction((-1) ** sum(x > y for x, y in combinations(cols, 2)))
        for _, path in system:
            weight *= _path_weight(p, path)
        total += weight
    return det_side, total


def cauchy_binet_two_ways(g: MixedGraph, p: ParamAssignment, A, B
                          ) -> Tuple[Fraction, Fraction]:
    """det Sigma_{A,B} vs its phi_S-weighted expansion over column subsets S."""
    if graph_class(g) != DAG:
        raise ValueError("the phi_S expansion is defined for DAGs")
    As, Bs = sorted(set(A)), sorted(set(B))
    if len(As) != len(Bs):
        raise ValueError("A and B must have equal size")
    sigma = build_covariance(g, p)
    lhs = submatrix_for(sigma, As, Bs).det()
    lam_inv = lambda_inverse(g, p)
    rhs = Fraction(0)
    for subset in combinations(range(1, g.m + 1), len(As)):
        phi_s = Fraction(1)
        for v in subset:
            phi_s *= p.phi[(v, v)]
        rhs += (submatrix_for(lam_inv, subset, As).det()
                * submatrix_for(lam_inv, subset, Bs).det() * phi_s)
    return lhs, rhs


def undirected_minor_check(g: MixedGraph, p: ParamAssignment, A, B) -> Tuple[Fraction, bool]:
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

    middles = _undirected_middles(g, As, DEFAULT_CAP)
    options = {(a, b): [(path, frozenset(path))
                        for path in ([(a,)] if a == b else middles.get((a, b), []))]
               for a in As for b in Bs}
    verdict = next(_disjoint_systems(As, Bs, options, DEFAULT_CAP), None) is not None
    return minor, verdict


def translate_subdivision_parameters(g: MixedGraph,
                                     p_sub: ParamAssignment) -> ParamAssignment:
    """Pull parameters on the bidirected subdivision back to the original graph.

    For each bidirected edge i <-> j with subdivision vertex v:
    phi_ij = phi_vv * lam_vi * lam_vj, and each diagonal phi_ii picks up
    phi_vv * lam_vi^2 for every bidirected edge at i.  With these values the
    original covariance equals the subdivision covariance restricted to the
    original vertices, exactly.
    """
    fresh = {}
    next_id = g.m
    for edge in sorted(g.bidirected_edges):
        next_id += 1
        fresh[edge] = next_id

    lam = {e: p_sub.lam[e] for e in g.directed_edges}
    phi = {}
    for (i, j), v in fresh.items():
        phi[(i, j)] = p_sub.phi[(v, v)] * p_sub.lam[(v, i)] * p_sub.lam[(v, j)]
    for i in g.w_set:
        diag = p_sub.phi[(i, i)]
        for edge, v in fresh.items():
            if i in edge:
                diag += p_sub.phi[(v, v)] * p_sub.lam[(v, i)] ** 2
        phi[(i, i)] = diag
    return ParamAssignment(lam=lam, phi=phi, k=dict(p_sub.k))
