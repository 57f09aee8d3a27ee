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
their own entries.  Its error is one-sided, and trials stop once one
reaches min(|A|, |B|) or the plan's pivot count less |U'|: the pivot count
bounds the term rank of N', so no trial exceeds either, and an answer that
reaches one is exact (see its docstring).
The identities (trek rule, simple trek rule, path determinants,
Cauchy-Binet, the subdivision translation) demand exact equality.  They are
polynomial identities with integer coefficients, run on large random
integer parameters, and every value is a plain `int`: Lambda = I - L is
unit triangular, so on a graph with no U vertex (a DAG that declares no
`u` vertex, say) Lambda^{-1}, Sigma, every trek sum and every minor are
integers; where K enters, `build_covariance` returns det(K) Sigma, built
from the adjugate of K.  A matrix holds `int`s only, and no floating point
or rational is involved anywhere.

`det` and the adjugate of K come from one fraction-free Gauss-Jordan
elimination (`_bareiss`), whose every division is exact.  The simple trek
rule reads a_v = sigma_vv off the covariance it is given, and the
path-system sides of the determinant expansions come from
`treks._disjoint_systems`.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import combinations
from operator import index

from .graph import (DAG, UNDIRECTED, MixedGraph, _ancestor_walk, _closure, _require_vertices,
                    _subdivision_ids, graph_class, topological_order)
from .treks import (DEFAULT_CAP, _directed_paths_into, _disjoint_systems,
                    _undirected_middles, enumerate_simple_treks)

SCALE = 10**6
PRIME = 2**61 - 1
# Trials of `generic_rank_oracle` unless a caller asks for others: the
# default of the oracle, of `verify.SuiteConfig` and of the CLI's --trials.
DEFAULT_TRIALS = 5


class SingularMatrixError(ArithmeticError):
    pass


class RationalMatrix(namedtuple("RationalMatrix", "rows cols entries")):
    """Dense matrix of arbitrary-precision `int`s (0-based indexing).

    `from_rows` refuses any other entry, so no `//` of an elimination can
    floor a rational.  The shape is fixed; the entry lists are filled in
    place.  `m[i, j]` reads an entry, not a field.
    """

    __slots__ = ()
    rows: int
    cols: int
    entries: list[list[int]]

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n, n)
        for i in range(n):
            m.entries[i][i] = 1
        return m

    @classmethod
    def from_rows(cls, rows):
        rows = [list(row) for row in rows]
        cols = len(rows[0]) if rows else 0
        for i, row in enumerate(rows):
            if len(row) != cols:
                raise ValueError(f"row {i} has {len(row)} entries, row 0 has {cols}")
            for j, x in enumerate(row):
                if type(x) is not int:
                    raise ValueError(f"entry ({i}, {j}) is {x!r}, not an int")
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

    def det(self) -> int:
        """The exact determinant: `_bareiss` on a copy of the entries."""
        if self.rows != self.cols:
            raise ValueError(f"a {self.rows}x{self.cols} matrix is not square")
        return _bareiss([row[:] for row in self.entries], self.rows)


def _bareiss(rows: list[list[int]], width: int) -> int:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of the `width` int
    rows on their first `width` columns, in place; returns the determinant
    of that square block.

    Step k replaces every entry off the pivot row by
    (p_k a_ij - a_ik a_kj) // p_{k-1} (p_{-1} = 1).  By Sylvester's identity
    each quotient is, up to sign, a minor of the rows, so the floor division
    is exact and every entry stays an int.  A zero pivot swaps in the first
    row below it with a nonzero entry in its column and negates the row it
    moves down, which keeps the determinant; with none the determinant is 0.
    After the last step [M | I] reads [p I | p M^{-1}], and the last pivot p
    is det M.
    """
    prev = 1
    for k in range(width):
        if not rows[k][k]:
            swap = next((r for r in range(k + 1, width) if rows[r][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], [-x for x in rows[k]]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                row[:] = [(pivot * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    return prev


def submatrix_for(matrix: RationalMatrix, A, B) -> RationalMatrix:
    """Covariance block with sorted vertex rows A and columns B (1-based ids)."""
    return matrix.submatrix([a - 1 for a in sorted(A)], [b - 1 for b in sorted(B)])


class ParamAssignment(namedtuple("ParamAssignment", "lam phi k")):
    """Exact parameters respecting the graph's sparsity pattern.

    `lam` maps directed edges (i, j) to entries of L (so Lambda = I - L),
    `phi` is the symmetric W-block keyed by (min, max) pairs including the
    diagonal, and `k` is the symmetric U-block in the same convention.
    Parameters are `int`s, as `sample_parameters` gives them: K's rows go
    through `RationalMatrix.from_rows`, so any other K entry raises.
    """

    __slots__ = ()
    lam: dict[tuple[int, int], int]
    phi: dict[tuple[int, int], int]
    k: dict[tuple[int, int], int]


def sample_parameters(g: MixedGraph, seed: int) -> ParamAssignment:
    """Deterministic generic integer parameters, as plain `int`s.

    Off-diagonal entries are nonzero integers in [-SCALE, SCALE]; diagonals
    are 1 + (row absolute sum) + a random integer in [1, SCALE], which makes
    Phi and K diagonally dominant (hence positive definite) while keeping the
    diagonal itself generic.  Every covariance built from them, scaled by
    det K as `build_covariance` gives it, is an int matrix.
    """
    rng = random.Random(seed)

    def signed():
        return rng.choice((-1, 1)) * rng.randint(1, SCALE)

    lam = {e: signed() for e in sorted(g.directed_edges)}

    def symmetric_block(vertices, edges):
        block = {}
        for i, j in sorted(edges):
            block[(i, j)] = signed()
        for v in sorted(vertices):
            row = sum(abs(val) for (i, j), val in block.items() if v in (i, j))
            block[(v, v)] = 1 + row + rng.randint(1, SCALE)
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


def build_covariance(g: MixedGraph, p: ParamAssignment) -> RationalMatrix:
    """det(K) Sigma, exactly, as an int matrix: from the factorization
    Sigma = Lambda^{-T} (K^{-1} (+) Phi) Lambda^{-1}, the matrix
    Lambda^{-T} (det(K) K^{-1} (+) det(K) Phi) Lambda^{-1}.

    `_bareiss` reduces [K | I] to [det(K) I | det(K) K^{-1}], the adjugate
    of K.  The determinant of the empty K is 1, so on a graph with no U
    vertex, every DAG that declares no `u` vertex included, this is Sigma
    itself.  A singular K raises SingularMatrixError.
    """
    n = g.m
    u_vs = sorted(g.u_set)
    width = len(u_vs)
    pos = {u: i for i, u in enumerate(u_vs)}
    k = [[int(i + width == j) for j in range(2 * width)] for i in range(width)]  # [0 | I]
    for (i, j), val in p.k.items():
        k[pos[i]][pos[j]] = k[pos[j]][pos[i]] = val
    rows = RationalMatrix.from_rows(k).entries
    det = _bareiss(rows, width)
    if not det:
        raise SingularMatrixError("K is singular")
    inner = RationalMatrix.zeros(n, n)
    for a, va in enumerate(u_vs):
        for b, vb in enumerate(u_vs):
            inner.entries[va - 1][vb - 1] = rows[a][width + b]
    for (i, j), val in p.phi.items():
        inner.entries[i - 1][j - 1] = inner.entries[j - 1][i - 1] = det * val
    lam_inv = lambda_inverse(g, p)
    return lam_inv.transpose().matmul(inner).matmul(lam_inv)


def generic_rank_oracle(g: MixedGraph, A, B, seed: int,
                        trials: int = DEFAULT_TRIALS) -> int:
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
    min(|A|, |B|, len(plan) - |U'|), which no trial can exceed: every trial
    keys the first trial's entries, and a nonzero r-minor needs r of them
    in distinct rows and columns, so its rank is at most the term rank of
    that pattern; a step of `_plan` lowers a maximum matching by at most
    one (a row matched to the pivot column is a target, and takes over the
    pivot row's column), so the term rank is at most len(plan).  An answer
    that reaches the bound is exact, not only probable: a minor nonzero mod
    PRIME is nonzero as a polynomial, so a trial's rank bounds the generic
    rank from below, and the bound from above.  A vertex outside 1..m, or
    a count of trials that is not an integer or is below 1, raises
    ValueError; an empty A or B answers 0.
    """
    try:
        index(trials)
    except TypeError:
        raise ValueError(f"trials must be an integer, got {trials!r}") from None
    if trials < 1:
        raise ValueError("trials must be at least 1")
    p = PRIME
    A, B = set(A), set(B)
    _require_vertices(g, A | B)
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
            full = min(full, len(plan) - width)
        best = max(best, _eliminate(rows, plan) - width)
    return best


def _kept_components(g: MixedGraph, an_a, an_b) -> list[int]:
    """The vertices, in increasing order, of each component of the
    undirected graph on U that meets both an_a and an_b: the closure of a
    set's U vertices is the union of the components that meet the set."""
    step = g._undirected_lists.__getitem__
    return sorted(_closure(an_a & g.u_set, step) & _closure(an_b & g.u_set, step))


def _draws(rng: random.Random, p: int, count: int) -> list[int]:
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


def _eliminate(rows: list[dict[int, int]], steps=None) -> int:
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


def _path_weight(p: ParamAssignment, path) -> int:
    w = 1
    for a, b in zip(path, path[1:]):
        w *= p.lam[(a, b)]
    return w


def trek_rule_covariance(g: MixedGraph, p: ParamAssignment) -> RationalMatrix:
    """The covariance as the explicit sum over all treks, as an int matrix.

    The directed paths into each vertex are listed once and their weights
    summed by source; entry (i, j) pairs the sums into i and into j through
    every supported (top, top) pair of Phi: an independent check of the
    factorization, equal to `build_covariance(g, p)` on every graph with no
    U vertex.  A U vertex is rejected: K never enters the sum, and
    undirected edges make the trek set infinite.
    """
    if g.u_set:
        raise ValueError("the trek rule leaves K out and needs U empty (undirected edges "
                         "make the trek set infinite); use build_covariance instead")
    sums = [{src: sum(_path_weight(p, path) for path in paths)
             for src, paths in _directed_paths_into(g, v).items()} for v in range(1, g.m + 1)]
    tops = [(phi, pair) for (s, t), phi in p.phi.items() for pair in {(s, t), (t, s)}]
    return RationalMatrix.from_rows(
        [[sum(phi * sum_i[s] * sum_j[t] for phi, (s, t) in tops if s in sum_i and t in sum_j)
          for sum_j in sums] for sum_i in sums])


def simple_trek_rule_covariance(g: MixedGraph, p: ParamAssignment,
                                sigma: RationalMatrix, i: int, j: int) -> int:
    """Covariance entry as the sum over simple treks, the trek with top v
    weighted by a_v = sigma_vv, the variance read off the covariance sigma."""
    if graph_class(g) != DAG:
        raise ValueError("the simple trek rule is defined for DAGs")
    total = 0
    for t in enumerate_simple_treks(g, i, j, DEFAULT_CAP):
        top = t.middle[0] - 1
        total += (sigma.entries[top][top] * _path_weight(p, t.left)
                  * _path_weight(p, t.right))
    return total


def _equal_sized(g: MixedGraph, A, B, names="A and B") -> tuple[list[int], list[int]]:
    """A and B as sorted vertex lists, checked as vertex sets of g of one size."""
    _require_vertices(g, {*A, *B})
    As, Bs = sorted(set(A)), sorted(set(B))
    if len(As) != len(Bs):
        raise ValueError(f"{names} must have equal size")
    return As, Bs


def gvl_minor_two_ways(g: MixedGraph, p: ParamAssignment, R, S) -> tuple[int, int]:
    """Minor of Lambda^{-1} two ways: exact determinant vs the signed sum
    over vertex-disjoint directed path systems from R to S."""
    if graph_class(g) != DAG:
        raise ValueError("path-determinant expansion is defined for DAGs")
    Rs, Ss = _equal_sized(g, R, S, "R and S")
    det_side = submatrix_for(lambda_inverse(g, p), Rs, Ss).det()

    into = {s: _directed_paths_into(g, s) for s in Ss}
    options = {(r, s): [(path, frozenset(path)) for path in into[s].get(r, [])]
               for r in Rs for s in Ss}
    total = 0
    for system in _disjoint_systems(Rs, Ss, options, DEFAULT_CAP):
        cols = [s for s, _ in system]  # the permutation's sign: -1 per inversion
        weight = (-1) ** sum(x > y for x, y in combinations(cols, 2))
        for _, path in system:
            weight *= _path_weight(p, path)
        total += weight
    return det_side, total


def cauchy_binet_two_ways(g: MixedGraph, p: ParamAssignment, A, B
                          ) -> tuple[int, int]:
    """det Sigma_{A,B} vs its phi_S-weighted expansion over column subsets S."""
    if graph_class(g) != DAG or g.u_set:
        raise ValueError("the phi_S expansion is defined for DAGs with no U vertex")
    As, Bs = _equal_sized(g, A, B)
    sigma = build_covariance(g, p)
    lhs = submatrix_for(sigma, As, Bs).det()
    lam_inv = lambda_inverse(g, p)
    rhs = 0
    for subset in combinations(range(1, g.m + 1), len(As)):
        phi_s = 1
        for v in subset:
            phi_s *= p.phi[(v, v)]
        rhs += (submatrix_for(lam_inv, subset, As).det()
                * submatrix_for(lam_inv, subset, Bs).det() * phi_s)
    return lhs, rhs


def undirected_minor_check(g: MixedGraph, p: ParamAssignment, A, B) -> tuple[int, bool]:
    """Exact minor of det(K) Sigma plus a combinatorial zero/nonzero verdict.

    Sigma = K^{-1} (+) Phi, and the minor is det(K)^{#A} times the minor of
    Sigma: an int, and zero exactly when the minor of Sigma is.  The verdict
    is True iff there is a system of #A vertex-disjoint paths from A to B in
    the doubling of the undirected graph, which by the path-determinant
    expansion decides generic vanishing of the minor.
    """
    if graph_class(g) != UNDIRECTED:
        raise ValueError("expects a purely undirected graph")
    As, Bs = _equal_sized(g, A, B)
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
    original vertices, exactly.  v is numbered by `graph._subdivision_ids`,
    as `bidirected_subdivision` numbers it.
    """
    fresh = _subdivision_ids(g)
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
