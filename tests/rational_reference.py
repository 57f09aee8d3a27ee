"""Exact linear algebra over Q, for the tests that check the integer library.

`gauss_jordan_reference` is the rational Gauss-Jordan that
`treksep.algebra` ranked and inverted with before it went integer-only,
now also returning the determinant.  `covariance_reference` builds Sigma =
Lambda^{-T} (K^{-1} (+) Phi) Lambda^{-1} over `Fraction`s from the
parameters alone: Lambda^{-1} and K^{-1} are both inverted here, so the
library's `build_covariance`, whose det(K) Sigma is checked against it,
shares nothing with it.
"""

from __future__ import annotations

from fractions import Fraction


def gauss_jordan_reference(rows, width: int):
    """Exact Gauss-Jordan on the first `width` columns of rows, in place;
    returns (rank, det), det being the determinant of the leading
    `width` x `width` block when there are `width` rows (0 below full rank).

    Each pivot row is divided by Fraction(pivot), so an int entry never
    meets `/` with an int.  Columns past `width` are carried along, so
    [M | I] reduces to [I | M^{-1}].
    """
    rank, det = 0, Fraction(1)
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        pv = Fraction(rows[rank][col])
        det *= pv
        # Left of col the pivot row is zero, so only its tail is touched.
        tail = [x / pv for x in rows[rank][col:]]
        rows[rank][col:] = tail
        for r, row in enumerate(rows):
            f = row[col]
            if r != rank and f:
                row[col:] = [x - f * y for x, y in zip(row[col:], tail)]
        rank += 1
    return rank, det


def rank_reference(rows) -> int:
    return gauss_jordan_reference([list(row) for row in rows], len(rows[0]) if rows else 0)[0]


def det_reference(rows) -> Fraction:
    return gauss_jordan_reference([list(row) for row in rows], len(rows))[1]


def inverse_reference(rows):
    """(M^{-1}, det M) of a square matrix M; a singular M raises
    ZeroDivisionError."""
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    rank, det = gauss_jordan_reference(a, n)
    if rank < n:
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in a], det


def covariance_reference(g, p):
    """(Sigma, det K): Sigma = Lambda^{-T} (K^{-1} (+) Phi) Lambda^{-1} as
    lists of Fractions, from the parameters p of the graph g."""
    n = g.m
    lam = [[int(i == j) for j in range(n)] for i in range(n)]
    for (i, j), val in p.lam.items():
        lam[i - 1][j - 1] = -val
    x, _ = inverse_reference(lam)
    u_vs = sorted(g.u_set)
    pos = {u: a for a, u in enumerate(u_vs)}
    k = [[0] * len(u_vs) for _ in u_vs]
    for (i, j), val in p.k.items():
        k[pos[i]][pos[j]] = k[pos[j]][pos[i]] = val
    k_inv, det_k = inverse_reference(k)
    inner = [[Fraction(0)] * n for _ in range(n)]
    for a, u in enumerate(u_vs):
        for b, v in enumerate(u_vs):
            inner[u - 1][v - 1] = k_inv[a][b]
    for (i, j), val in p.phi.items():
        inner[i - 1][j - 1] = inner[j - 1][i - 1] = Fraction(val)
    y = [[sum(inner[s][t] * x[t][j] for t in range(n)) for j in range(n)]
         for s in range(n)]
    sigma = [[sum(x[s][i] * y[s][j] for s in range(n)) for j in range(n)]
             for i in range(n)]
    return sigma, det_k
