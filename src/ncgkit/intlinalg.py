"""Integer matrix normal forms for simplicial cohomology.

Smith normal form with unimodular transforms over Python ints (no
overflow), plus the integer linear solver built on it.  Pivoting is
deterministic so downstream class descriptors are reproducible.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


def _identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """Return (U, S, V) with S = U @ A @ V, U and V unimodular, S diagonal
    with nonnegative entries d_1 | d_2 | ... .
    """
    s = [list(map(int, row)) for row in a]
    n = len(s)
    m = len(s[0]) if n else 0
    u = _identity(n)
    v = _identity(m)

    def row_op(i, j, c):  # row_i += c * row_j
        s[i] = [x + c * y for x, y in zip(s[i], s[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, c):  # col_i += c * col_j
        for row in s:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_negate(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(n, m):
        # deterministic pivot: smallest |entry| in the remaining block,
        # ties broken by (row, col)
        piv = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                x = abs(s[i][j])
                if x and (best is None or x < best):
                    best = x
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        row_swap(t, pi)
        col_swap(t, pj)
        if s[t][t] < 0:
            row_negate(t)
        dirty = False
        for i in range(t + 1, n):
            if s[i][t]:
                q = s[i][t] // s[t][t]
                row_op(i, t, -q)
                if s[i][t]:
                    dirty = True
        for j in range(t + 1, m):
            if s[t][j]:
                q = s[t][j] // s[t][t]
                col_op(j, t, -q)
                if s[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility d_t | s[i][j] for the rest of the block
        bad = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if s[i][j] % s[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, 1)
            continue
        t += 1
    return u, s, v


def snf_diagonal(s) -> List[int]:
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0)) if s[i][i]]


def solve_integer(a, b, snf=None) -> Optional[List[int]]:
    """One integer solution x of A x = b, or None if none exists.

    ``snf`` may pass ``smith_normal_form(a)`` when it is already known, so
    that many right sides share one factorisation.
    """
    n = len(a)
    m = len(a[0]) if n else 0
    if n == 0:
        return [0] * m
    u, s, v = snf if snf is not None else smith_normal_form(a)
    ub = [sum(u[i][k] * b[k] for k in range(n)) for i in range(n)]
    y = [0] * m
    r = min(n, m)
    for i in range(r):
        d = s[i][i]
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d:
                return None
            y[i] = ub[i] // d
    for i in range(r, n):
        if ub[i] != 0:
            return None
    x = [sum(v[i][k] * y[k] for k in range(m)) for i in range(m)]
    return x


def integer_kernel_basis(a) -> List[List[int]]:
    """Basis of the integer kernel lattice of A (columns x with A x = 0)."""
    n = len(a)
    m = len(a[0]) if n else 0
    if n == 0:
        return [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    u, s, v = smith_normal_form(a)
    r = len(snf_diagonal(s))
    basis = []
    for j in range(r, m):
        basis.append([v[i][j] for i in range(m)])
    return basis
