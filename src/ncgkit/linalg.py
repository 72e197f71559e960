"""Small exact linear algebra helpers.

Matrices are tuples of tuples.  Entries are any scalar ring supporting
+, -, *, is_zero (QQi, PolyScalar); field operations (rank, solve) are
restricted to QQi entries.
"""

from __future__ import annotations

from math import lcm
from typing import List, Optional, Sequence, Tuple

from .scalars import QQI_ONE, QQI_ZERO, QQi, _qqi

Matrix = Tuple[tuple, ...]


def mat_from_rows(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def mat_shape(a: Matrix) -> Tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def mat_zero(n: int, m: int, zero) -> Matrix:
    return tuple(tuple(zero for _ in range(m)) for _ in range(n))


def mat_eye(n: int, zero, one) -> Matrix:
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_from_blocks(grid: Sequence[Sequence[Matrix]]) -> Matrix:
    """The matrix of an r x r grid of equal n x n blocks: entry
    (b n + i, b' n + j) is entry (i, j) of block (b, b').  This and
    ``mat_block`` are the one statement of that layout."""
    n = len(grid[0][0])
    return tuple(tuple(x for blk in row for x in blk[i])
                 for row in grid for i in range(n))


def mat_block(a: Matrix, i: int, j: int, n: int) -> Matrix:
    """Block (i, j) of size n x n of ``a``, as laid out by ``mat_from_blocks``."""
    return tuple(row[j * n:(j + 1) * n] for row in a[i * n:(i + 1) * n])


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_scale(c, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_kron(a: Matrix, b: Matrix) -> Matrix:
    """a (x) b: block (i, j) is a_ij b, laid out by ``mat_from_blocks``."""
    return mat_from_blocks([[mat_scale(x, b) for x in row] for row in a])


def all_qqi(a: Matrix) -> bool:
    """Whether every entry is a ``QQi``: the one test of an exact matrix."""
    for row in a:
        for x in row:
            if type(x) is not QQi:
                return False
    return True


def _qqi_mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product of QQi matrices, each entry one Gaussian-integer dot product.

    Each row of ``a`` and column of ``b`` is put over its own common
    denominator once, pairs with a zero factor are skipped, and each entry
    is reduced by one gcd, so it equals the canonical QQi of the generic
    loop.
    """
    cols = []
    for col in zip(*b):
        d = lcm(*[x.d for x in col])
        cols.append((d, [(t, x.a * (d // x.d), x.b * (d // x.d))
                         for t, x in enumerate(col) if x.a or x.b]))
    out = []
    for row in a:
        da = lcm(*[x.d for x in row])
        nums = [(x.a * (da // x.d), x.b * (da // x.d)) if x.a or x.b else None
                for x in row]
        orow = []
        for db, col in cols:
            re = im = 0
            for t, r, s in col:
                pq = nums[t]
                if pq is not None:
                    p, q = pq
                    re += p * r - q * s
                    im += p * s + q * r
            orow.append(_qqi(re, im, da * db))
        out.append(tuple(orow))
    return tuple(out)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k = mat_shape(a)
    k2, m = mat_shape(b)
    if k != k2:
        raise ValueError(f"matrix shapes {n}x{k} and {k2}x{m} do not compose")
    if all_qqi(a) and all_qqi(b):
        return _qqi_mat_mul(a, b)
    bt = list(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in bt:
            acc = None
            for x, y in zip(row, col):
                p = x * y
                acc = p if acc is None else acc + p
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def mat_trace(a: Matrix):
    n, m = mat_shape(a)
    if n != m:
        raise ValueError("trace of a non-square matrix")
    acc = a[0][0]
    for i in range(1, n):
        acc = acc + a[i][i]
    return acc


def mat_conj_transpose(a: Matrix) -> Matrix:
    return tuple(
        tuple(a[i][j].conj() for i in range(len(a)))
        for j in range(len(a[0]))
    )


def mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return mat_shape(a) == mat_shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


# -- QQi field routines -----------------------------------------------


def qq_echelon(rows: Sequence[Sequence[QQi]],
               ncols: Optional[int] = None) -> Tuple[List[List[QQi]], List[int]]:
    """Reduced row echelon form over the Gaussian rationals (Gauss–Jordan).

    Pivots are sought only in the first ``ncols`` columns (all of them by
    default); later columns are carried along as an augmented block.
    Returns the reduced rows, rows below the rank being zero, and the
    pivot column of each of the first ``len(pivots)`` rows.
    """
    rows = [list(r) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        piv = next(
            (r for r in range(rank, len(rows)) if not rows[r][col].is_zero()),
            None,
        )
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        prow = rows[rank] = [inv * x for x in rows[rank]]
        nonzero = [(j, y.a, y.b, y.d) for j, y in enumerate(prow) if y.a or y.b]
        for r, row in enumerate(rows):
            f = row[col]
            if r != rank and (f.a or f.b):
                # x - f y over the denominator x.d f.d y.d, one gcd per entry
                fa, fb, fd = f.a, f.b, f.d
                for j, ya, yb, yd in nonzero:
                    x = row[j]
                    den = fd * yd
                    pa, pb = fa * ya - fb * yb, fa * yb + fb * ya
                    row[j] = _qqi(x.a * den - pa * x.d, x.b * den - pb * x.d,
                                  x.d * den)
        pivots.append(col)
    return rows, pivots


def qq_rank(a: Sequence[Sequence[QQi]]) -> int:
    """Rank over the Gaussian rationals by fraction-exact elimination."""
    return len(qq_echelon(a)[1])


def qq_nullity(a: Sequence[Sequence[QQi]]) -> int:
    if not a:
        return 0
    return len(a[0]) - qq_rank(a)


def qq_solve(a: Sequence[Sequence[QQi]], b: Sequence[QQi]) -> Optional[List[QQi]]:
    """One exact solution of A x = b, or None if inconsistent."""
    if len(b) != len(a):
        raise ValueError(f"{len(a)} equations but {len(b)} right-hand sides")
    ncols = len(a[0]) if a else 0
    rows, pivots = qq_echelon([list(r) + [bv] for r, bv in zip(a, b)], ncols)
    if any(not row[ncols].is_zero() for row in rows[len(pivots):]):
        return None
    x = [QQI_ZERO] * ncols
    for row, col in zip(rows, pivots):
        x[col] = row[ncols]
    return x


def qq_inverse_matrix(a: Sequence[Sequence[QQi]]) -> Matrix:
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("cannot invert a non-square matrix")
    rows, pivots = qq_echelon(
        [list(r) + [QQI_ONE if i == j else QQI_ZERO for j in range(n)]
         for i, r in enumerate(a)],
        n,
    )
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def qq_kernel_basis(a: Sequence[Sequence[QQi]]) -> List[List[QQi]]:
    """Basis of the right kernel of A over QQi."""
    rows, pivots = qq_echelon(a)
    ncols = len(a[0]) if a else 0
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [QQI_ZERO] * ncols
        v[fc] = QQI_ONE
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis
