"""Exact integer linear algebra: Smith normal form, coset representatives
walked axis by axis as ranges, and one fraction-free Gauss-Jordan
elimination (_bareiss) behind both the determinant and the inverse
(scaled_inverse).

Everything here works over arbitrary-precision Python ints: no Fraction and
no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import index, mul
from typing import NamedTuple

from .errors import LatticeError


def as_ints(values) -> tuple[int, ...]:
    """values as a tuple of ints: whatever operator.index accepts, except
    bool, which it would read as 0 or 1.  Anything else is a TypeError."""
    values = tuple(values)
    if bool in map(type, values):
        raise TypeError("a bool is not an integer input")
    return tuple(map(index, values))


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise LatticeError("matrix must have positive dimensions")
        ncols = len(self.entries[0])
        for row in self.entries:
            if len(row) != ncols:
                raise LatticeError("ragged matrix")
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise LatticeError("entries must be integers")

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(row) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise LatticeError("dimension mismatch in product")
        cols = list(zip(*other.entries))
        return IntMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.entries))

    def mul_vector(self, v) -> tuple[int, ...]:
        if len(v) != self.ncols:
            raise LatticeError("dimension mismatch in matrix-vector product")
        return tuple([sum(map(mul, row, v)) for row in self.entries])

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(c * e for e in row) for row in self.entries))

    def det(self) -> int:
        """Exact determinant, by the fraction-free elimination of _bareiss."""
        if self.nrows != self.ncols:
            raise LatticeError("determinant of a non-square matrix")
        return _bareiss(list(map(list, self.entries)), self.nrows)


def _bareiss(a, n) -> int:
    """Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968) on the
    first n columns of the row lists a, in place: entries stay minors, so each
    division by the last pivot is exact, and the left block ends as D * I with
    D = +-det.  Returns the signed det of that block, or 0 if it is singular."""
    sign = prev = 1
    for k in range(n):
        for piv in range(k, n):
            if a[piv][k]:
                break
        else:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        row = a[k]
        p = row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
        prev = p
    return sign * prev


class SnfResult(NamedTuple):
    """U @ A @ V = S with U, V unimodular and S diagonal (divisibility chain)."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix

    def invariant_factors(self) -> tuple[int, ...]:
        m = min(self.S.nrows, self.S.ncols)
        return tuple(self.S.entries[i][i] for i in range(m))


def _select_pivot(a, t, m, n):
    # smallest-magnitude nonzero entry of the trailing submatrix, ties broken
    # by row-major position (fixed rule for deterministic output)
    best = None
    for i in range(t, m):
        for j in range(t, n):
            if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(A: IntMatrix) -> SnfResult:
    """Smith normal form over the integers, with both transforms."""
    m, n = A.nrows, A.ncols
    a = [list(row) for row in A.entries]
    u = [list(row) for row in IntMatrix.identity(m).entries]
    v = [list(row) for row in IntMatrix.identity(n).entries]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_op(i, j, q):
        # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):
        # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    t = 0
    while t < min(m, n):
        piv = _select_pivot(a, t, m, n)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        clean = True
        for i in range(t + 1, m):
            if a[i][t] != 0:
                row_op(i, t, a[i][t] // a[t][t])
                if a[i][t] != 0:
                    clean = False
        for j in range(t + 1, n):
            if a[t][j] != 0:
                col_op(j, t, a[t][j] // a[t][t])
                if a[t][j] != 0:
                    clean = False
        if not clean:
            continue
        # pivot must divide every remaining entry for the chain to hold
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)
            continue
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    return SnfResult(IntMatrix.from_rows(u), IntMatrix.from_rows(a),
                     IntMatrix.from_rows(v))


def scaled_inverse(M: IntMatrix) -> tuple[IntMatrix, int]:
    """(X, d) with M^{-1} = X / d, X integral and d = |det M| > 0: _bareiss
    on [M | I] leaves [D I | D M^{-1}] with D = +-det M."""
    if M.nrows != M.ncols:
        raise LatticeError("inverse of a non-square matrix")
    n = M.nrows
    a = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(M.entries)]
    if not _bareiss(a, n):
        raise LatticeError("matrix is singular")
    sign = 1 if a[0][0] > 0 else -1
    return (IntMatrix(tuple(tuple(sign * x for x in row[n:]) for row in a)),
            sign * a[0][0])


def coset_representatives(F: IntMatrix) -> list[tuple[int, ...]]:
    """Canonical representatives u of Z^n / F(Z^n), F nonsingular.

    With U F V = S, u = U^{-1} w for w in prod_i range(S_ii) in
    itertools.product order (mixed radix, last axis fastest), so the choice
    is reproducible byte-for-byte.  Each axis steps by one column of U^{-1},
    as one arithmetic progression per coordinate: no coset costs a matrix
    product.
    """
    snf = smith_normal_form(F)
    radices = snf.invariant_factors()
    if F.nrows != F.ncols or 0 in radices:
        raise LatticeError("not a finite-index sublattice")
    reps = [(0,) * F.ncols]
    for step, d in zip(zip(*scaled_inverse(snf.U)[0].entries), radices):
        reps = _axis(reps, step, d)
    return list(reps)


def _axis(prefixes, step, d):
    # every prefix followed by its d - 1 successors along one axis, as one
    # arithmetic progression per coordinate
    for vec in prefixes:
        yield from zip(*[range(s, s + d * t, t) if t else repeat(s, d)
                         for s, t in zip(vec, step)])
