"""Exact integer linear algebra: Smith normal form, coset representatives
walked axis by axis as ranges, and one fraction-free Gauss-Jordan step
(_pivot) behind the determinant and the inverse (both by _bareiss, through
scaled_inverse) and the basis exchange that updates an inverse when one row
of the matrix is replaced (basis_exchange).

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


def _pivot(rows, col, k, prev) -> None:
    """One fraction-free Gauss-Jordan step (Bareiss, Math. Comp. 22, 1968),
    in place: with p = col[k] the pivot, each row i != k becomes
    (p * rows[i] - col[i] * rows[k]) / prev.  col[i] is row i's entry in the
    pivot column, which the rows need not hold; prev is the last pivot.  On
    rows whose entries are minors the results are minors again, so the
    division is exact."""
    row, p = rows[k], col[k]
    for i, f in enumerate(col):
        if i != k:
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], row)]


def _bareiss(a, n) -> int:
    """Fraction-free Gauss-Jordan on the first n columns of the n row lists
    a, in place, one _pivot per column: entries stay minors, and the left
    block ends as D * I with D = +-det.  Returns the signed det of that
    block, or 0 if it is singular."""
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
        _pivot(a, [row[k] for row in a], k, prev)
        prev = a[k][k]
    return sign * prev


class SnfResult(NamedTuple):
    """U @ A @ V = S with U, V unimodular and S diagonal (divisibility chain)."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix

    def invariant_factors(self) -> tuple[int, ...]:
        m = min(self.S.nrows, self.S.ncols)
        return tuple(self.S.entries[i][i] for i in range(m))


def smith_normal_form(A: IntMatrix) -> SnfResult:
    """Smith normal form over the integers, with both transforms: U A V = S.

    The work is on one matrix M = [[A, I_m], [I_n, 0]]: an operation on M's
    first m rows acts on A and U together, one on its first n columns on A
    and V together, so M ends as [[S, U], [V, 0]].  Each step's pivot is the
    least (|entry|, i, j) over the nonzero entries of the trailing block of
    A: smallest magnitude, ties broken by row-major position, a fixed rule
    for deterministic output.
    """
    m, n = A.nrows, A.ncols
    M = [list(row) + [int(i == k) for k in range(m)]
         for i, row in enumerate(A.entries)]
    M += [[int(j == k) for k in range(n)] + [0] * m for j in range(n)]

    def row_op(i, j, q):
        # row_i -= q * row_j, over A and U
        M[i] = [x - q * y for x, y in zip(M[i], M[j])]

    t = 0
    while t < min(m, n):
        piv = min(((abs(M[i][j]), i, j) for i in range(t, m)
                   for j in range(t, n) if M[i][j]), default=None)
        if piv is None:
            break
        _, pi, pj = piv
        M[t], M[pi] = M[pi], M[t]
        for row in M:
            row[t], row[pj] = row[pj], row[t]
        p = M[t][t]
        for i in range(t + 1, m):
            if M[i][t]:
                row_op(i, t, M[i][t] // p)
        for j in range(t + 1, n):
            if M[t][j]:
                # col_j -= q * col_t, over A and V
                q = M[t][j] // p
                for row in M:
                    row[j] -= q * row[t]
        # a nonzero remainder is smaller than p: pivot again
        if (any(M[i][t] for i in range(t + 1, m))
                or any(M[t][j] for j in range(t + 1, n))):
            continue
        # p must divide every remaining entry for the chain to hold
        offender = next((i for i in range(t + 1, m) for j in range(t + 1, n)
                         if M[i][j] % p), None)
        if offender is None:
            t += 1
        else:
            row_op(t, offender, -1)

    for i in range(min(m, n)):
        if M[i][i] < 0:
            M[i] = [-x for x in M[i]]
    return SnfResult(IntMatrix.from_rows(row[n:] for row in M[:m]),
                     IntMatrix.from_rows(row[:n] for row in M[:m]),
                     IntMatrix.from_rows(row[:n] for row in M[m:]))


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


def basis_exchange(forms, s, p, v):
    """The chart of a basis B with row p replaced by v, from B's chart: or
    None if v is in the span of B's other rows.

    A chart (forms, s) has s = |det B| and forms[j], the j-th column of
    X = s B^{-1}, so that forms[j] . w is s times w's j-th coordinate in
    B.  With z_j = forms[j] . v, v's coordinates scaled by s, the new
    basis B' has |det B'| = |z_p|, zero iff v is dependent on the others;
    else its chart is s' = |z_p| and, with e = sign(z_p),
      x'_j = e (z_p x_j - z_j x_p) / s  for j != p,   x'_p = e x_p,
    one _pivot on z in the row p.  The result is s' B'^{-1} = +-adj B', an
    integer matrix, so the division is exact; and a chart is unique, so
    it equals scaled_inverse of B', transposed."""
    z = [sum(map(mul, x, v)) for x in forms]
    zp = z[p]
    if not zp:
        return None
    rows = list(forms)
    _pivot(rows, z, p, s)
    if zp < 0:
        return tuple(tuple([-x for x in row]) for row in rows), -zp
    return tuple(map(tuple, rows)), zp


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
