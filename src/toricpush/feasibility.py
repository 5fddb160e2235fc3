"""Exact linear feasibility: Fourier-Motzkin (FM) elimination on integer rows.

A row is a pair (coeffs, rhs) meaning  sum_j coeffs[j] * x_j >= rhs, with
int entries (coeffs any sequence).  Every caller builds integer rows, and
none is rescaled here: a Fraction coefficient raises TypeError in math.gcd.
Rationals appear only in the bounds and witnesses.  Unpruned FM grows doubly
exponentially (P^5 took about 20 s to validate), so after every
elimination step each row is divided by the gcd of its entries, only the
tightest of parallel rows (same primitive coefficients) is kept, rows
0 >= r <= 0 are dropped, and a row 0 >= r > 0 ends the elimination as
infeasible (Imbert; Schrijver, Theory of Linear and Integer Programming,
12.2).  Pruning drops only redundant rows, so every projected polyhedron,
and with it the feasible_point witness (midpoints of the exact bound
intervals), is exactly the unpruned one.

All three walkers read the chain the same way (_level): the projection that
keeps x_0..x_k bounds x_k over a prefix x_0..x_{k-1}.  feasible_point and
variable_bounds take exact Fraction bounds; count_lattice_points takes
integer ceil/floor bounds, so it visits only prefixes of points of the
polyhedron's projections and counts the last coordinate as hi - lo + 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

Constraint = tuple[tuple[int, ...], int]  # an integer row, as FM keeps it


def _prune(rows) -> list[Constraint] | None:
    """Normalized rows, the tightest of each parallel family; None if some
    row reads 0 >= r with r > 0."""
    tightest: dict[tuple[int, ...], tuple[int, int]] = {}
    for coeffs, rhs in rows:
        gc = gcd(*coeffs)
        if gc == 0:
            if rhs > 0:
                return None
            continue
        key = coeffs if gc == 1 else tuple(c // gc for c in coeffs)
        old = tightest.get(key)
        # key . x >= rhs / gc is tighter than key . x >= old_rhs / old_gc
        if old is None or rhs * old[1] > old[0] * gc:
            g = gcd(gc, rhs)
            tightest[key] = (rhs // g, gc // g)
    return [(key if gc == 1 else tuple(gc * c for c in key), rhs)
            for key, (rhs, gc) in tightest.items()]


def _eliminate(rows: list[Constraint], k: int):
    """Yield the rows of the projection along x_k, unpruned: the rows free
    of x_k, then b * p + a * n for each pair with p_k = a > 0 > -b = n_k."""
    pos, neg = [], []
    for row in rows:
        ck = row[0][k]
        if ck > 0:
            pos.append(row)
        elif ck < 0:
            neg.append(row)
        else:
            yield row
    for (cp, rp) in pos:
        a = cp[k]
        for (cn, rn) in neg:
            b = -cn[k]
            yield (tuple(b * x + a * y for x, y in zip(cp, cn)),
                   b * rp + a * rn)


def _projections(cons, nvars: int):
    """Yield S_0, ..., S_nvars, where S_j is the system after eliminating
    x_{nvars-1}, ..., x_{nvars-j}; an infeasible system ends with None."""
    rows = _prune((tuple(c), r) for c, r in cons)
    yield rows
    for k in range(nvars - 1, -1, -1):
        if rows is None:
            return
        rows = _prune(_eliminate(rows, k))
        yield rows


def _level(rows: list[Constraint], k: int):
    """The rows of a projection in x_0..x_k that bound x_k, split into lower
    and upper bounds, each as (coeffs of x_0..x_{k-1}, rhs, c_k); rows free
    of x_k were enforced on the prefix one level up."""
    lower, upper = [], []
    for coeffs, rhs in rows:
        ck = coeffs[k]
        if ck:
            (lower if ck > 0 else upper).append((coeffs[:k], rhs, ck))
    return lower, upper


def _exact_bounds(level, x) -> tuple[Fraction | None, Fraction | None]:
    """Exact (min, max) of x_k with x_0..x_{k-1} = x; None = unbounded."""
    lower, upper = level
    lo = max((Fraction(r - sum(map(mul, c, x)), ck) for c, r, ck in lower),
             default=None)
    hi = min((Fraction(r - sum(map(mul, c, x)), ck) for c, r, ck in upper),
             default=None)
    return lo, hi


def feasible_point(cons, nvars: int) -> list[Fraction] | None:
    """A rational point satisfying every constraint, or None if infeasible.

    The point is chosen deterministically (midpoints of the FM bound
    intervals, 0 on unbounded coordinates).
    """
    systems = list(_projections(cons, nvars))
    if systems[-1] is None:
        return None
    x: list[Fraction] = []
    for k in range(nvars):
        # systems[nvars - 1 - k] involves variables 0..k only
        lo, hi = _exact_bounds(_level(systems[nvars - 1 - k], k), x)
        if lo is None and hi is None:
            x.append(Fraction(0))
        elif lo is None:
            x.append(hi)
        elif hi is None:
            x.append(lo)
        else:
            x.append((lo + hi) / 2)
    return x


def variable_bounds(cons, nvars: int,
                    i: int) -> tuple[Fraction | None, Fraction | None]:
    """Exact (min, max) of x_i over the feasible region; None = unbounded.

    The region must be nonempty (feasible_point is not None).
    """
    # with x_i moved to the front, the last projection bounds x_i alone
    systems = list(_projections(
        [((c[i], *c[:i], *c[i + 1:]), r) for c, r in cons], nvars))
    if systems[-1] is None:
        raise ValueError("variable_bounds of an infeasible system")
    return _exact_bounds(_level(systems[nvars - 1], 0), ())


def count_lattice_points(cons, nvars: int) -> int | None:
    """Number of integer points satisfying every constraint; None if the
    region is nonempty and unbounded."""
    systems = list(_projections(cons, nvars))
    if systems[-1] is None:
        return 0
    levels = [_level(systems[nvars - 1 - k], k) for k in range(nvars)]
    if not all(lower and upper for lower, upper in levels):
        return None  # some x_k is unbounded over every prefix

    def count(prefix, k):
        lower, upper = levels[k]
        lo = max(-((sum(map(mul, c, prefix)) - r) // ck)
                 for c, r, ck in lower)
        hi = min((r - sum(map(mul, c, prefix))) // ck for c, r, ck in upper)
        if k == nvars - 1:
            return max(hi - lo + 1, 0)
        return sum(count(prefix + (x,), k + 1) for x in range(lo, hi + 1))

    return count((), 0) if nvars else 1
