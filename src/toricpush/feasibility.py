"""Exact linear feasibility: Fourier-Motzkin (FM) elimination on integer rows.

A row is a pair (coeffs, rhs) meaning  sum_j coeffs[j] * x_j >= rhs, with
int entries (coeffs any sequence).  Every caller builds integer rows, and
none is rescaled here: a Fraction coefficient raises TypeError in math.gcd.
Rationals appear only in the bounds and witnesses.  Unpruned FM grows doubly
exponentially (P^5 took about 20 s to validate), so every row is divided by
the gcd of its entries once, when it enters the chain, only the tightest of
parallel rows (same primitive coefficients) is kept, rows 0 >= r <= 0 are
dropped, and a row 0 >= r > 0 ends the elimination as infeasible (Imbert;
Schrijver, Theory of Linear and Integer Programming, 12.2).  Each
projection is kept as a table of its parallel families, and an elimination
step carries the rows free of x_k into the next table as they are: only
the combined rows are new, so only they are normalised.  Pruning drops
only redundant rows, so every projected polyhedron, and with it the
feasible_point witness (midpoints of the exact bound intervals), is
exactly the unpruned one.

Every reader of the chain reads it the same way (_level): the projection
that keeps x_0..x_k bounds x_k over a prefix x_0..x_{k-1}.  feasible_point
and variable_bounds take exact Fraction bounds.  lattice_point_counter
eliminates once per coefficient matrix, keeping its leading coordinates as
parameters, and returns a count, or fiber counts at a chosen depth, for any
value of them: it takes integer ceil/floor bounds, so it visits only
prefixes of points of the projections, counts the last two coordinates
together in closed form, by floor sums along the bounding lines' envelopes,
and sweeps the coordinate before them with its rows evaluated once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd
from operator import mul

Constraint = tuple[tuple[int, ...], int]  # an integer row, as FM keeps it
# a projection by its parallel families: primitive coefficients -> the
# family's tightest row
_Families = dict[tuple[int, ...], Constraint]


def _prune(rows, tightest: _Families | None = None) -> _Families | None:
    """Prune rows into tightest, whose rows are reduced and alone in their
    families already (a new table if None): each row is divided by the gcd
    of its entries and kept only if it is tighter than its family's row,
    which it replaces in place, so a family stays where it first appears.
    Returns the table, or None if some row reads 0 >= r with r > 0.  A
    primitive row (gcd 1, the common case) is kept as the tuple it came as;
    a family's row is read again only to compare it with a new member."""
    if tightest is None:
        tightest = {}
    for row in rows:
        coeffs, rhs = row
        gc = gcd(*coeffs)
        if gc == 0:
            if rhs > 0:
                return None
            continue
        key = coeffs if gc == 1 else tuple([c // gc for c in coeffs])
        old = tightest.get(key)
        # key . x >= rhs / gc is tighter than key . x >= old_rhs / old_gc
        if old is None or rhs * gcd(*old[0]) > old[1] * gc:
            if gc > 1 and (g := gcd(gc, rhs)) > 1:
                row = (tuple([c // g for c in coeffs]), rhs // g)
            tightest[key] = row
    return tightest


def _eliminate(table: _Families, k: int) -> _Families | None:
    """The pruned projection of a table along x_k: its rows free of x_k
    carried over as they are, in their order, then b * p + a * n for each
    pair with p_k = a > 0 > -b = n_k, pruned into them.  Only the combined
    rows are normalised: a carried row is reduced and alone in its family
    already."""
    kept, pos, neg = {}, [], []
    for key, row in table.items():
        ck = key[k]
        if ck > 0:
            pos.append(row)
        elif ck < 0:
            neg.append(row)
        else:
            kept[key] = row
    return _prune(((tuple([b * x + a * y for x, y in zip(cp, cn)]),
                    b * rp + a * rn)
                   for cp, rp in pos for a in (cp[k],)
                   for cn, rn in neg for b in (-cn[k],)), kept)


def _projections(cons, nvars: int):
    """Yield the rows of S_0, ..., S_nvars, where S_j is the system after
    eliminating x_{nvars-1}, ..., x_{nvars-j}; an infeasible system ends
    with None."""
    table = _prune((tuple(c), r) for c, r in cons)
    for k in range(nvars - 1, -1, -1):
        if table is None:
            break
        yield list(table.values())
        table = _eliminate(table, k)
    yield None if table is None else list(table.values())


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
    systems = []
    for rows in _projections(cons, nvars):
        if rows is None:
            return None
        systems.append(rows)
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


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a i + b) / m) over 0 <= i < n, for n >= 0 and m > 0, by
    the Euclid-like recursion (Graham, Knuth and Patashnik, Concrete
    Mathematics, 3.5): O(log m) steps, whatever n is."""
    total = 0
    while True:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        top = a * n + b
        if top < m:  # every term is 0 now that 0 <= a, b < m
            return total
        # the same lattice points under the line, counted along its other axis
        n, b = divmod(top, m)
        m, a = a, m


def _envelope_sum(lines, lo: int, hi: int) -> int:
    """Sum of min_j floor((a_j x + b_j) / m_j) over lo <= x <= hi, for lines
    (a, b, m) with m > 0 and hi >= lo - 1: one floor sum per piece of the
    lower envelope."""
    if len(lines) == 1:  # a one-line envelope is its single floor sum
        a, b, m = lines[0]
        return _floor_sum(hi - lo + 1, m, a, a * lo + b)
    total = 0
    while lo <= hi:
        # the line lowest at lo, ties to the least slope, stays lowest up to
        # its first crossing with a line of less slope
        a, b, m = lines[0]
        for a2, b2, m2 in lines[1:]:
            d = (a2 * lo + b2) * m - (a * lo + b) * m2
            if d < 0 or (d == 0 and a2 * m < a * m2):
                a, b, m = a2, b2, m2
        end = hi
        for a2, b2, m2 in lines:
            gap = a * m2 - a2 * m
            if gap > 0:
                end = min(end, (b2 * m - b * m2) // gap)
        total += _floor_sum(end - lo + 1, m, a, a * lo + b)
        lo = end + 1
    return total


def _plane_count(lo: int, hi: int, level, prefix) -> int:
    """Integer points (x, y) with lo <= x <= hi over a prefix of the
    projection.  Each x there has a nonempty real y-interval, so its term,
    (least upper floor) - (greatest lower ceiling) + 1, is >= 0 and the sum
    splits into two envelope sums.  A y-row c . prefix + d x + e y >= r
    reads y <= floor((d x - s) / -e) if e < 0 and y >= -floor((d x - s) / e)
    if e > 0, with s = r - c . prefix."""
    lower, upper = level
    ups = [(c[-1], sum(map(mul, c, prefix)) - r, -e) for c, r, e in upper]
    downs = [(c[-1], sum(map(mul, c, prefix)) - r, e) for c, r, e in lower]
    return (hi - lo + 1 + _envelope_sum(ups, lo, hi)
            + _envelope_sum(downs, lo, hi))


def _sweep(levels, prefix) -> int:
    """Integer points (x, y, z) over a prefix of the projections, x swept in
    place: each row of the y and z levels is evaluated over the prefix once,
    as t + a x with t = c . prefix - r and a its coefficient on x, so each x
    costs one multiply-add per row for the y-span (as in _span) and for the
    plane's lines (as in _plane_count)."""
    lo, hi = _span(levels[0], prefix)
    k = len(prefix)
    (ylow, yup), (zlow, zup) = [
        [[(sum(map(mul, c, prefix)) - r, c[k], c[-1], e) for c, r, e in rows]
         for rows in level] for level in levels[1:]]
    total = 0
    for x in range(lo, hi + 1):
        ylo = max([-((t + a * x) // e) for t, a, _, e in ylow])
        yhi = min([-(t + a * x) // e for t, a, _, e in yup])
        total += (yhi - ylo + 1 + _envelope_sum(
            [(d, t + a * x, -e) for t, a, d, e in zup], ylo, yhi)
            + _envelope_sum([(d, t + a * x, e) for t, a, d, e in zlow],
                            ylo, yhi))
    return total


def _span(level, prefix) -> tuple[int, int]:
    """The integer (min, max) of the coordinate level bounds over prefix."""
    lower, upper = level
    return (max(-((sum(map(mul, c, prefix)) - r) // ck) for c, r, ck in lower),
            min((r - sum(map(mul, c, prefix))) // ck for c, r, ck in upper))


def _walk(levels, prefix) -> int:
    """Integer points over a prefix of the projections; levels[0] bounds the
    coordinate after the prefix.  A module function, not a closure: a
    closure that calls itself is a reference cycle, which would keep every
    dropped counter alive until the cyclic garbage collector runs."""
    if not levels:
        return 1
    if len(levels) == 3:
        return _sweep(levels, prefix)
    lo, hi = _span(levels[0], prefix)
    if len(levels) == 1:
        return hi - lo + 1
    if len(levels) == 2:
        return _plane_count(lo, hi, levels[1], prefix)
    rest = levels[1:]
    return sum(_walk(rest, prefix + (x,)) for x in range(lo, hi + 1))


def _fibers(levels, prefix, depth):
    """(x, _walk over x) for each extension x of the prefix by depth integer
    coordinates, in lexicographic order, whose count is > 0."""
    if not depth:
        count = _walk(levels, prefix)
        if count:
            yield prefix, count
        return
    lo, hi = _span(levels[0], prefix)
    for x in range(lo, hi + 1):
        yield from _fibers(levels[1:], prefix + (x,), depth - 1)


def lattice_point_counter(cons, nvars: int, nparams: int, depth: int = 0):
    """count(p): the number of integer points satisfying every constraint
    with x_0..x_{nparams-1} = p, or None if that fiber is nonempty and
    unbounded; a p of another length is a ValueError.  With depth > 0,
    count(p) lists those points fiber by fiber instead: a tuple of the pairs
    (x, count) for every integer x of the next depth coordinates whose fiber
    holds count > 0 of them, in lexicographic order.

    Only x_nparams..x_{nvars-1} are eliminated, once for every p.  The rows
    left free of them are the conditions on p for a nonempty fiber; which
    coordinates lack a lower or an upper bound does not depend on p.
    """
    systems = list(islice(_projections(cons, nvars), nvars - nparams + 1))
    conditions = systems[-1]
    empty = () if depth else 0
    if conditions is None:  # no point for any p: one row 0 >= 1
        conditions, levels = [((0,) * nparams, 1)], []
    else:
        levels = [_level(systems[nvars - 1 - k], k)
                  for k in range(nparams, nvars)]
    bounded = all(lower and upper for lower, upper in levels)

    def count(p):
        if len(p) != nparams:
            raise ValueError("count(p) needs len(p) == %d, got %d"
                             % (nparams, len(p)))
        if any(sum(map(mul, c, p)) < r for c, r in conditions):
            return empty
        if not bounded:
            return None
        if depth:
            return tuple((x[nparams:], n)
                         for x, n in _fibers(levels, tuple(p), depth))
        return _walk(levels, tuple(p))

    return count
