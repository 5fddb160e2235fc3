"""Differential tests of the integer Fourier-Motzkin engine against a plain,
unpruned Fraction FM kept here as the reference, of the lattice-point
counter against a box-then-filter count, and of its floor sums against
direct summation.

The generators draw rational rows; the engine takes integer rows only, so
each row is scaled by the lcm of its denominators (integer_rows) before the
engine sees it, while the references run on the rational rows as drawn."""

from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricpush.feasibility import (_envelope_sum, _floor_sum, feasible_point,
                                   lattice_point_counter, variable_bounds)


# ---------------------------------------------------------------- reference
# Unpruned FM on Fraction rows, with the same witness and bound rules.

def ref_rows(cons):
    return [(tuple(Fraction(c) for c in coeffs), Fraction(rhs))
            for coeffs, rhs in cons]


def ref_eliminate(cons, k):
    pos, neg, out = [], [], []
    for c in cons:
        ck = c[0][k]
        if ck > 0:
            pos.append(c)
        elif ck < 0:
            neg.append(c)
        else:
            out.append(c)
    for (cp, rp) in pos:
        for (cn, rn) in neg:
            a, b = cp[k], cn[k]
            out.append((tuple(-b * x + a * y for x, y in zip(cp, cn)),
                        -b * rp + a * rn))
    return out


def ref_feasible_point(cons, nvars):
    current = ref_rows(cons)
    systems = [current]
    for k in range(nvars - 1, -1, -1):
        current = ref_eliminate(current, k)
        systems.append(current)
    if any(rhs > 0 for _, rhs in systems[-1]):
        return None
    x = []
    for k in range(nvars):
        lo = hi = None
        for coeffs, rhs in systems[nvars - 1 - k]:
            ck = coeffs[k]
            if ck == 0:
                continue
            rest = sum((coeffs[j] * x[j] for j in range(k)), Fraction(0))
            bound = (rhs - rest) / ck
            if ck > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            x.append(Fraction(0))
        elif lo is None:
            x.append(hi)
        elif hi is None:
            x.append(lo)
        else:
            x.append((lo + hi) / 2)
    return x


def ref_variable_bounds(cons, nvars, i):
    current = ref_rows(cons)
    for k in range(nvars):
        if k != i:
            current = ref_eliminate(current, k)
    lo = hi = None
    for coeffs, rhs in current:
        ck = coeffs[i]
        if ck == 0:
            continue
        bound = rhs / ck
        if ck > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    return lo, hi


# --------------------------------------------------------------- generators

def integer_rows(cons):
    """Each rational row times the lcm of its denominators: the same
    half-space with integer entries."""
    out = []
    for coeffs, rhs in cons:
        entries = [Fraction(x) for x in (*coeffs, rhs)]
        d = lcm(*(x.denominator for x in entries))
        *scaled, r = [int(x * d) for x in entries]
        out.append((scaled, r))
    return out


def equality_rows(coeffs, rhs):
    """coeffs . x = rhs as the pair of rows coeffs . x >= rhs and
    -coeffs . x >= -rhs."""
    return [(coeffs, rhs), ([-c for c in coeffs], -rhs)]


NUMBERS = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)


@st.composite
def systems(draw):
    """(rows, nvars): up to 4 free rows in <= 4 variables, optionally an
    equality pair and, in <= 3 variables, a box -b <= x_i <= b.  The sizes
    keep the unpruned reference at a few thousand rows at most."""
    nvars = draw(st.integers(1, 4))
    row = st.tuples(st.lists(NUMBERS, min_size=nvars, max_size=nvars), NUMBERS)
    rows = [tuple(r) for r in draw(st.lists(row, max_size=4))]
    if draw(st.booleans()):
        coeffs, rhs = draw(row)
        rows += equality_rows(coeffs, rhs)
    if nvars <= 3 and draw(st.booleans()):
        b = draw(st.integers(0, 3))
        for i in range(nvars):
            unit = [int(i == j) for j in range(nvars)]
            rows += [(unit, -b), ([-u for u in unit], -b)]
    return rows, nvars


def satisfies(point, cons):
    return all(sum(Fraction(c) * x for c, x in zip(coeffs, point))
               >= Fraction(rhs) for coeffs, rhs in cons)


class TestAgainstUnprunedFM:
    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_same_verdict_and_witness(self, system):
        cons, nvars = system
        rows = integer_rows(cons)
        point = feasible_point(rows, nvars)
        assert point == ref_feasible_point(cons, nvars)
        if point is not None:
            assert satisfies(point, cons)

    @settings(max_examples=200, deadline=None)
    @given(systems())
    def test_same_bounds(self, system):
        cons, nvars = system
        rows = integer_rows(cons)
        if feasible_point(rows, nvars) is None:
            return
        for i in range(nvars):
            assert (variable_bounds(rows, nvars, i)
                    == ref_variable_bounds(cons, nvars, i))


POSITIVE = st.integers(1, 12)


def count_all(cons, nvars):
    """Every integer point of the region: the counter with no parameters."""
    return lattice_point_counter(cons, nvars, 0)(())


def solve_all(cons, nvars):
    """Every answer the engine gives about one system."""
    point = feasible_point(cons, nvars)
    return (point,
            [variable_bounds(cons, nvars, i) for i in range(nvars)]
            if point is not None else None,
            count_all(cons, nvars))


class TestRowScaling:
    @settings(max_examples=200, deadline=None)
    @given(systems(), st.data())
    def test_positive_row_scaling_is_invisible(self, system, data):
        # a row times a positive integer is the same half-space; pruning
        # divides it back out
        cons, nvars = integer_rows(system[0]), system[1]
        factors = data.draw(st.lists(POSITIVE, min_size=len(cons),
                                     max_size=len(cons)))
        scaled = [([t * c for c in coeffs], t * rhs)
                  for (coeffs, rhs), t in zip(cons, factors)]
        assert solve_all(scaled, nvars) == solve_all(cons, nvars)

    @pytest.mark.parametrize("solve", [feasible_point, count_all])
    def test_fraction_row_raises(self, solve):
        # x >= 1 together with x / 2 >= 1: rational rows are the caller's
        # to scale
        with pytest.raises(TypeError):
            solve([([1], 1), ([Fraction(1, 2)], 1)], 1)


def check_against_reference(cons, nvars):
    point = feasible_point(cons, nvars)
    assert point == ref_feasible_point(cons, nvars)
    if point is not None:
        assert satisfies(point, cons)
        for i in range(nvars):
            assert (variable_bounds(cons, nvars, i)
                    == ref_variable_bounds(cons, nvars, i))
    return point


class TestFixedCases:
    def test_parallel_rows_keep_the_tightest(self):
        # x >= 1, 2x >= 5, 3x >= 2, -2x >= -20: the binding row is 2x >= 5
        cons = [([1], 1), ([2], 5), ([3], 2), ([-2], -20)]
        assert variable_bounds(cons, 1, 0) == (Fraction(5, 2), 10)
        assert check_against_reference(cons, 1) == [Fraction(25, 4)]

    def test_parallel_rows_in_a_projection(self):
        # eliminating y leaves x >= 1 and x >= 3/2 (parallel); x <= 2
        cons = [([1, 1], 2), ([1, -1], 0), ([2, 0], 3), ([-1, 0], -2)]
        assert variable_bounds(cons, 2, 0) == (Fraction(3, 2), 2)
        check_against_reference(cons, 2)

    def test_zero_row_with_positive_rhs_is_infeasible(self):
        cons = [([1, 0], 0), ([0, 0], 1)]
        assert check_against_reference(cons, 2) is None
        with pytest.raises(ValueError, match="infeasible"):
            variable_bounds(cons, 2, 0)

    def test_zero_row_with_nonpositive_rhs_is_dropped(self):
        cons = [([1], 0), ([0], -1), ([0], 0), ([-1], -4)]
        assert check_against_reference(cons, 1) == [2]

    def test_contradiction_found_in_projection(self):
        # x + y >= 3 with x <= 1 and y <= 1
        cons = [([1, 1], 3), ([-1, 0], -1), ([0, -1], -1)]
        assert check_against_reference(cons, 2) is None

    def test_equality_pair(self):
        # x + 2y = 3 with x, y >= 0
        cons = equality_rows([1, 2], 3) + [([1, 0], 0), ([0, 1], 0)]
        assert variable_bounds(cons, 2, 1) == (0, Fraction(3, 2))
        assert variable_bounds(cons, 2, 0) == (0, 3)
        point = check_against_reference(cons, 2)
        assert point[0] + 2 * point[1] == 3

    def test_unbounded_coordinates(self):
        cons = [([1, 0], 2)]
        assert variable_bounds(cons, 2, 0) == (2, None)
        assert variable_bounds(cons, 2, 1) == (None, None)
        assert check_against_reference(cons, 2) == [2, 0]


# ----------------------------------------------------- lattice-point counts

def ref_count(cons, nvars, b, prefix=()):
    """Integer points of the box [-b, b]^nvars that start with prefix and
    satisfy every row."""
    return sum(1 for p in product(range(-b, b + 1),
                                  repeat=nvars - len(prefix))
               if satisfies(prefix + p, cons))


@st.composite
def boxed_systems(draw, max_vars=3):
    """(rows, nvars, b): up to 4 free rows and maybe an equality pair in
    <= max_vars variables, always with the box rows -b <= x_i <= b; b <= 5,
    or b <= 2 in 4 variables, to keep the box at 625 points."""
    nvars = draw(st.integers(1, max_vars))
    row = st.tuples(st.lists(NUMBERS, min_size=nvars, max_size=nvars), NUMBERS)
    rows = [tuple(r) for r in draw(st.lists(row, max_size=4))]
    if draw(st.booleans()):
        coeffs, rhs = draw(row)
        rows += equality_rows(coeffs, rhs)
    b = draw(st.integers(0, 5 if nvars <= 3 else 2))
    for i in range(nvars):
        unit = [int(i == j) for j in range(nvars)]
        rows += [(unit, -b), ([-u for u in unit], -b)]
    return rows, nvars, b


class TestCountLatticePoints:
    @settings(max_examples=300, deadline=None)
    @given(boxed_systems(), st.integers(0, 1))
    def test_matches_box_then_filter(self, system, nparams):
        # one counter answers for every value of its parameters
        rows, nvars, b = system
        count = lattice_point_counter(integer_rows(rows), nvars, nparams)
        for p in product(range(-b, b + 1), repeat=nparams):
            assert count(p) == ref_count(rows, nvars, b, p)

    @settings(max_examples=200, deadline=None)
    @given(boxed_systems(4), st.data())
    def test_fibers_match_box_then_filter(self, system, data):
        # at a chosen depth, the counter lists the nonempty fibers over the
        # next coordinates in lexicographic order; at every depth they sum
        # to the plain count
        rows, nvars, b = system
        cons = integer_rows(rows)
        nparams = data.draw(st.integers(0, min(2, nvars - 1)))
        depth = data.draw(st.integers(1, nvars - nparams))
        p = tuple(data.draw(st.lists(st.integers(-b, b), min_size=nparams,
                                     max_size=nparams)))
        want = tuple((x, n) for x in product(range(-b, b + 1), repeat=depth)
                     if (n := ref_count(rows, nvars, b, p + x)))
        assert lattice_point_counter(cons, nvars, nparams, depth)(p) == want
        total = lattice_point_counter(cons, nvars, nparams)(p)
        for d in range(1, nvars - nparams + 1):
            fibers = lattice_point_counter(cons, nvars, nparams, d)(p)
            assert sum(n for _, n in fibers) == total

    @pytest.mark.parametrize("cons", [
        [([1, 1], 0), ([-1, -1], -2)],  # 0 <= x + y <= 2
        [([1, 1], 3), ([-1, 0], -1), ([0, -1], -1)],  # infeasible
    ], ids=["feasible", "infeasible"])
    @pytest.mark.parametrize("depth", [0, 1])
    def test_parameters_of_the_wrong_length_refused(self, cons, depth):
        # count(p) reads p with zip, which would truncate a longer p
        count = lattice_point_counter(cons, 2, 1, depth)
        for p in [(), (0, 0), (0, 0, 0)]:
            with pytest.raises(ValueError, match=r"needs len\(p\) == 1, got"):
                count(p)

    def test_fibers_of_an_infeasible_system(self):
        # x + y >= 3 with x, y <= 1: no fiber, at any parameter
        cons = [([1, 1], 3), ([-1, 0], -1), ([0, -1], -1)]
        assert lattice_point_counter(cons, 2, 0, 1)(()) == ()
        assert lattice_point_counter(cons, 2, 1, 1)((0,)) == ()

    def test_infeasible(self):
        cons = [([1, 1], 3), ([-1, 0], -1), ([0, -1], -1)]
        assert count_all(cons, 2) == 0

    def test_single_point(self):
        # 1 <= x <= 1, y = 2 - x
        cons = [([1, 0], 1), ([-1, 0], -1)] + equality_rows([1, 1], 2)
        assert count_all(cons, 2) == 1

    def test_equality_pair(self):
        # x + 2y = 3 with x, y >= 0: the points (3, 0) and (1, 1)
        cons = equality_rows([1, 2], 3) + [([1, 0], 0), ([0, 1], 0)]
        assert count_all(cons, 2) == 2

    def test_fractional_bounds(self):
        # 1/2 <= x <= 7/2, 0 <= 3y <= x: x in {1, 2, 3}, y in [0, x/3]
        cons = [([2, 0], 1), ([-2, 0], -7), ([0, 3], 0), ([1, -3], 0)]
        assert count_all(cons, 2) == 4

    def test_unbounded_in_one_coordinate(self):
        # 0 <= x <= 3 with y >= 0 only
        cons = [([1, 0], 0), ([-1, 0], -3), ([0, 1], 0)]
        assert count_all(cons, 2) is None
        # a line with no lattice points is unbounded all the same
        cons = equality_rows([2, 0], 1)
        assert count_all(cons, 2) is None


# --------------------------------------------------------------- floor sums

@st.composite
def envelope_lines(draw):
    """1 to 5 lines (a, b, m), each free, through one common integer
    point (so ties at a crossing), or a multiple of an earlier line."""
    x0, y0 = draw(st.integers(-8, 8)), draw(st.integers(-8, 8))
    out = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(
            ("free", "through", "equal") if out else ("free", "through")))
        if kind == "equal":
            a, b, m = draw(st.sampled_from(out))
            t = draw(st.integers(1, 3))
            out.append((t * a, t * b, t * m))
            continue
        a, m = draw(st.integers(-6, 6)), draw(st.integers(1, 4))
        b = (m * y0 - a * x0 if kind == "through"
             else draw(st.integers(-30, 30)))
        out.append((a, b, m))
    return out


class TestFloorSums:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 30), st.integers(1, 9), st.integers(-40, 40),
           st.integers(-40, 40))
    def test_floor_sum(self, n, m, a, b):
        assert _floor_sum(n, m, a, b) == sum((a * i + b) // m
                                             for i in range(n))

    @settings(max_examples=300, deadline=None)
    @given(envelope_lines(), st.integers(-12, 12), st.integers(0, 25))
    @example([(1, 0, 1), (-1, 0, 1)], -3, 7)  # -|x|, tied at 0
    @example([(2, 1, 3), (2, 1, 3), (4, 2, 6)], -5, 11)  # one line thrice
    def test_envelope_sum(self, lines, lo, length):
        hi = lo + length - 1
        assert _envelope_sum(lines, lo, hi) == sum(
            min((a * x + b) // m for a, b, m in lines)
            for x in range(lo, hi + 1))
