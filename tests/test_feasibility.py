"""Differential tests of the integer Fourier-Motzkin engine against a plain,
unpruned Fraction FM kept here as the reference, of the lattice-point
counter against a box-then-filter count, and of its floor sums against
direct summation.

The generators draw rational rows; the engine takes integer rows only, so
each row is scaled by the lcm of its denominators (integer_rows) before the
engine sees it, while the references run on the rational rows as drawn."""

import hashlib
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toricpush.divisors as divisors_module
import toricpush.endos as endos_module
import toricpush.fans as fans_module
import toricpush.feasibility as feasibility_module
from conftest import ORACLE_FANS, bundled_fans
from toricpush import (EndoError, class_group, hirzebruch, is_int_amplified,
                       is_projective, multiplication_endo, product_fan,
                       projective_space, validate_fan)
from toricpush.feasibility import (_envelope_sum, _floor_sum, _projections,
                                   _prune, feasible_point,
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

    # _prune keeps the tightest row of each parallel family where the family
    # first appeared, so each projection keeps its rows in one order
    def test_prune_tighter_non_primitive_row_replaces(self):
        # 2x + 2y >= 3 is x + y >= 3/2: it takes x + y >= 1's place
        rows = [((1, 1), 1), ((0, 1), 0), ((2, 2), 3)]
        assert list(_prune(rows).values()) == [((2, 2), 3), ((0, 1), 0)]

    def test_prune_looser_primitive_row_dropped(self):
        rows = [((2, 2), 3), ((0, 1), 0), ((1, 1), 1)]
        assert list(_prune(rows).values()) == [((2, 2), 3), ((0, 1), 0)]

    def test_prune_tie_keeps_the_first_row(self):
        first, second = ((1, -1), 2), (tuple([1, -1]), 2)
        kept = list(_prune([first, ((1, 0), 0), second,
                            ((3, -3), 6)]).values())
        assert kept == [((1, -1), 2), ((1, 0), 0)]
        assert kept[0] is first

    def test_prune_divides_out_a_common_factor(self):
        # 2x + 4y >= 6 is x + 2y >= 3; in 2x + 4y >= 3 the rhs shares no
        # factor with the coefficients, so that row stays as it is
        assert list(_prune([((2, 4), 6), ((0, -3), 3)]).values()) == [
            ((1, 2), 3), ((0, -1), 1)]
        assert list(_prune([((2, 4), 3)]).values()) == [((2, 4), 3)]

    # eliminating y from x >= 0, y >= 0, x - y >= r', -x >= -10: the
    # combined row x >= r' meets the carried row x >= 0 in its family
    def test_tighter_combined_row_takes_the_carried_rows_place(self):
        rows = [((1, 0), 0), ((0, 1), 0), ((1, -1), 2), ((-1, 0), -10)]
        assert list(_projections(rows, 2))[1] == [((1, 0), 2),
                                                  ((-1, 0), -10)]
        # 2x - 2y >= 3 with 2y >= 0 gives 2x >= 3, x >= 3/2: kept unreduced
        rows[2] = ((2, -2), 3)
        assert list(_projections(rows, 2))[1] == [((2, 0), 3),
                                                  ((-1, 0), -10)]

    def test_looser_combined_row_is_dropped(self):
        rows = [((1, 0), 0), ((0, 1), 0), ((1, -1), -3), ((-1, 0), -10)]
        chain = list(_projections(rows, 2))
        assert chain[1] == [((1, 0), 0), ((-1, 0), -10)]
        assert chain[1][0] is chain[0][0]


def test_carried_rows_are_not_normalised_again(monkeypatch):
    # a P2xP2 overlap system (P4's pairs all share a wall, and the wall
    # sign decides them): when x_k is eliminated, math.gcd sees each
    # combined row once, in order (up to the row that makes the system
    # infeasible); a row of the previous projection only when a combined
    # row falls into its family and the two are compared
    systems = []

    def recording(cons, nvars):
        systems.append(([(tuple(c), r) for c, r in cons], nvars))
        return feasible_point(cons, nvars)

    monkeypatch.setattr(fans_module, "feasible_point", recording)
    p2xp2 = product_fan(projective_space(2), projective_space(2))
    validate_fan(p2xp2.dim, p2xp2.rays, p2xp2.max_cones)
    cons, nvars = systems[0]

    def family(coeffs):
        g = gcd(*coeffs)
        return tuple(c // g for c in coeffs)

    seen = []

    def recording_gcd(*args):
        if len(args) == nvars:  # not the gcd of a row's gcd and its rhs
            seen.append(args)
        return gcd(*args)

    monkeypatch.setattr(feasibility_module, "gcd", recording_gcd)
    chain = _projections(cons, nvars)
    rows, untouched = next(chain), 0
    for k in range(nvars - 1, -1, -1):
        seen.clear()
        projected = next(chain)
        pos = [c for c, _ in rows if c[k] > 0]
        neg = [c for c, _ in rows if c[k] < 0]
        combined = [tuple(-cn[k] * x + cp[k] * y for x, y in zip(cp, cn))
                    for cp in pos for cn in neg]
        left = iter(seen)  # the combined rows that gcd saw, in order
        normalised = [c for c in combined if c in left]
        if projected is None:
            assert normalised and normalised == combined[:len(normalised)]
        else:
            assert normalised == combined
        met = {family(c) for c in combined if any(c)}
        for c, _ in rows:
            if c[k] == 0 and family(c) not in met:
                assert c not in seen
                untouched += 1
        assert all(c in combined or family(c) in met for c in seen)
        if projected is None:
            break
        rows = projected
    assert untouched > 0


# ------------------------------------------------------ the chain, pinned

def test_chain_pinned(monkeypatch):
    # every system that validate_fan, is_projective and is_int_amplified
    # solve, with every projection of its FM chain and its witness, pinned
    # by digest: pruning may get cheaper, but it keeps the same rows in the
    # same order.  is_projective and is_int_amplified pass one row per
    # distinct wall form (the ample rows); validate_fan poses one system in
    # a cone's chart for each pair of cones whose second has two or more
    # rays off the first (the overlap systems), and reads the others off
    # their rows.  The two kinds are pinned apart
    solved = {fans_module: [], divisors_module: [], endos_module: []}

    def recording(module):
        def record(cons, nvars):
            rows = [(tuple(c), r) for c, r in cons]
            point = feasible_point(cons, nvars)
            solved[module].append(
                (rows, nvars, list(_projections(rows, nvars)), point))
            return point
        return record

    for module in solved:
        monkeypatch.setattr(module, "feasible_point", recording(module))
    bundled = list(bundled_fans().values())  # validated as they load
    oracle = [fan for fan, _ in ORACLE_FANS.values()]
    # the fan shapes that the fan-validate benchmark relabels
    p1, f1, f2 = projective_space(1), hirzebruch(1), hirzebruch(2)
    shapes = [projective_space(4), product_fan(projective_space(3), p1),
              product_fan(projective_space(2), projective_space(2)),
              product_fan(f2, p1),
              product_fan(product_fan(p1, p1), product_fan(p1, p1)),
              product_fan(f1, f2)]
    for fan in oracle + shapes:
        validate_fan(fan.dim, fan.rays, fan.max_cones)
    for fan in bundled:
        is_projective(fan)
    for fan in bundled + oracle:
        try:
            is_int_amplified(multiplication_endo(fan, 2), class_group(fan))
        except EndoError:  # no ample class: Oda's threefold
            pass
    overlap = solved[fans_module]
    ample = solved[divisors_module] + solved[endos_module]
    assert [(len(systems), hashlib.md5(repr(systems).encode()).hexdigest())
            for systems in (overlap, ample)] == [
        (304, "c1cb3c0548f3ab9a0bbd08f1449c603f"),
        (24, "3b969d8573e337ae8fa413ce3d02a09b")]


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
    @given(boxed_systems(4), st.integers(0, 1))
    def test_matches_box_then_filter(self, system, nparams):
        # one counter answers for every value of its parameters; in 3 and
        # 4 variables the walk sweeps a coordinate in place, under a
        # parameter or under a fourth coordinate that recurses
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
