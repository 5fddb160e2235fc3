import hashlib
import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import axis_expansion, box_cosets, corpus_pairs, labelled_fans
from toricpush import (FanError, IntMatrix, LatticeError, class_group,
                       coset_representatives, pullback_matrix,
                       smith_normal_form, validate_fan)
from toricpush.lattice import basis_exchange, scaled_inverse


def mat(rows):
    return IntMatrix.from_rows(rows)


def leibniz_det(rows):
    """Reference determinant: the signed sum over all permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(
            row[j] for row, j in zip(rows, perm))
    return total


def check_snf_invariants(a):
    res = smith_normal_form(a)
    assert (res.U @ a @ res.V).entries == res.S.entries
    assert abs(res.U.det()) == 1
    assert abs(res.V.det()) == 1
    diag = res.invariant_factors()
    assert all(d >= 0 for d in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    # off-diagonal zero
    for i, row in enumerate(res.S.entries):
        for j, e in enumerate(row):
            assert e == 0 or i == j
    return res


class TestSmithNormalForm:
    def test_identity(self):
        res = check_snf_invariants(IntMatrix.identity(2))
        assert res.S == IntMatrix.identity(2)
        assert res.U == IntMatrix.identity(2)
        assert res.V == IntMatrix.identity(2)

    def test_diag_2_3(self):
        res = check_snf_invariants(mat([[2, 0], [0, 3]]))
        assert res.invariant_factors() == (1, 6)

    def test_upper_triangular(self):
        # |det| = 4 is preserved and the entry gcd forces the first factor to 1
        res = check_snf_invariants(mat([[2, 1], [0, 2]]))
        assert res.invariant_factors() == (1, 4)

    def test_deterministic(self):
        a = mat([[6, 4, 2], [4, 10, 6], [2, 6, 8]])
        r1 = smith_normal_form(a)
        r2 = smith_normal_form(a)
        assert r1 == r2

    def test_rectangular(self):
        res = check_snf_invariants(mat([[1, 0], [0, 1], [-1, -1]]))
        assert res.invariant_factors() == (1, 1)

    def test_zero_row(self):
        res = check_snf_invariants(mat([[0, 0], [0, 5]]))
        assert res.invariant_factors() == (5, 0)

    def test_transforms_pinned(self):
        # U, S and V entry for entry, pinned by digest: the pivot rule and the
        # order of the operations fix the transforms, and with them the
        # Picard basis and every printed class
        rng = random.Random(20201)
        shapes = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(600)]
        randoms = [[[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
                   for m, n in shapes]
        for k, rows in enumerate(randoms[::3]):
            rows[k % len(rows)] = [0] * len(rows[0])
        mats = []
        for _, fan in labelled_fans():
            # the ray matrix's U below the first n rows: the Picard basis
            # before class_group took the first maximal cone's gauge
            snf = smith_normal_form(mat(fan.rays))
            mats += [mat(fan.rays),
                     IntMatrix.from_rows(snf.U.entries[fan.dim:])]
        mats += [pullback_matrix(endo, class_group(fan))
                 for _, fan, endo in corpus_pairs()]
        mats += map(mat, randoms)
        snfs = [smith_normal_form(a) for a in mats]
        digest = hashlib.md5(repr([(r.U.entries, r.S.entries, r.V.entries)
                                   for r in snfs]).encode()).hexdigest()
        assert (len(mats), digest) == (645, "19bcbccbffb919c4c5ae628699ee6c70")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=4),
                    min_size=1, max_size=4).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_invariants_random(self, rows):
        check_snf_invariants(mat(rows))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_det_preserved_up_to_sign(self, rows):
        a = mat(rows)
        res = check_snf_invariants(a)
        prod = 1
        for d in res.invariant_factors():
            prod *= d
        assert prod == abs(a.det())


def coset_reduce(F: IntMatrix, x) -> tuple[int, ...]:
    """Reference: the canonical representative of x mod F(Z^n), reduced
    coordinatewise modulo the invariant factors in U-coordinates."""
    snf = smith_normal_form(F)
    y = snf.U.mul_vector(x)
    y = tuple(yi % d for yi, d in zip(y, snf.invariant_factors()))
    return scaled_inverse(snf.U)[0].mul_vector(y)


class TestCosetOrder:
    """coset_representatives walks the SNF axes in mixed-radix order, last
    axis fastest: the order that coset-count prints."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_lines_expand_in_walk_order(self, rows):
        f = mat(rows)
        assume(f.det() != 0)
        assert coset_representatives(f) == axis_expansion(f)

    @pytest.mark.parametrize("rows, step, d, diagonal", [
        # d = 1: every line is its start alone
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (0, 0, 1), 1, True),
        # a negative step entry, two lines, U^{-1} not diagonal
        ([[6, 0], [0, 4]], (-1, 1), 12, False),
        # a zero and a negative step entry
        ([[1, 2], [3, -4]], (0, -1), 10, False),
        ([[-5]], (-1,), 5, True),
    ])
    def test_ranges_of_every_sign(self, rows, step, d, diagonal):
        # the last axis steps by the last column of U^{-1}, d times
        f = mat(rows)
        snf = smith_normal_form(f)
        uinv = scaled_inverse(snf.U)[0].entries
        assert (tuple(row[-1] for row in uinv),
                snf.invariant_factors()[-1]) == (step, d)
        assert diagonal == all(x == 0 for i, row in enumerate(uinv)
                               for j, x in enumerate(row) if i != j)
        reps = coset_representatives(f)
        assert reps == axis_expansion(f)
        assert reps[:d] == [tuple(j * t for t in step) for j in range(d)]


class TestCosetRepresentatives:
    def test_two_identity(self):
        f = IntMatrix.identity(2).scale(2)
        reps = coset_representatives(f)
        assert len(reps) == 4
        assert len({tuple(r[i] % 2 for i in range(2)) for r in reps}) == 4

    def test_swap_sublattice(self):
        # F^T Z^2 for the P1xP1 swap endomorphism is {(2b, a)}; representatives
        # must differ in first-coordinate parity.  Oracle: reduce a fundamental
        # domain's worth of points and compare the classes.
        f = mat([[0, 2], [1, 0]])
        reps = coset_representatives(f)
        assert len(reps) == 2
        assert {r[0] % 2 for r in reps} == {0, 1}
        brute = {coset_reduce(f, p) for p in [(0, 0), (1, 0), (0, 1), (1, 1)]}
        assert brute == set(reps)

    def test_identity_lattice(self):
        assert coset_representatives(IntMatrix.identity(3)) == [(0, 0, 0)]

    def test_singular_rejected(self):
        with pytest.raises(LatticeError, match="finite-index"):
            coset_representatives(mat([[1, 1], [2, 2]]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_walk_matches_box_products(self, rows):
        # the mixed-radix walk gives exactly the per-coset products U^{-1} w,
        # list and order alike
        f = mat(rows)
        assume(f.det() != 0)
        assert coset_representatives(f) == box_cosets(f)

    @pytest.mark.parametrize("rows", [[[2, 1, 0], [0, 3, 1], [1, 0, 4]],
                                      [[6, 0], [0, 4]], [[0, 2], [1, 0]],
                                      [[-5]]])
    def test_lines_run_along_the_last_axis(self, rows):
        # the representatives are the box cosets, in runs of d, the last
        # (largest) SNF factor, each run one step of U^{-1}'s last column
        # apart
        f = mat(rows)
        snf = smith_normal_form(f)
        d = snf.invariant_factors()[-1]
        step = tuple(row[-1] for row in scaled_inverse(snf.U)[0].entries)
        reps = coset_representatives(f)
        assert reps == box_cosets(f)
        assert len(reps) == abs(f.det())
        for start in range(0, len(reps), d):
            assert reps[start:start + d] == [
                tuple(a + j * b for a, b in zip(reps[start], step))
                for j in range(d)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                    min_size=2, max_size=2).filter(
                        lambda rows: rows[0][0] * rows[1][1]
                        - rows[0][1] * rows[1][0] != 0))
    def test_cardinality_and_idempotence(self, rows):
        f = mat(rows)
        reps = coset_representatives(f)
        assert len(reps) == abs(f.det())
        for r in reps:
            assert coset_reduce(f, r) == r
        # pairwise inequivalent: differences are never in F(Z^2), that is
        # F^{-1} diff = X diff / d is never integral
        x, d = scaled_inverse(f)
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                diff = tuple(p - q for p, q in zip(a, b))
                assert any(e % d for e in x.mul_vector(diff))


def one_cone_smooth(rays):
    """validate_fan's smoothness verdict on the fan of one cone."""
    return validate_fan(len(rays[0]), rays, [range(len(rays))])[1].smooth


class TestConeIsSmooth:
    def test_standard_basis(self):
        assert one_cone_smooth([(1, 0), (0, 1)])

    def test_index_two_cone(self):
        assert not one_cone_smooth([(1, 0), (1, 2)])

    def test_partial_basis_extends(self):
        assert one_cone_smooth([(1, 0)])

    def test_non_primitive_rejected(self):
        with pytest.raises(FanError, match="ray not primitive"):
            one_cone_smooth([(2, 0), (0, 1)])

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([[(1, 0), (0, 1)], [(1, 0), (1, 2)],
                            [(1, 1), (0, 1)], [(2, 1), (1, 1)],
                            [(1, 2), (1, 3)], [(3, 1), (2, 1)]]),
           st.sampled_from([[[1, 0], [0, 1]], [[1, 1], [0, 1]],
                            [[1, 0], [1, 1]], [[2, 1], [1, 1]],
                            [[0, -1], [1, 0]], [[1, -2], [0, -1]]]))
    def test_unimodular_invariance(self, rays, change):
        g = mat(change)
        assert abs(g.det()) == 1
        moved = [g.mul_vector(r) for r in rays]
        assert one_cone_smooth(rays) == one_cone_smooth(moved)


@st.composite
def square_matrices(draw, max_n=5, entries=st.integers(-5, 5)):
    n = draw(st.integers(1, max_n))
    return mat([[draw(entries) for _ in range(n)] for _ in range(n)])


@st.composite
def unimodular_matrices(draw):
    """Products of elementary matrices: row additions and sign flips."""
    n = draw(st.integers(1, 5))
    m = IntMatrix.identity(n)
    for _ in range(draw(st.integers(0, 8))):
        e = [list(row) for row in IntMatrix.identity(n).entries]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            e[i][i] = -1
        else:
            e[i][j] = draw(st.integers(-3, 3))
        m = mat(e) @ m
    return m


class TestDeterminant:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(square_matrices(),
                     square_matrices(entries=st.integers(-1, 1))))
    @example(mat([[0]]))
    @example(mat([[1, 2], [2, 4]]))
    @example(mat([[0, 1, 2], [0, 3, 4], [5, 6, 7]]))
    def test_matches_leibniz(self, m):
        assert m.det() == leibniz_det(m.entries)


class TestScaledInverse:
    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_scaled_inverse(self, m):
        det = leibniz_det(m.entries)
        if det == 0:
            with pytest.raises(LatticeError, match="^matrix is singular$"):
                scaled_inverse(m)
            return
        x, d = scaled_inverse(m)
        assert d == abs(det)
        assert m @ x == IntMatrix.identity(m.nrows).scale(d)

    def test_non_square_rejected(self):
        with pytest.raises(LatticeError):
            scaled_inverse(mat([[1, 0, 0], [0, 1, 0]]))

    @settings(max_examples=100, deadline=None)
    @given(unimodular_matrices())
    def test_inverse_unimodular(self, m):
        x, d = scaled_inverse(m)
        assert d == 1
        assert x @ m == IntMatrix.identity(m.nrows)

    @pytest.mark.parametrize("rows", [[[2, 0], [0, 1]], [[1, 1], [-1, 1]],
                                      [[0, 2, 0], [1, 0, 0], [0, 0, -1]]])
    def test_det_two_scale(self, rows):
        assert abs(leibniz_det(rows)) == 2
        x, d = scaled_inverse(mat(rows))
        assert d == 2
        assert mat(rows) @ x == IntMatrix.identity(len(rows)).scale(2)


def forms_of(m):
    """The chart of a nonsingular m: the columns of scaled_inverse's X."""
    x, d = scaled_inverse(m)
    return tuple(zip(*x.entries)), d


class TestBasisExchange:
    def test_matches_scaled_inverse(self):
        # one pivot on the chart of M, row a replaced by v, is the chart of
        # the new matrix, with s' = |z_a|; z_a = 0, and no chart, exactly
        # when the new matrix is singular.  v is random, or (a quarter of
        # the time) a random combination of M's other rows
        rng, kinds = random.Random(2027), {True: 0, False: 0}
        for _ in range(1500):
            n = rng.randint(2, 5)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if not leibniz_det(rows):
                continue
            a = rng.randrange(n)
            if rng.random() < 0.25:
                coeffs = [rng.randint(-2, 2) for _ in range(n)]
                v = [sum(c * row[j] for i, (c, row)
                         in enumerate(zip(coeffs, rows)) if i != a)
                     for j in range(n)]
            else:
                v = [rng.randint(-3, 3) for _ in range(n)]
            forms, s = forms_of(mat(rows))
            za = sum(x * y for x, y in zip(forms[a], v))
            new = rows[:a] + [v] + rows[a + 1:]
            got = basis_exchange(forms, s, a, v)
            singular = leibniz_det(new) == 0
            assert (za == 0) == singular
            if singular:
                assert got is None
            else:
                assert got == forms_of(mat(new))
                assert got[1] == abs(za)
            kinds[singular] += 1
        assert min(kinds.values()) >= 100, kinds


class TestHelpers:
    def test_inverse_unimodular(self):
        m = mat([[1, 2], [1, 3]])
        assert scaled_inverse(m) == (mat([[3, -2], [-1, 1]]), 1)
