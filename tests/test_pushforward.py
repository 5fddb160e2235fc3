import random
import sys
import tracemalloc
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricpush.feasibility as feasibility
import toricpush.pushforward as pushforward
from conftest import (ORACLE_FANS, accepted_endos, axis_expansion, box_cosets,
                      corpus_pairs, oracle_endos, weighted_plane)
from toricpush import (Decomposition, EndoError, IntMatrix, LatticeError,
                       VerificationReport, build_endo, class_group, compose,
                       coset_table, decompose_pushforward, degree, h0_class,
                       hirzebruch, iterate_coherence, multiplication_endo,
                       product_fan, projective_space, pullback_divisor,
                       pullback_matrix, validate_fan, verify_decomposition)
from toricpush.lattice import walk_cosets

P1 = projective_space(1)
P2 = projective_space(2)
P1XP1 = product_fan(P1, P1)
SWAP = build_endo(P1XP1, IntMatrix.from_rows([[0, 1], [2, 0]]))


def reference_decompose(endo, coeffs):
    """The floor formula coset by coset: the box cosets, then one n-term sum
    per ray and one class_of product per coset, as (class, witness, coset)
    rows sorted as coset_table sorts them."""
    fan = endo.fan
    pic = class_group(fan)
    rows = []
    for u in box_cosets(endo.matrix.transpose()):
        witness = tuple(
            (coeffs[rho] + sum(a * b for a, b in zip(u, fan.rays[rho])))
            // endo.mults[rho] for rho in endo.pi_inverse)
        rows.append((pic.class_of(witness), witness, u))
    return sorted(rows)


def assert_matches_reference(endo, coeffs):
    """decompose_pushforward is the class column of the reference rows, and
    coset_table is the reference rows themselves."""
    rows = reference_decompose(endo, coeffs)
    assert (decompose_pushforward(endo, coeffs).summands
            == tuple(row[0] for row in rows)), (endo.matrix, coeffs)
    assert coset_table(endo, coeffs) == rows, (endo.matrix, coeffs)


def line_pairings(endo, coeffs):
    """(<du, v_rho> per ray in pi_inverse order, c_rho likewise, line length
    d): how the floor numerators move along a line of the coset box."""
    fan = endo.fan
    forms = [(fan.rays[rho], coeffs[rho]) for rho in endo.pi_inverse]
    _, step, d = walk_cosets(endo.matrix.transpose(), forms)
    return (step[:fan.nrays], [endo.mults[rho] for rho in endo.pi_inverse],
            d)


def axis_table(endo, coeffs):
    """coset_table's rows from the reference expansion of walk_cosets, each
    coset led by its floor numerators, sorted as coset_table sorts them."""
    fan = endo.fan
    pic = class_group(fan)
    forms = [(fan.rays[rho], coeffs[rho]) for rho in endo.pi_inverse]
    mults = [endo.mults[rho] for rho in endo.pi_inverse]
    rows = []
    for vec in axis_expansion(endo.matrix.transpose(), forms):
        witness = tuple(x // c for x, c in zip(vec, mults))
        rows.append((pic.class_of(witness), witness, vec[len(mults):]))
    return sorted(rows)


def reference_iterate(endo, coeffs, k):
    """iterate_coherence with the stepped side expanded as a flat list, one
    decomposition per summand (through the module, so a patch applies)."""
    pic = class_group(endo.fan)
    iterate = endo
    for _ in range(k - 1):
        iterate = compose(iterate, endo)
    direct = sorted(pushforward.decompose_pushforward(iterate, coeffs).summands)
    classes = [pic.class_of(coeffs)]
    for _ in range(k):
        classes = [lam for cls in classes for lam in
                   pushforward.decompose_pushforward(endo, pic.lift(cls)).summands]
    stepped = sorted(classes)
    report = VerificationReport(passed=direct == stepped, checks=1)
    if not report.passed:
        report.violations.append(
            "multiset mismatch: direct %s vs stepped %s" % (direct, stepped))
    return report


def sample_coeffs(fan):
    """Zero, D_0 and a mixed-sign divisor."""
    n = fan.nrays
    return [(0,) * n, (1,) + (0,) * (n - 1),
            tuple((-1) ** i * (i + 1) for i in range(n))]


def ray_class(fan, rho):
    pic = class_group(fan)
    return pic.class_of(tuple(1 if i == rho else 0 for i in range(fan.nrays)))


class TestGoldenDecompositions:
    """Each expected multiset was confirmed by verify_decomposition (the
    projection-formula dimension oracle) before being frozen here."""

    def test_p1_structure_sheaf(self):
        e = multiplication_endo(P1, 2)
        dec = decompose_pushforward(e, (0, 0))
        g = ray_class(P1, 0)
        assert sorted(dec.summands) == sorted([(0,), tuple(-x for x in g)])
        assert verify_decomposition(e, (0, 0), dec, box=2).passed

    def test_p1_degree_one(self):
        e = multiplication_endo(P1, 2)
        dec = decompose_pushforward(e, (1, 0))
        assert sorted(dec.summands) == [(0,), (0,)]
        assert verify_decomposition(e, (1, 0), dec, box=2).passed

    def test_p2_hyperplane(self):
        e = multiplication_endo(P2, 2)
        dec = decompose_pushforward(e, (1, 0, 0))
        g = ray_class(P2, 0)
        expected = sorted([(0,), (0,), (0,), tuple(-x for x in g)])
        assert sorted(dec.summands) == expected
        assert verify_decomposition(e, (1, 0, 0), dec, box=2).passed

    def test_p1xp1_swap_structure_sheaf(self):
        dec = decompose_pushforward(SWAP, (0, 0, 0, 0))
        fiber2 = ray_class(P1XP1, 2)
        expected = sorted([(0, 0), tuple(-x for x in fiber2)])
        assert sorted(dec.summands) == expected
        assert verify_decomposition(SWAP, (0, 0, 0, 0), dec, box=2).passed


class TestDecomposeDifferential:
    """decompose_pushforward and coset_table against the coset-by-coset
    floor formula, compared by value (summand classes are shared tuples, so
    pickled bytes may differ while every entry is equal)."""

    @pytest.mark.parametrize("name", ["P1xP1", "F1", "F2", "P2"])
    def test_every_small_endo_on_surfaces(self, name):
        # every accepted endo with entries in [-3, 3], swaps included, on
        # zero, D_0, a mixed-sign divisor and three divisors in [-20, 20]
        rng = random.Random(name)
        fan = ORACLE_FANS[name][0]
        for endo in oracle_endos(name):
            coeffs = sample_coeffs(fan) + [
                tuple(rng.randint(-20, 20) for _ in range(fan.nrays))
                for _ in range(3)]
            for d in coeffs:
                assert_matches_reference(endo, d)

    def test_negative_steps(self):
        # mul:q on P2 moves the ray -(e1 + e2) backwards along every line
        endo = multiplication_endo(P2, 5)
        steps, _, _ = line_pairings(endo, (0, 0, 0))
        assert min(steps) < 0
        for coeffs in [(0, 0, 0), (3, -7, 2), (-11, 4, 9)]:
            assert_matches_reference(endo, coeffs)

    @pytest.mark.parametrize("a", [2, 3])
    def test_several_jumps_per_step(self, a):
        # on F_a under mul:2 the ray (-1, a) moves by a >= c = 2 per step,
        # so its floor jumps at every step, by more than 1 on F_3
        fan = hirzebruch(a)
        endo = multiplication_endo(fan, 2)
        steps, mults, _ = line_pairings(endo, (0,) * fan.nrays)
        assert max(abs(s) - c for s, c in zip(steps, mults)) == a - 2
        for coeffs in sample_coeffs(fan) + [(5, -3, 7, -9), (-13, 2, 1, 6)]:
            assert_matches_reference(endo, coeffs)

    @pytest.mark.parametrize("fan", [P2, P1XP1, hirzebruch(1)],
                             ids=["P2", "P1xP1", "F1"])
    def test_degree_one_lines(self, fan):
        # an automorphism has one coset: one line with last radix 1
        autos = [e for e in accepted_endos(fan, 1) if degree(e) == 1]
        assert autos
        for endo in autos:
            assert line_pairings(endo, (0,) * fan.nrays)[2] == 1
            for coeffs in sample_coeffs(fan):
                assert_matches_reference(endo, coeffs)

    @pytest.mark.parametrize("fan", [projective_space(3),
                                     product_fan(hirzebruch(1), P1)],
                             ids=["P3", "F1xP1"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_multiplication_in_dimension_three(self, fan, q):
        endo = multiplication_endo(fan, q)
        for coeffs in sample_coeffs(fan):
            assert_matches_reference(endo, coeffs)

    def test_weighted_plane(self):
        # P(1,1,2) is simplicial, not smooth: its classes are Weil classes
        fan = weighted_plane("P(1,1,2)")
        rng = random.Random(112)
        endos = accepted_endos(fan, 2) + [multiplication_endo(fan, q)
                                          for q in (3, 4, 5)]
        assert len(endos) > 4
        for endo in endos:
            for coeffs in sample_coeffs(fan) + [
                    tuple(rng.randint(-9, 9) for _ in range(fan.nrays))]:
                assert_matches_reference(endo, coeffs)

    @pytest.mark.parametrize("name", ["P1xP1", "P1^3", "P2xP1", "F1xP1"])
    def test_random_diagonal_and_swap_endos(self, name):
        # a permutation matrix times a diagonal one with entries in [1, 4],
        # kept where build_endo accepts it, on divisors with a in [-9, 9]
        fan = ORACLE_FANS[name][0]
        rng = random.Random(name)
        n, endos, swaps = fan.dim, [], 0
        while len(endos) < 8:
            perm = rng.sample(range(n), n)
            rows = [[rng.randint(1, 4) if j == perm[i] else 0
                     for j in range(n)] for i in range(n)]
            try:
                endos.append(build_endo(fan, IntMatrix.from_rows(rows)))
            except EndoError:
                continue
            swaps += perm != sorted(perm)
        assert swaps or name == "F1xP1"
        for endo in endos:
            for _ in range(3):
                assert_matches_reference(endo, tuple(
                    rng.randint(-9, 9) for _ in range(fan.nrays)))


    @pytest.mark.parametrize("label, fan, endo", corpus_pairs(),
                             ids=[label for label, _, _ in corpus_pairs()])
    def test_principal_divisor_moves_nothing(self, label, fan, endo):
        # the slab counter takes the class of D, so D and D + div chi^m
        # decompose alike; the floor formula on the moved coefficients
        # themselves agrees
        rng = random.Random(label)
        for _ in range(4):
            coeffs = tuple(rng.randint(-5, 5) for _ in range(fan.nrays))
            m = [rng.randint(-5, 5) for _ in range(fan.dim)]
            moved = tuple(a + sum(x * v for x, v in zip(m, ray))
                          for a, ray in zip(coeffs, fan.rays))
            assert (decompose_pushforward(endo, moved)
                    == decompose_pushforward(endo, coeffs))
            assert_matches_reference(endo, moved)


def test_decomposition_memory():
    # the summands are one shared tuple per class, counted per class:
    # 3375 summands of P3 mul:15 need no per-coset tuple or sort entry
    endo = multiplication_endo(projective_space(3), 15)
    class_group(endo.fan)
    tracemalloc.start()
    try:
        dec = decompose_pushforward(endo, (0, 0, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dec.summands) == 15 ** 3
    assert len({id(s) for s in dec.summands}) == len(set(dec.summands))
    assert peak < 128 * 1024, peak


class TestBeyondTheWalk:
    """Degrees whose coset walk is out of reach (2^40 cosets of P2 mul:2^20,
    101^3 of P3 mul:101), read off the multiplicities, never .summands."""

    def test_p2_structure_sheaf_at_q_2_to_the_20(self):
        # f_*O = O + O(-1)^(q(q+1)/2 + q - 2) + O(-2)^((q-1)(q-2)/2)
        q = 2 ** 20
        pic = class_group(P2)
        h = pic.class_of((1, 0, 0))
        dec = decompose_pushforward(multiplication_endo(P2, q), (0, 0, 0))
        assert dict(dec.multiplicities) == {
            pic.zero(): 1,
            tuple(-x for x in h): q * (q + 1) // 2 + q - 2,
            tuple(-2 * x for x in h): (q - 1) * (q - 2) // 2}

    @pytest.mark.parametrize("coeffs", [(0, 0, 0, 0), (2, -1, 0, 3)])
    def test_p3_at_q_101_against_a_convolution(self, coeffs):
        # O(dH) pushes forward to O(floor((d - s) / q)) once per u in
        # [0, q)^3 with u_1 + u_2 + u_3 = s: the distribution of s is the
        # threefold convolution of [0, q)
        q, fan = 101, projective_space(3)
        pic = class_group(fan)
        h = pic.class_of((1, 0, 0, 0))
        sums = Counter({0: 1})
        for _ in range(fan.dim):
            nxt = Counter()
            for s, c in sums.items():
                for u in range(q):
                    nxt[s + u] += c
            sums = nxt
        expected = Counter()
        for s, c in sums.items():
            expected[tuple((sum(coeffs) - s) // q * x for x in h)] += c
        dec = decompose_pushforward(multiplication_endo(fan, q), coeffs)
        assert dict(dec.multiplicities) == expected

    def test_walk_calls_do_not_grow_with_q(self, monkeypatch):
        # on P2 the counter walks the same classes, and counts each plane of
        # u in closed form, whatever q is
        calls = []
        walk = feasibility._walk

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(feasibility, "_walk", counted)
        counts = []
        for q in (10, 1000, 2 ** 20):
            calls.clear()
            decompose_pushforward(multiplication_endo(P2, q), (0, 0, 0))
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2] > 0

    def test_no_coset_walk_and_no_snf(self, monkeypatch):
        # the class group is the fan's, cached; neither F^T nor anything
        # else is put in Smith normal form, and no coset is walked
        def refuse(*args):
            raise AssertionError("called")

        endos = [multiplication_endo(P2, 7), SWAP,
                 multiplication_endo(hirzebruch(1), 3)]
        for endo in endos:
            class_group(endo.fan)
        pushforward._slab_counter.cache_clear()
        for name, module in sys.modules.items():
            if name.startswith("toricpush"):
                for attr in ("walk_cosets", "smith_normal_form"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        for endo in endos:
            dec = decompose_pushforward(endo, (1,) * endo.fan.nrays)
            assert sum(n for _, n in dec.multiplicities) == degree(endo)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coset_table_expands_the_walk(data):
    # every endomorphism of the exhaustive sets, Picard rank 1 to 3, and
    # divisors with coefficients of both signs
    endo = data.draw(st.sampled_from(oracle_endos(
        data.draw(st.sampled_from(sorted(ORACLE_FANS))))))
    coeffs = tuple(data.draw(st.lists(st.integers(-3, 3),
                                      min_size=endo.fan.nrays,
                                      max_size=endo.fan.nrays)))
    assert coset_table(endo, coeffs) == axis_table(endo, coeffs)


class TestVerifyDecomposition:
    # h0_class (hits, misses) of one cold verify_decomposition, box 2: a
    # lookup for h0(D + f*E) and one per summand class at each twist E, and
    # on trivial D one per nontrivial class, pinned so that no rewrite of
    # the twist loop adds or drops a lookup.
    @pytest.mark.parametrize("fan, q, divisor, hits, misses", [
        (P1XP1, 3, (0, 0, 0, 0), 71, 57),
        (P1XP1, 3, (1, 0, 0, 0), 68, 57),
        (hirzebruch(1), 2, (0, 0, 0, 0), 51, 51),
        (hirzebruch(1), 2, (1, 0, 0, 0), 48, 52),
    ])
    def test_h0_class_cache_traffic(self, fan, q, divisor, hits, misses):
        endo = multiplication_endo(fan, q)
        dec = decompose_pushforward(endo, divisor)
        h0_class.cache_clear()
        assert verify_decomposition(endo, divisor, dec).passed
        info = h0_class.cache_info()
        assert (info.hits, info.misses) == (hits, misses)
        nclasses = len(dec.multiplicities)
        nontrivial = nclasses - 1 if not any(divisor) else 0
        assert hits + misses == 5 ** 2 * (1 + nclasses) + nontrivial

    @pytest.mark.parametrize("fan, divisor", [(P2, (1, 0, 0)),
                                              (P1XP1, (1, 0, 0, 0))],
                             ids=["P2", "P1xP1"])
    @pytest.mark.parametrize("length", ["padded", "cut"])
    def test_class_length_refused_cold_and_warm(self, fan, divisor, length):
        # the twist loop adds E to each summand class with map(add, ...),
        # which would drop a padded class's extra coordinate
        e = multiplication_endo(fan, 2)
        dec = decompose_pushforward(e, divisor)
        bad = Decomposition(tuple((lam + (0,) if length == "padded"
                                   else lam[:-1], mult)
                                  for lam, mult in dec.multiplicities))
        h0_class.cache_clear()
        with pytest.raises(LatticeError, match="dimension mismatch"):
            verify_decomposition(e, divisor, bad)
        assert verify_decomposition(e, divisor, dec).passed
        with pytest.raises(LatticeError, match="dimension mismatch"):
            verify_decomposition(e, divisor, bad)

    @pytest.mark.parametrize("box, error", [(-1, ValueError),
                                            (True, TypeError),
                                            (1.0, TypeError)])
    def test_box_refused_before_any_work(self, monkeypatch, box, error):
        def refuse(*args):
            raise AssertionError("h0 before the box check")

        monkeypatch.setattr(pushforward, "_h0_class", refuse)
        e = multiplication_endo(P2, 2)
        dec = Decomposition((((0,), 4),))
        with pytest.raises(error):
            verify_decomposition(e, (0, 0, 0), dec, box=box)

    def test_trivial_law_reports_each_summand(self):
        # one h0 per class, but checks and violations still come summand by
        # summand, in class order, even for unsorted summands
        e = multiplication_endo(P1, 2)
        g = ray_class(P1, 0)
        two_g = tuple(2 * x for x in g)
        dec = Decomposition.from_summands((g, g, (0,), two_g, g))
        assert dec.multiplicities == (((0,), 1), (g, 3), (two_g, 1))
        rep = verify_decomposition(e, (0, 0), dec, box=0)
        assert rep.checks == 1 + 1 + 1 + 4
        assert rep.violations[-4:] == [
            "non-trivial summand %s has h0 > 0" % (lam,)
            for lam in (g, g, g, two_g)]

    @pytest.mark.parametrize("summands", [((-1.0,), (0.0,)),
                                          ((-1,), (False,))])
    def test_non_int_classes_raise_cold_and_warm(self, summands):
        # the classes are checked before the h0 cache is read: once the int
        # decomposition is verified, a float or bool class compares equal to
        # a cached int one there
        e = multiplication_endo(P1, 2)
        bad = Decomposition.from_summands(summands)
        h0_class.cache_clear()
        with pytest.raises(TypeError):
            verify_decomposition(e, (0, 0), bad)
        assert verify_decomposition(e, (0, 0),
                                    decompose_pushforward(e, (0, 0))).passed
        with pytest.raises(TypeError):
            verify_decomposition(e, (0, 0), bad)

    def test_corrupted_decomposition_is_caught(self):
        e = multiplication_endo(P2, 2)
        dec = decompose_pushforward(e, (1, 0, 0))
        shifted = tuple(tuple(x + (1 if i == 0 else 0) for x in s)
                        for i, s in enumerate(dec.summands))
        bad = Decomposition.from_summands(shifted)
        report = verify_decomposition(e, (1, 0, 0), bad, box=2)
        assert not report.passed
        assert any("twist" in v for v in report.violations)

    def test_wrong_rank_is_caught(self):
        e = multiplication_endo(P1, 2)
        dec = decompose_pushforward(e, (0, 0))
        bad = Decomposition.from_summands(dec.summands + ((0,),))
        report = verify_decomposition(e, (0, 0), bad, box=1)
        assert not report.passed
        assert any("degree" in v for v in report.violations)

    def test_summand_multiplicity_is_checked(self):
        # same distinct classes as ((-1,), (-1,), (0,)), another multiset
        e = multiplication_endo(P1, 3)
        dec = decompose_pushforward(e, (0, 0))
        assert dec.summands == ((-1,), (-1,), (0,))
        bad = Decomposition.from_summands(((-1,), (0,), (0,)))
        report = verify_decomposition(e, (0, 0), bad, box=1)
        assert not report.passed
        assert ("twist (0,): h0(D + f*E) = 1 but summands give 2"
                in report.violations)

    def test_check_count_on_p1_to_the_fourth(self):
        fan = product_fan(product_fan(P1, P1), product_fan(P1, P1))
        e = multiplication_endo(fan, 2)
        coeffs = (0,) * fan.nrays
        report = verify_decomposition(e, coeffs,
                                      decompose_pushforward(e, coeffs), box=1)
        assert report.passed and report.checks == 98

    def test_identity_endo(self):
        ident = multiplication_endo(P2, 1)
        dec = decompose_pushforward(ident, (2, -1, 0))
        pic = class_group(P2)
        assert dec.summands == (pic.class_of((2, -1, 0)),)
        assert verify_decomposition(ident, (2, -1, 0), dec, box=2).passed

    def test_negative_box_rejected(self):
        e = multiplication_endo(P2, 2)
        dec = decompose_pushforward(e, (1, 0, 0))
        with pytest.raises(ValueError, match="box"):
            verify_decomposition(e, (1, 0, 0), dec, box=-1)

    def test_box_zero_checks_the_zero_twist(self):
        e = multiplication_endo(P2, 2)
        dec = decompose_pushforward(e, (1, 0, 0))
        report = verify_decomposition(e, (1, 0, 0), dec, box=0)
        assert report.passed and report.checks == 2  # rank + one twist
        shifted = ((dec.summands[0][0] + 1,),) + dec.summands[1:]
        bad = Decomposition.from_summands(shifted)
        report = verify_decomposition(e, (1, 0, 0), bad, box=0)
        assert not report.passed
        assert any("twist (0,)" in v for v in report.violations)

    def test_rank_equals_degree(self):
        for endo, coeffs in [(multiplication_endo(P2, 3), (1, -2, 0)),
                             (SWAP, (2, 0, -1, 1))]:
            dec = decompose_pushforward(endo, coeffs)
            assert len(dec.summands) == degree(endo)


def assert_shift_law(endo, coeffs, twist):
    """f_*(O(D) (x) f*L) = f_*O(D) (x) L: twisting D by f* lift(E) shifts
    every summand class by E, as multisets."""
    pic = class_group(endo.fan)
    twisted = tuple(a + b for a, b in zip(
        coeffs, pullback_divisor(endo, pic.lift(twist))))
    base = decompose_pushforward(endo, coeffs).summands
    shifted = decompose_pushforward(endo, twisted).summands
    expected = [tuple(a + b for a, b in zip(s, twist)) for s in base]
    assert Counter(shifted) == Counter(expected), (endo.matrix, coeffs, twist)


class TestStructuralInvariants:
    def test_trivial_summand_law(self, pairs):
        for label, fan, endo in pairs:
            pic = class_group(fan)
            dec = decompose_pushforward(endo, (0,) * fan.nrays)
            trivial = [s for s in dec.summands if s == pic.zero()]
            assert len(trivial) == 1, label
            for s in dec.summands:
                if s != pic.zero():
                    assert h0_class(fan, s) == 0, label

    def test_twist_equivariance(self):
        rng = random.Random(3)
        for endo in (multiplication_endo(P2, 2), SWAP):
            fan = endo.fan
            pic = class_group(fan)
            for _ in range(6):
                coeffs = tuple(rng.randint(-2, 2) for _ in range(fan.nrays))
                twist = tuple(rng.randint(-2, 2) for _ in range(pic.rank))
                assert_shift_law(endo, coeffs, twist)

    def test_shift_law_on_the_corpus(self, pairs):
        # O and D_0 on every corpus pair, each E in the Pic box [-2, 2]^rank
        for _, fan, endo in pairs:
            rank = class_group(fan).rank
            for coeffs in ((0,) * fan.nrays, (1,) + (0,) * (fan.nrays - 1)):
                for twist in product(range(-2, 3), repeat=rank):
                    assert_shift_law(endo, coeffs, twist)

    def test_coset_representative_independence(self):
        for endo in (multiplication_endo(P2, 2), SWAP):
            fan = endo.fan
            pic = class_group(fan)
            ft = endo.matrix.transpose()
            pi_inv = endo.pi_inverse
            for cls, _, u in coset_table(endo, (1,) * fan.nrays):
                for m in product(range(-1, 2), repeat=fan.dim):
                    shifted_u = tuple(a + b for a, b in
                                      zip(u, ft.mul_vector(m)))
                    witness = []
                    for rho_prime in range(fan.nrays):
                        rho = pi_inv[rho_prime]
                        v = fan.rays[rho]
                        num = 1 + sum(x * y for x, y in zip(shifted_u, v))
                        witness.append(num // endo.mults[rho])
                    assert pic.class_of(tuple(witness)) == cls

    def test_ray_relabeling_leaves_verdicts_invariant(self):
        # published outputs must not depend on the basis convention; compare
        # through a basis-free profile: the multiset of h0 values of each
        # witness twisted by every divisor in a permutation-symmetric box
        def profile(fan, endo, coeffs):
            from toricpush import h0
            return sorted(
                tuple(sorted(h0(fan, tuple(a + b for a, b in zip(w, d)))
                             for d in product((-1, 0, 1), repeat=fan.nrays)))
                for _, w, _ in coset_table(endo, coeffs))

        fan = hirzebruch(1)
        perm = [2, 0, 3, 1]
        inv = [perm.index(i) for i in range(4)]
        rays = [fan.rays[perm[i]] for i in range(4)]
        cones = [tuple(sorted(inv[i] for i in c)) for c in fan.max_cones]
        refan, report = validate_fan(2, rays, cones)
        assert report.smooth and report.complete
        for q in (2, 3):
            coeffs = (1, 0, -1, 2)
            permuted = tuple(coeffs[perm[i]] for i in range(4))
            assert (profile(fan, multiplication_endo(fan, q), coeffs)
                    == profile(refan, multiplication_endo(refan, q), permuted))


class TestIterateCoherence:
    def test_p1(self):
        assert iterate_coherence(multiplication_endo(P1, 2), (0, 0)).passed

    def test_p2_hyperplane(self):
        assert iterate_coherence(multiplication_endo(P2, 2), (1, 0, 0)).passed

    def test_swap(self):
        assert iterate_coherence(SWAP, (1, -1, 0, 2)).passed

    def test_identity(self):
        assert iterate_coherence(multiplication_endo(P2, 1), (1, 0, 0)).passed

    def test_third_iterate(self):
        assert iterate_coherence(multiplication_endo(P1, 2), (1, 0), k=3).passed

    @pytest.mark.parametrize("endo, coeffs, k", [
        (SWAP, (1, -1, 0, 2), 3),
        (multiplication_endo(P2, 3), (1, 0, 0), 2),
    ], ids=["swap-k3", "P2-mul3"])
    def test_class_counts_match_list_expansion(self, endo, coeffs, k):
        assert vars(iterate_coherence(endo, coeffs, k)) == vars(
            reference_iterate(endo, coeffs, k))

    def test_violation_text(self, monkeypatch):
        # corrupt one summand of every single-step decomposition (mul:2),
        # leaving the direct one (mul:4) alone
        step = multiplication_endo(P1, 2)
        decompose = pushforward.decompose_pushforward

        def corrupted(endo, coeffs):
            dec = decompose(endo, coeffs)
            if endo != step:
                return dec
            first = tuple(x + 1 for x in dec.summands[0])
            return Decomposition.from_summands((first,) + dec.summands[1:])

        monkeypatch.setattr(pushforward, "decompose_pushforward", corrupted)
        rep = iterate_coherence(step, (0, 0), k=2)
        assert not rep.passed and rep.checks == 1
        assert rep.violations == [
            "multiset mismatch: direct [(-1,), (-1,), (-1,), (0,)] "
            "vs stepped [(0,), (0,), (0,), (0,)]"]
        assert vars(rep) == vars(reference_iterate(step, (0, 0), 2))
