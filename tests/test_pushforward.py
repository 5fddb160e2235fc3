import random
from collections import Counter
from itertools import product

import pytest

import toricpush.pushforward as pushforward
from conftest import box_cosets
from toricpush import (Decomposition, EndoError, IntMatrix, VerificationReport,
                       build_endo, class_group, compose,
                       decompose_pushforward, degree, h0_class, hirzebruch,
                       iterate_coherence, multiplication_endo, product_fan,
                       projective_space, pullback_divisor, pullback_matrix,
                       validate_fan, verify_decomposition)

P1 = projective_space(1)
P2 = projective_space(2)
P1XP1 = product_fan(P1, P1)
SWAP = build_endo(P1XP1, IntMatrix.from_rows([[0, 1], [2, 0]]))


def reference_decompose(endo, coeffs):
    """The floor formula coset by coset: the box cosets, then one n-term sum
    per ray and one class_of product per coset, sorted as the library sorts."""
    fan = endo.fan
    pic = class_group(fan)
    entries = []
    for u in box_cosets(endo.matrix.transpose()):
        witness = tuple(
            (coeffs[rho] + sum(a * b for a, b in zip(u, fan.rays[rho])))
            // endo.mults[rho] for rho in endo.pi_inverse)
        entries.append((pic.class_of(witness), witness, u))
    entries.sort()
    return Decomposition(summands=tuple(e[0] for e in entries),
                         witness_divisors=tuple(e[1] for e in entries),
                         cosets=tuple(e[2] for e in entries))


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
    """decompose_pushforward against the coset-by-coset floor formula,
    compared by value (summand classes are shared tuples, so pickled bytes
    may differ while every entry is equal)."""

    @pytest.mark.parametrize("fan", [P1XP1, hirzebruch(1), hirzebruch(2), P2],
                             ids=["P1xP1", "F1", "F2", "P2"])
    def test_every_small_endo_on_surfaces(self, fan):
        accepted = 0
        for entries in product(range(-2, 3), repeat=4):
            try:
                endo = build_endo(fan, IntMatrix.from_rows(
                    [entries[:2], entries[2:]]))
            except EndoError:
                continue
            accepted += 1
            for coeffs in sample_coeffs(fan):
                assert (decompose_pushforward(endo, coeffs)
                        == reference_decompose(endo, coeffs)), (entries, coeffs)
        assert accepted > 0

    @pytest.mark.parametrize("fan", [projective_space(3),
                                     product_fan(hirzebruch(1), P1)],
                             ids=["P3", "F1xP1"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_multiplication_in_dimension_three(self, fan, q):
        endo = multiplication_endo(fan, q)
        for coeffs in sample_coeffs(fan):
            assert (decompose_pushforward(endo, coeffs)
                    == reference_decompose(endo, coeffs)), coeffs


class TestVerifyDecomposition:
    def test_trivial_law_reports_each_summand(self):
        # one h0 per run of equal classes, but checks and violations still
        # come summand by summand, in order, even for unsorted summands
        e = multiplication_endo(P1, 2)
        g = ray_class(P1, 0)
        two_g = tuple(2 * x for x in g)
        dec = Decomposition(summands=(g, g, (0,), two_g, g),
                            witness_divisors=((0, 0),) * 5,
                            cosets=((0,),) * 5)
        rep = verify_decomposition(e, (0, 0), dec, box=0)
        assert rep.checks == 1 + 1 + 1 + 4
        assert rep.violations[-4:] == [
            "non-trivial summand %s has h0 > 0" % (lam,)
            for lam in (g, g, two_g, g)]

    def test_corrupted_decomposition_is_caught(self):
        e = multiplication_endo(P2, 2)
        dec = decompose_pushforward(e, (1, 0, 0))
        shifted = tuple(tuple(x + (1 if i == 0 else 0) for x in s)
                        for i, s in enumerate(dec.summands))
        bad = Decomposition(summands=shifted,
                            witness_divisors=dec.witness_divisors,
                            cosets=dec.cosets)
        report = verify_decomposition(e, (1, 0, 0), bad, box=2)
        assert not report.passed
        assert any("twist" in v for v in report.violations)

    def test_wrong_rank_is_caught(self):
        e = multiplication_endo(P1, 2)
        dec = decompose_pushforward(e, (0, 0))
        bad = Decomposition(summands=dec.summands + ((0,),),
                            witness_divisors=dec.witness_divisors + ((0, 0),),
                            cosets=dec.cosets + ((0,),))
        report = verify_decomposition(e, (0, 0), bad, box=1)
        assert not report.passed
        assert any("degree" in v for v in report.violations)

    def test_summand_multiplicity_is_checked(self):
        # same distinct classes as ((-1,), (-1,), (0,)), another multiset
        e = multiplication_endo(P1, 3)
        dec = decompose_pushforward(e, (0, 0))
        assert dec.summands == ((-1,), (-1,), (0,))
        bad = Decomposition(summands=((-1,), (0,), (0,)),
                            witness_divisors=dec.witness_divisors,
                            cosets=dec.cosets)
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
        bad = Decomposition(summands=shifted,
                            witness_divisors=dec.witness_divisors,
                            cosets=dec.cosets)
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
            dec = decompose_pushforward(endo, (1,) * fan.nrays)
            pi_inv = endo.pi_inverse
            for u, cls in zip(dec.cosets, dec.summands):
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
            dec = decompose_pushforward(endo, coeffs)
            return sorted(
                tuple(sorted(h0(fan, tuple(a + b for a, b in zip(w, d)))
                             for d in product((-1, 0, 1), repeat=fan.nrays)))
                for w in dec.witness_divisors)

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
            return Decomposition(summands=(first,) + dec.summands[1:],
                                 witness_divisors=dec.witness_divisors,
                                 cosets=dec.cosets)

        monkeypatch.setattr(pushforward, "decompose_pushforward", corrupted)
        rep = iterate_coherence(step, (0, 0), k=2)
        assert not rep.passed and rep.checks == 1
        assert rep.violations == [
            "multiset mismatch: direct [(-1,), (-1,), (-1,), (0,)] "
            "vs stepped [(0,), (0,), (0,), (0,)]"]
        assert vars(rep) == vars(reference_iterate(step, (0, 0), 2))
