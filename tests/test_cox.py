from itertools import product

import pytest

import toricpush.cox as cox_module
import toricpush.lattice as lattice_module
import toricpush.pushforward as pushforward_module
from conftest import (ORACLE_FANS, WEIGHTED, box_cosets, class_level_cases,
                      decomposition, half_plane_fan, oracle_endos)
from toricpush import (EndoError, FanError, IntMatrix, VerificationError,
                       build_endo, class_group, contracting_exponent,
                       cox_ring, decompose_pushforward, graded_dimension, h0,
                       hirzebruch, induced_cox_endo, is_int_amplified,
                       module_shifts, multiplication_endo,
                       pic_coset_decomposition, product_fan, projective_space,
                       pullback_matrix, rank_bookkeeping, smith_normal_form,
                       verify_decomposition)

P1 = projective_space(1)
P2 = projective_space(2)
P1XP1 = product_fan(P1, P1)
F1 = hirzebruch(1)
SWAP = build_endo(P1XP1, IntMatrix.from_rows([[0, 1], [2, 0]]))


def induced_cases(pairs):
    """(label, endo) for the corpus pairs and the exhaustive endomorphism
    set, on which induced_cox_endo's unchecked identities are asserted."""
    yield from ((label, endo) for label, _, endo in pairs)
    for name in sorted(ORACLE_FANS):
        yield from ((name, endo) for endo in oracle_endos(name))


def cubic_contracting_exponent(phi):
    """The direct search: the least e <= nrays for which the product of the
    first e exponents along every ray's orbit is >= 2, else None."""
    nrays = phi.ring.fan.nrays
    for e in range(1, nrays + 1):
        ok = True
        for rho in range(nrays):
            acc = 1
            cur = rho
            for _ in range(e):
                acc *= phi.exponents[cur]
                cur = phi.sources[cur]
            if acc < 2:
                ok = False
                break
        if ok:
            return e
    return None


class TestCoxRing:
    def test_p2_homogeneous_coordinate_ring(self):
        ring = cox_ring(P2)
        assert len(ring.degrees) == 3
        assert len(set(ring.degrees)) == 1  # all variables in degree 1

    def test_p1xp1_bihomogeneous(self):
        ring = cox_ring(P1XP1)
        assert sorted(ring.degrees) == [(0, 1), (0, 1), (1, 0), (1, 0)]

    def test_graded_dimension_quadrics(self):
        ring = cox_ring(P2)
        g = ring.degrees[0]
        assert graded_dimension(ring, tuple(2 * x for x in g)) == 6

    def test_graded_dimension_constants(self):
        for fan in (P1, P2, P1XP1, F1):
            assert graded_dimension(cox_ring(fan), class_group(fan).zero()) == 1

    def test_graded_dimension_negative_degree(self):
        ring = cox_ring(P2)
        g = ring.degrees[0]
        assert graded_dimension(ring, tuple(-x for x in g)) == 0

    def test_p1xp1_bilinear(self):
        ring = cox_ring(P1XP1)
        assert graded_dimension(ring, (1, 1)) == 4

    @pytest.mark.parametrize("fan", [P2, P1XP1, F1])
    def test_matches_h0_on_box(self, fan):
        # two independent counting paths: monomial enumeration vs lattice
        # points of the section polytope
        ring = cox_ring(fan)
        pic = class_group(fan)
        for cls in product(range(-3, 4), repeat=pic.rank):
            assert graded_dimension(ring, cls) == h0(fan, pic.lift(cls))

    def test_non_complete_fan_rejected(self):
        # an infinite graded piece is an input error, as it is for h0
        with pytest.raises(FanError, match="fan is not complete"):
            graded_dimension(cox_ring(half_plane_fan()), (0,))


class TestInducedEndo:
    def test_multiplication_is_power_map(self):
        phi = induced_cox_endo(multiplication_endo(P2, 3), cox_ring(P2))
        assert phi.sources == (0, 1, 2)
        assert phi.exponents == (3, 3, 3)

    def test_swap_substitution(self):
        # rays e1, -e1, e2, -e2: x1->x3, x2->x4, x3->x1^2, x4->x2^2
        phi = induced_cox_endo(SWAP, cox_ring(P1XP1))
        assert phi.sources == (2, 3, 0, 1)
        assert phi.exponents == (1, 1, 2, 2)

    def test_identity(self):
        phi = induced_cox_endo(multiplication_endo(P1XP1, 1), cox_ring(P1XP1))
        assert phi.sources == (0, 1, 2, 3)
        assert phi.exponents == (1, 1, 1, 1)

    def test_grading_compatibility(self, pairs):
        # induced_cox_endo checks neither identity at run time
        for label, endo in induced_cases(pairs):
            ring = cox_ring(endo.fan)
            phi = induced_cox_endo(endo, ring)
            assert phi.sources == endo.pi_inverse, label
            pb = pullback_matrix(endo, ring.pic)
            for rp in range(endo.fan.nrays):
                image_degree = tuple(phi.exponents[rp] * d
                                     for d in ring.degrees[phi.sources[rp]])
                assert image_degree == pb.mul_vector(ring.degrees[rp]), label

    def test_mismatched_fan_rejected(self):
        with pytest.raises(EndoError):
            induced_cox_endo(multiplication_endo(P2, 2), cox_ring(P1XP1))

    def test_degree_zero_variable_rejected(self):
        # the half-plane fan's ray (0, 1) is principal: D_1 = div(chi^(0,1));
        # its Cox ring is refused, as the fan is not complete, and on a
        # complete fan no variable has degree zero (the test below)
        fan = half_plane_fan()
        with pytest.raises(FanError, match="fan is not complete$"):
            induced_cox_endo(multiplication_endo(fan, 2), cox_ring(fan))

    @pytest.mark.parametrize("label, fan", list(class_level_cases()),
                             ids=[label for label, _ in class_level_cases()])
    def test_no_variable_has_degree_zero(self, label, fan):
        # -v_rho lies in some cone of a complete fan, so no D_rho is
        # principal, and induced_cox_endo needs no degree-zero check; at
        # divisor level, on any complete fan: h0(-D_rho) = 0.  A weighted
        # plane has no Cox ring here, as class_group refuses it
        for rho in range(fan.nrays):
            assert h0(fan, tuple(-int(i == rho)
                                 for i in range(fan.nrays))) == 0
        if label in WEIGHTED:
            with pytest.raises(FanError, match="fan is not smooth$"):
                cox_ring(fan)
        else:
            assert class_group(fan).zero() not in cox_ring(fan).degrees


class TestContracting:
    def test_multiplication(self):
        for q in (2, 3):
            phi = induced_cox_endo(multiplication_endo(P2, q), cox_ring(P2))
            assert contracting_exponent(phi) == 1

    def test_identity_never_contracts(self):
        phi = induced_cox_endo(multiplication_endo(P2, 1), cox_ring(P2))
        assert contracting_exponent(phi) is None

    def test_swap_needs_two_steps(self):
        phi = induced_cox_endo(SWAP, cox_ring(P1XP1))
        assert contracting_exponent(phi) == 2

    def test_three_cycle_needs_three_steps(self):
        # F cycles the axes of P1^3 and doubles one: from x_rho the walk
        # meets two exponents 1 before a 2, so only phi^3 lands in m^2
        fan = product_fan(P1XP1, P1)
        endo = build_endo(fan, IntMatrix.from_rows(
            [[0, 0, 2], [1, 0, 0], [0, 1, 0]]))
        phi = induced_cox_endo(endo, cox_ring(fan))
        assert contracting_exponent(phi) == 3
        assert cubic_contracting_exponent(phi) == 3

    def test_matches_cubic_search(self, pairs):
        for label, endo in induced_cases(pairs):
            phi = induced_cox_endo(endo, cox_ring(endo.fan))
            assert (contracting_exponent(phi)
                    == cubic_contracting_exponent(phi)), label

    def test_finite_whenever_int_amplified(self, pairs):
        for label, fan, endo in pairs:
            pic = class_group(fan)
            if is_int_amplified(endo, pic)[0]:
                e = contracting_exponent(induced_cox_endo(endo, cox_ring(fan)))
                assert e is not None and e <= fan.nrays, label


class TestPicCosets:
    def test_p2_multiplication(self):
        pic = class_group(P2)
        assert len(pic_coset_decomposition(multiplication_endo(P2, 3), pic)) == 3

    def test_swap(self):
        pic = class_group(P1XP1)
        assert len(pic_coset_decomposition(SWAP, pic)) == 2

    def test_identity(self):
        pic = class_group(P1XP1)
        assert pic_coset_decomposition(multiplication_endo(P1XP1, 1), pic) \
            == [(0, 0)]

    def test_p1_cubed_at_q_40(self):
        # f* = 40 I on Pic = Z^3: 40^3 cosets, walked axis by axis, in the
        # order of the one-product-per-coset reference
        fan = ORACLE_FANS["P1^3"][0]
        endo, pic = multiplication_endo(fan, 40), class_group(fan)
        reps = pic_coset_decomposition(endo, pic)
        assert len(reps) == 64000
        assert reps == box_cosets(pullback_matrix(endo, pic))


class TestModuleShifts:
    def test_p1_structure_sheaf(self):
        shifts = module_shifts(multiplication_endo(P1, 2), (0, 0), box=3)
        assert shifts == (((-1,), 1), ((0,), 1))

    def test_p2_hyperplane(self):
        e = multiplication_endo(P2, 2)
        shifts = module_shifts(e, (1, 0, 0))
        assert shifts == decompose_pushforward(e, (1, 0, 0)).multiplicities

    def test_identity(self):
        ident = multiplication_endo(P2, 1)
        pic = class_group(P2)
        assert module_shifts(ident, (2, 0, -1)) == (
            (pic.class_of((2, 0, -1)), 1),)

    def test_swap(self):
        shifts = module_shifts(SWAP, (0, 0, 0, 0))
        assert shifts == decompose_pushforward(
            SWAP, (0, 0, 0, 0)).multiplicities

    def test_negative_box_rejected(self):
        with pytest.raises(ValueError, match="box"):
            module_shifts(multiplication_endo(P1, 2), (0, 0), box=-1)

    @pytest.mark.parametrize("box, error", [(-1, ValueError),
                                            (True, TypeError),
                                            (1.0, TypeError)])
    def test_box_refused_before_any_work(self, monkeypatch, box, error):
        def refuse(*args):
            raise AssertionError("work before the box check")

        monkeypatch.setattr(cox_module, "decompose_pushforward", refuse)
        monkeypatch.setattr(pushforward_module, "_h0_class", refuse)
        with pytest.raises(error):
            module_shifts(multiplication_endo(P2, 2), (0, 0, 0), box=box)

    def test_verification_is_live(self, monkeypatch):
        # force a wrong shift multiset through the graded-dimension check
        e = multiplication_endo(P1, 2)
        real = decompose_pushforward(e, (0, 0))
        corrupted = real.summands[:-1] + (tuple(x + 1 for x in
                                                real.summands[-1]),)
        fake = decomposition(corrupted)
        monkeypatch.setattr(cox_module, "decompose_pushforward",
                            lambda endo, coeffs: fake)
        with pytest.raises(VerificationError):
            module_shifts(e, (0, 0))


class TestDegreeMatrix:
    """graded_dimension reads every solution of deg e = cls off one Smith
    normal form of the degree matrix deg, which needs deg onto."""

    @pytest.mark.parametrize("label, fan", list(class_level_cases()),
                             ids=[label for label, _ in class_level_cases()])
    def test_degree_matrix_is_onto(self, label, fan):
        # a weighted plane's Cl(X) = Z^rays / M is free, as the ray matrix's
        # invariant factors are all 1, but its degree matrix is never built:
        # class_group refuses the fan
        if label in WEIGHTED:
            assert (smith_normal_form(IntMatrix.from_rows(fan.rays))
                    .invariant_factors() == (1,) * fan.dim)
            with pytest.raises(FanError, match="fan is not smooth$"):
                class_group(fan)
            return
        pic = class_group(fan)
        assert (smith_normal_form(pic.to_class_mat).invariant_factors()
                == (1,) * pic.rank)

    def test_one_snf_per_cold_class(self, monkeypatch):
        ring = cox_ring(P1XP1)
        graded_dimension.cache_clear()
        calls = []
        real = lattice_module.smith_normal_form
        for module in (lattice_module, cox_module):
            monkeypatch.setattr(module, "smith_normal_form",
                                lambda a: calls.append(a) or real(a),
                                raising=False)
        assert graded_dimension(ring, (2, 3)) == 12
        assert calls == [ring.pic.to_class_mat]
        assert graded_dimension(ring, (2, 3)) == 12  # a cache hit
        assert len(calls) == 1


class TestRankBookkeeping:
    def test_p2_mul2(self):
        pic = class_group(P2)
        numbers = rank_bookkeeping(multiplication_endo(P2, 2), cox_ring(P2), pic)
        assert numbers == {"product_of_multiplicities": 8, "degree": 4,
                           "pic_index": 2}

    def test_swap(self):
        pic = class_group(P1XP1)
        numbers = rank_bookkeeping(SWAP, cox_ring(P1XP1), pic)
        assert numbers == {"product_of_multiplicities": 4, "degree": 2,
                           "pic_index": 2}

    def test_identity(self):
        pic = class_group(P1XP1)
        numbers = rank_bookkeeping(multiplication_endo(P1XP1, 1),
                                   cox_ring(P1XP1), pic)
        assert numbers == {"product_of_multiplicities": 1, "degree": 1,
                           "pic_index": 1}

    def test_whole_corpus(self, pairs):
        for label, fan, endo in pairs:
            rank_bookkeeping(endo, cox_ring(fan), class_group(fan))

    def test_ring_of_another_fan_refused(self, monkeypatch):
        # nothing else reads the ring: a P2 endomorphism with P1's ring
        # used to return P2's numbers
        def refuse(*args):
            raise AssertionError("work before the ring check")

        for name in ("degree", "pullback_matrix"):
            monkeypatch.setattr(cox_module, name, refuse)
        with pytest.raises(EndoError, match="different fans"):
            rank_bookkeeping(multiplication_endo(P2, 2), cox_ring(P1),
                             class_group(P2))


def test_pullback_matrix_computed_once_per_endomorphism():
    # the oracle's twist loop, the rank bookkeeping and the Pic cosets all
    # read f*; a new endomorphism object equal to a cached one is a hit
    endo, pic = multiplication_endo(P1XP1, 3), class_group(P1XP1)
    pullback_matrix.cache_clear()
    dec = decompose_pushforward(endo, (1, 0, 0, 0))
    assert verify_decomposition(endo, (1, 0, 0, 0), dec).passed
    assert rank_bookkeeping(endo, cox_ring(P1XP1), pic)["pic_index"] == 9
    assert len(pic_coset_decomposition(multiplication_endo(P1XP1, 3),
                                       pic)) == 9
    info = pullback_matrix.cache_info()
    assert (info.misses, info.hits) == (1, 2)
