from fractions import Fraction

import pytest

from toricpush import (EndoError, IntMatrix, build_endo, class_group, compose,
                       degree, is_int_amplified, multiplication_endo,
                       positivity, Positivity, product_fan, projective_space,
                       pullback_divisor, pullback_matrix, validate_fan)

P1 = projective_space(1)
P2 = projective_space(2)
P1XP1 = product_fan(P1, P1)
SWAP = build_endo(P1XP1, IntMatrix.from_rows([[0, 1], [2, 0]]))


def all_roots_outside_unit_disk(pullback):
    """Eigenvalue characterization of int-amplified at Picard rank <= 2,
    decided exactly via the Jury stability conditions on the reversed
    characteristic polynomial."""
    r = pullback.nrows
    if r == 1:
        return abs(pullback.entries[0][0]) > 1
    if r == 2:
        tr = pullback.entries[0][0] + pullback.entries[1][1]
        det = pullback.det()
        if det == 0:
            return False
        # roots of x^2 - tr x + det outside the closed disk iff the reversed
        # polynomial x^2 - (tr/det) x + 1/det has both roots strictly inside:
        # |1/det| < 1 and |tr/det| < 1 + 1/det
        a0 = Fraction(1, det)
        a1 = Fraction(-tr, det)
        return abs(a0) < 1 and abs(a1) < 1 + a0
    raise ValueError("cross-check only implemented for rank <= 2")


class TestBuildEndo:
    def test_multiplication_on_p2(self):
        e = multiplication_endo(P2, 2)
        assert e.pi == (0, 1, 2)
        assert e.mults == (2, 2, 2)

    def test_swap(self):
        # rays ordered e1, -e1, e2, -e2
        assert SWAP.pi == (2, 3, 0, 1)
        assert SWAP.mults == (2, 2, 1, 1)

    def test_not_ray_compatible(self):
        with pytest.raises(EndoError, match="not ray-compatible"):
            build_endo(P2, IntMatrix.from_rows([[1, 0], [0, 2]]))

    def test_wrong_shape(self):
        with pytest.raises(EndoError, match="^endomorphism matrix is 2x3 "
                                            "but fan has dim 2$"):
            build_endo(P2, IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))

    def test_not_finite(self):
        with pytest.raises(EndoError, match="not finite"):
            build_endo(P2, IntMatrix.from_rows([[1, 1], [1, 1]]))

    def test_not_cone_compatible(self):
        # two opposite smooth cones; reflecting e2 permutes the rays but
        # maps the cone <e1,e2> to <e1,-e2>, which is not in the fan
        fan, _ = validate_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                              [(0, 1), (2, 3)])
        with pytest.raises(EndoError, match="not cone-compatible"):
            build_endo(fan, IntMatrix.from_rows([[1, 0], [0, -1]]))

    def test_ray_action_rechecked(self):
        for endo in (SWAP, multiplication_endo(P2, 3)):
            for rho, v in enumerate(endo.fan.rays):
                image = endo.matrix.mul_vector(v)
                assert image == tuple(endo.mults[rho] * x
                                      for x in endo.fan.rays[endo.pi[rho]])


class TestDegreeAndCompose:
    def test_degree_of_multiplication(self):
        assert degree(multiplication_endo(P2, 2)) == 4

    def test_degree_of_swap(self):
        assert degree(SWAP) == 2

    def test_degree_of_identity(self):
        assert degree(multiplication_endo(P2, 1)) == 1

    def test_compose_multiplications(self):
        e = compose(multiplication_endo(P2, 2), multiplication_endo(P2, 2))
        assert e.matrix == IntMatrix.identity(2).scale(4)

    def test_swap_squares_to_multiplication(self):
        assert compose(SWAP, SWAP).matrix == IntMatrix.identity(2).scale(2)

    def test_degree_multiplicative(self):
        a, b = SWAP, multiplication_endo(P1XP1, 3)
        assert degree(compose(a, b)) == degree(a) * degree(b)

    def test_identity_neutral(self):
        ident = multiplication_endo(P1XP1, 1)
        assert compose(SWAP, ident) == SWAP

    def test_pullback_contravariance(self):
        pic = class_group(P1XP1)
        a, b = SWAP, multiplication_endo(P1XP1, 2)
        lhs = pullback_matrix(compose(a, b), pic)
        rhs = pullback_matrix(b, pic) @ pullback_matrix(a, pic)
        assert lhs == rhs


class TestPullback:
    def test_p2_multiplication(self):
        pic = class_group(P2)
        assert pullback_matrix(multiplication_endo(P2, 2), pic).entries == ((2,),)

    def test_swap_action(self):
        pic = class_group(P1XP1)
        pb = pullback_matrix(SWAP, pic)
        # classes in the basis (fiber of first factor, fiber of second):
        # (a,b) -> (2b, a) up to the canonical basis ordering
        for a, b in [(1, 0), (0, 1), (3, 2)]:
            image = pb.mul_vector((a, b))
            assert sorted(((a, b), tuple(image))) in (
                sorted(((a, b), (2 * b, a))), sorted(((a, b), (b, 2 * a))))
        assert abs(pb.det()) == 2

    def test_identity(self):
        pic = class_group(P1XP1)
        assert (pullback_matrix(multiplication_endo(P1XP1, 1), pic)
                == IntMatrix.identity(pic.rank))

    def test_divisor_class_commuting_square(self):
        import random
        rng = random.Random(23)
        for endo in (SWAP, multiplication_endo(P2, 3)):
            pic = class_group(endo.fan)
            pb = pullback_matrix(endo, pic)
            for _ in range(10):
                coeffs = tuple(rng.randint(-3, 3)
                               for _ in range(endo.fan.nrays))
                assert (pic.class_of(pullback_divisor(endo, coeffs))
                        == pb.mul_vector(pic.class_of(coeffs)))


class TestIntAmplified:
    def test_p2_multiplication(self):
        pic = class_group(P2)
        yes, cert = is_int_amplified(multiplication_endo(P2, 2), pic)
        assert yes
        assert positivity(P2, pic.lift(cert)) is Positivity.AMPLE

    def test_identity_is_not(self):
        for fan in (P1, P2, P1XP1):
            pic = class_group(fan)
            assert is_int_amplified(multiplication_endo(fan, 1), pic) == (False, None)

    def test_swap_with_certificate_recheck(self):
        pic = class_group(P1XP1)
        yes, cert = is_int_amplified(SWAP, pic)
        assert yes
        pb = pullback_matrix(SWAP, pic)
        diff = tuple(a - b for a, b in zip(pb.mul_vector(cert), cert))
        assert positivity(P1XP1, pic.lift(cert)) is Positivity.AMPLE
        assert positivity(P1XP1, pic.lift(diff)) is Positivity.AMPLE

    @pytest.mark.parametrize("fan", [P1, P2, P1XP1])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_eigenvalue_cross_check(self, fan, q):
        pic = class_group(fan)
        endo = multiplication_endo(fan, q)
        yes, _ = is_int_amplified(endo, pic)
        assert yes == all_roots_outside_unit_disk(pullback_matrix(endo, pic))

    def test_eigenvalue_cross_check_swap(self):
        pic = class_group(P1XP1)
        yes, _ = is_int_amplified(SWAP, pic)
        assert yes == all_roots_outside_unit_disk(pullback_matrix(SWAP, pic))

    def test_iterates_stay_int_amplified(self):
        pic = class_group(P1XP1)
        for endo in (SWAP, multiplication_endo(P1XP1, 2)):
            assert is_int_amplified(endo, pic)[0]
            assert is_int_amplified(compose(endo, endo), pic)[0]
