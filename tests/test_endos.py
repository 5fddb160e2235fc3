from fractions import Fraction

import pytest

import toricpush.endos as endos_module
from conftest import (FIXTURE_DIR, ORACLE_FANS, corpus_fans, corpus_pairs,
                      half_plane_fan, oracle_endos)
from toricpush import (EndoError, FanError, IntMatrix, build_endo, class_group,
                       compose, degree, is_int_amplified, multiplication_endo,
                       positivity, Positivity, product_fan, projective_space,
                       pullback_divisor, pullback_matrix, validate_fan)
from toricpush.cli import run_command
from toricpush.divisors import kleiman_forms

P1 = projective_space(1)
P2 = projective_space(2)
P1XP1 = product_fan(P1, P1)
SWAP = build_endo(P1XP1, IntMatrix.from_rows([[0, 1], [2, 0]]))


def characteristic_polynomial(matrix):
    """Coefficients c_0, ..., c_n (c_n = 1) of det(xI - A), low degree
    first, by the Faddeev-LeVerrier recursion over Fraction:
    M_k = A M_{k-1} + c_{n-k+1} I and c_{n-k} = -tr(A M_k) / k."""
    a = [[Fraction(x) for x in row] for row in matrix.entries]
    n = len(a)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(a[i][l] * m[l][j] for l in range(n))
              + (coeffs[n - k + 1] if i == j else 0) for j in range(n)]
             for i in range(n)]
        trace = sum(a[i][l] * m[l][i] for i in range(n) for l in range(n))
        coeffs[n - k] = -trace / k
    return coeffs


def roots_inside_unit_disk(coeffs):
    """Whether every root of sum_k coeffs[k] x^k lies in |x| < 1, decided
    exactly by the Schur-Cohn-Jury reduction: with a_0 and a_m the constant
    and leading coefficients, the roots are inside iff |a_0| < |a_m| and
    (a_m f(x) - a_0 x^m f(1/x)) / x, of degree m - 1, has its roots
    inside."""
    f = list(coeffs)
    while len(f) > 1:
        a0, am = f[0], f[-1]
        if abs(a0) >= abs(am):
            return False
        f = [am * f[k] - a0 * f[-1 - k] for k in range(1, len(f))]
    return True


def all_roots_outside_unit_disk(pullback):
    """Meng's eigenvalue characterization of int-amplified, at any Picard
    rank: every eigenvalue of f* has modulus > 1, i.e. every root of the
    reversed characteristic polynomial x^n p(1/x) has modulus < 1.  A zero
    eigenvalue makes that polynomial's leading coefficient 0, which the
    first reduction step rejects."""
    return roots_inside_unit_disk(characteristic_polynomial(pullback)[::-1])


def companion(*coeffs):
    """Integer companion matrix of the monic x^n + c_{n-1} x^{n-1} + ... + c_0,
    given c_0, ..., c_{n-1}."""
    n = len(coeffs)
    return IntMatrix.from_rows(
        [[int(j == i - 1) for j in range(n - 1)] + [-coeffs[i]]
         for i in range(n)])


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


class TestEigenvalueOracle:
    def test_characteristic_polynomial(self):
        # companion matrices return the polynomial they were built from
        for coeffs in [(5,), (2, -3), (-1, 0, 4), (7, -2, 0, 1, -6)]:
            assert characteristic_polynomial(companion(*coeffs)) == [
                *coeffs, 1]
        assert characteristic_polynomial(SWAP.matrix) == [-2, 0, 1]

    @pytest.mark.parametrize("coeffs, outside", [
        ((-2,), True),              # x - 2
        ((1,), False),              # x + 1: on the circle
        ((2, 1), True),             # x^2 + x + 2: |roots| = sqrt 2
        ((1, -3), False),           # x^2 - 3x + 1: roots 2.62 and 0.38
        ((-2, 0, 0), True),         # x^3 - 2: |roots| = 2^(1/3)
        ((-1, -1, 0), False),       # x^3 - x - 1: complex pair |.| 0.87
        ((30, -11, -4), True),      # (x - 2)(x + 3)(x - 5)
        ((6, -7, 0), False),        # (x - 2)(x + 3)(x - 1)
        ((0, 4, 0), False),         # x (x^2 + 4): a zero eigenvalue
        ((36, 0, 13, 0), True),     # (x^2 + 4)(x^2 + 9)
        ((4, 0, 5, 0), False),      # (x^2 + 4)(x^2 + 1): roots +-i
    ])
    def test_roots_outside_unit_disk(self, coeffs, outside):
        assert all_roots_outside_unit_disk(companion(*coeffs)) is outside


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

    @pytest.mark.parametrize("name", sorted(ORACLE_FANS))
    def test_eigenvalue_cross_check_exhaustive(self, name):
        # is_int_amplified does not re-check its certificate: H and f*H - H
        # are ample by construction, and this is where that is checked
        fan = ORACLE_FANS[name][0]
        pic = class_group(fan)
        verdicts = set()
        for endo in oracle_endos(name):
            yes, cert = is_int_amplified(endo, pic)
            pb = pullback_matrix(endo, pic)
            assert yes == all_roots_outside_unit_disk(pb), endo.matrix
            if yes:
                diff = tuple(a - b for a, b in zip(pb.mul_vector(cert), cert))
                assert positivity(fan, pic.lift(cert)) is Positivity.AMPLE
                assert positivity(fan, pic.lift(diff)) is Positivity.AMPLE
            verdicts.add(yes)
        assert verdicts == {True, False}

    def test_exhaustive_set_size(self):
        assert sum(len(oracle_endos(name)) for name in ORACLE_FANS) == 292

    @pytest.mark.parametrize("endo, solves", [
        (SWAP, (1, 0)), (multiplication_endo(P2, 3), (1, 0)),
        (multiplication_endo(P1XP1, 1), (1, 1))])
    def test_one_solve_unless_no(self, endo, solves, monkeypatch):
        # (feasible_point calls, is_feasible calls): a "yes" is one solve;
        # only a "no" solves the ample system alone
        calls = []
        for name in ("feasible_point", "is_feasible"):
            real = getattr(endos_module, name)
            monkeypatch.setattr(endos_module, name,
                                lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        is_int_amplified(endo, class_group(endo.fan))
        assert (calls.count("feasible_point"),
                calls.count("is_feasible")) == solves

    def test_non_complete_fan_rejected(self):
        fan = half_plane_fan()
        with pytest.raises(FanError, match="^positivity needs a complete fan$"):
            is_int_amplified(multiplication_endo(fan, 2), class_group(fan))

    def test_no_ample_class(self, monkeypatch, capsys):
        # a form and its negative: no class is strictly positive on both
        form = (Fraction(1, 2), Fraction(0), Fraction(-1), Fraction(0))
        monkeypatch.setattr(endos_module, "kleiman_forms",
                            lambda fan: (form, tuple(-a for a in form)))
        message = "no ample class found; fan may be non-projective"
        with pytest.raises(EndoError, match="^%s$" % message):
            is_int_amplified(SWAP, class_group(P1XP1))
        fixture = FIXTURE_DIR / "p1xp1.fan.json"
        assert run_command(["intamp", str(fixture), "--endo", "mul:2"]) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)

    def test_eigenvalue_cross_check_swap(self):
        pic = class_group(P1XP1)
        yes, _ = is_int_amplified(SWAP, pic)
        assert yes == all_roots_outside_unit_disk(pullback_matrix(SWAP, pic))

    def test_iterates_stay_int_amplified(self):
        pic = class_group(P1XP1)
        for endo in (SWAP, multiplication_endo(P1XP1, 2)):
            assert is_int_amplified(endo, pic)[0]
            assert is_int_amplified(compose(endo, endo), pic)[0]


class TestStrictClassConstraints:
    @pytest.mark.parametrize("kind, name", [
        *(("corpus", name) for name in sorted(corpus_fans())),
        *(("oracle", name) for name in sorted(ORACLE_FANS))])
    def test_integer_multiples_of_the_kleiman_rows(self, kind, name):
        # the engine takes integer rows only; each strict Kleiman row
        # form . lift(T h) >= 1, for T the identity and each f* - id of the
        # corpus pairs or the exhaustive oracle set, is scaled to integers
        # where it is built
        if kind == "oracle":
            fan, endos = ORACLE_FANS[name][0], oracle_endos(name)
        else:
            fan = corpus_fans()[name]
            endos = [e for _, f, e in corpus_pairs() if f == fan]
        pic = class_group(fan)
        ident = IntMatrix.identity(pic.rank)
        forms = kleiman_forms(fan)
        for transform in [ident] + [pullback_matrix(e, pic) - ident
                                    for e in endos]:
            rows = endos_module._strict_class_constraints(fan, pic, transform)
            assert len(rows) == len(forms)
            columns = transform.transpose().entries
            for (coeffs, rhs), form in zip(rows, forms):
                exact = [sum(a * b for a, b in zip(form, pic.lift(col)))
                         for col in columns]
                assert all(type(x) is int for x in (*coeffs, rhs))
                assert rhs >= 1
                assert list(coeffs) == [rhs * x for x in exact]

    def test_rational_forms_scaled_by_their_lcm(self, monkeypatch):
        # on a smooth fan every Kleiman form is integral (each cone's ray
        # matrix is unimodular), so the rows above all have rhs 1; with the
        # forms divided by 6, form . h >= 1 becomes form . h >= 6: the
        # verdict stays and the certificate is 6 times SWAP's (3, 2)
        pic = class_group(P1XP1)
        ident = IntMatrix.identity(pic.rank)
        before = endos_module._strict_class_constraints(P1XP1, pic, ident)
        forms = tuple(tuple(a / 6 for a in form)
                      for form in kleiman_forms(P1XP1))
        monkeypatch.setattr(endos_module, "kleiman_forms", lambda fan: forms)
        after = endos_module._strict_class_constraints(P1XP1, pic, ident)
        assert all(rhs == 1 for _, rhs in before)
        assert after == [(coeffs, 6) for coeffs, _ in before]
        assert is_int_amplified(SWAP, pic) == (True, (18, 12))
