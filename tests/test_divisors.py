import random
from itertools import product
from math import comb

import pytest

import toricpush.divisors as divisors
from conftest import (WEIGHTED, bundled_fans, fraction_kleiman_forms,
                      half_plane_fan, labelled_fans, weighted_plane)
from toricpush import (FanError, PicLattice, Positivity, class_group,
                       decompose_pushforward, h0, h0_class, hirzebruch,
                       is_projective, multiplication_endo, positivity,
                       product_fan, projective_space, pullback_divisor,
                       verify_decomposition, validate_fan)
from toricpush.divisors import _class_counter

P1 = projective_space(1)
P2 = projective_space(2)
P1XP1 = product_fan(P1, P1)
F1 = hirzebruch(1)
F2 = hirzebruch(2)
F3 = hirzebruch(3)


def brute_h0(fan, coeffs):
    """Independent lattice point count over an explicit bounding box.

    For the rank <= 2 test fans every section polytope lies in the box
    |m_i| <= 4 * sum|a| + 4 (each fan contains +-e_i or e_i and a ray with all
    coordinates negative, so coordinates of feasible m are bounded by small
    multiples of the coefficients; the factor 4 covers Hirzebruch a <= 3).
    """
    s = 4 * sum(abs(a) for a in coeffs) + 4
    count = 0
    for m in product(range(-s, s + 1), repeat=fan.dim):
        if all(sum(mi * vi for mi, vi in zip(m, ray)) >= -a
               for ray, a in zip(fan.rays, coeffs)):
            count += 1
    return count


def ray_divisor(fan, rho, mult=1):
    return tuple(mult if i == rho else 0 for i in range(fan.nrays))


class TestClassGroup:
    def test_p2_rank_one_same_generator(self):
        pic = class_group(P2)
        assert pic.rank == 1
        classes = {pic.class_of(ray_divisor(P2, i)) for i in range(3)}
        assert len(classes) == 1

    def test_p1xp1_kunneth(self):
        pic = class_group(P1XP1)
        assert pic.rank == 2
        classes = [pic.class_of(ray_divisor(P1XP1, i)) for i in range(4)]
        assert classes[0] == classes[1]
        assert classes[2] == classes[3]
        assert sorted({classes[0], classes[2]}) == [(0, 1), (1, 0)]

    def test_hirzebruch_rank_two(self):
        assert class_group(F1).rank == 2

    @pytest.mark.parametrize("fan", [P1, P2, P1XP1, F1])
    def test_section_property(self, fan):
        pic = class_group(fan)
        for j in range(pic.rank):
            unit = tuple(1 if i == j else 0 for i in range(pic.rank))
            assert pic.class_of(pic.lift(unit)) == unit

    @pytest.mark.parametrize("fan", [P1, P2, P1XP1, F1])
    def test_characters_map_to_zero(self, fan):
        pic = class_group(fan)
        for j in range(fan.dim):
            div = tuple(ray[j] for ray in fan.rays)
            assert pic.class_of(div) == pic.zero()

    def test_torsion_rejected(self):
        # the quadric cone's class group is Z/2
        fan, _ = validate_fan(2, [(1, 0), (1, 2)], [(0, 1)])
        with pytest.raises(FanError):
            class_group(fan)

    def test_rays_must_span(self):
        # +-e1 in the plane: no torsion to speak of, the rays miss e2
        fan, _ = validate_fan(2, [(1, 0), (-1, 0)], [(0,), (1,)])
        with pytest.raises(FanError, match=r"^rays do not span R\^2$"):
            class_group(fan)


class TestH0:
    def test_p2_quadrics(self):
        assert h0(P2, (2, 0, 0)) == 6

    def test_trivial_bundle(self):
        for fan in (P1, P2, P1XP1, F1):
            assert h0(fan, (0,) * fan.nrays) == 1

    def test_p1xp1_bidegree(self):
        # class (1,2) on P1 x P1
        assert h0(P1XP1, (1, 0, 2, 0)) == 6

    def test_empty_polytope(self):
        assert h0(P2, (-1, 0, 0)) == 0

    def test_projective_space_closed_forms(self):
        p3 = projective_space(3)
        for d in range(41):
            assert h0(p3, (0, 0, 0, d)) == comb(d + 3, 3)
        for d in range(201):
            assert h0(P2, (0, d, 0)) == comb(d + 2, 2)
        # degrees that no per-point or per-line walk reaches
        big = 10 ** 12
        assert h0(P2, (0, big, 0)) == comb(big + 2, 2)
        assert h0(P1XP1, (0, big, 0, 7)) == (big + 1) * 8
        assert h0(P1XP1, (big, 0, 0, big + 3)) == (big + 1) * (big + 4)
        for a, fan in ((1, F1), (2, F2), (3, F3)):
            # m1 >= 0, 0 <= m2 <= b, m1 <= c + a m2 on rays e1, e2,
            # -e1 + a e2, -e2
            for b, c in ((big, 5), (40, big), (big, big + 1)):
                assert h0(fan, (0, 0, c, b)) == ((b + 1) * (c + 1)
                                                 + a * b * (b + 1) // 2)
        assert h0(p3, (0, 1000, 0, 0)) == comb(1003, 3)

    def test_non_complete_fan(self):
        # the upper half-plane fan: sections are unbounded in m_2
        fan, report = validate_fan(2, [(1, 0), (0, 1), (-1, 0)],
                                   [(0, 1), (1, 2)])
        assert not report.complete
        with pytest.raises(FanError, match="unbounded"):
            h0(fan, (1, 1, 1))
        assert h0(fan, (-1, 0, -1)) == 0

    @pytest.mark.parametrize("fan", [P1, P2, P1XP1, F1, F2, F3])
    def test_brute_force_oracle(self, fan):
        rng = random.Random(11)
        for _ in range(15):
            coeffs = tuple(rng.randint(-2, 3) for _ in range(fan.nrays))
            assert h0(fan, coeffs) == brute_h0(fan, coeffs)

    @pytest.mark.parametrize("fan", [P1, P2, P1XP1, F1])
    def test_character_invariance(self, fan):
        rng = random.Random(13)
        for _ in range(10):
            coeffs = tuple(rng.randint(-2, 2) for _ in range(fan.nrays))
            m = tuple(rng.randint(-2, 2) for _ in range(fan.dim))
            shifted = tuple(a + sum(mi * vi for mi, vi in zip(m, ray))
                            for ray, a in zip(fan.rays, coeffs))
            assert h0(fan, coeffs) == h0(fan, shifted)


class TestClassCounter:
    """h0_class counts with the rank coordinates of the class as the
    counter's parameters, not through a lift to ray coefficients."""

    @pytest.mark.parametrize("label, fan", list(labelled_fans()),
                             ids=[label for label, _ in labelled_fans()])
    def test_counts_h0_of_the_lift(self, label, fan):
        pic = class_group(fan)
        count = _class_counter(fan)
        for cls in product(range(-3, 4), repeat=pic.rank):
            assert count(cls) == h0(fan, pic.lift(cls)), cls

    def test_miss_lifts_nothing_and_calls_no_h0(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an h0_class miss went through a divisor")

        monkeypatch.setattr(PicLattice, "lift", refuse)
        monkeypatch.setattr(divisors, "h0", refuse)
        h0_class.cache_clear()
        assert h0_class(P2, (2,)) == 6
        assert h0_class(P1XP1, (1, 2)) == 6
        assert h0_class(F1, (-1, 0)) == 0
        assert h0_class.cache_info().misses == 3

    def test_unbounded_class_count_refused(self):
        with pytest.raises(FanError, match="unbounded"):
            h0_class(half_plane_fan(), (1,))


class TestIsProjective:
    @pytest.mark.parametrize("name", sorted(bundled_fans()))
    def test_bundled_fans(self, name):
        assert is_projective(bundled_fans()[name])

    @pytest.mark.parametrize("name", sorted(WEIGHTED))
    def test_weighted_planes(self, name):
        assert is_projective(weighted_plane(name))

    def test_class_group_with_torsion(self):
        # P2 / (Z/3): complete and projective, Cl = Z + Z/3, no Picard
        # lattice in class_group's sense
        fan, _ = validate_fan(2, [(2, -1), (-1, 2), (-1, -1)],
                              [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(FanError, match="torsion"):
            class_group(fan)
        assert is_projective(fan)

    def test_not_complete(self):
        dangling, _ = validate_fan(2, [(1, 0), (0, 1), (-1, -1)],
                                   [(0, 1), (1, 2)])
        assert not is_projective(dangling)
        assert not is_projective(half_plane_fan())


class TestPositivity:
    def test_p2_hyperplane(self):
        assert positivity(P2, (1, 0, 0)) is Positivity.AMPLE

    def test_trivial_class(self):
        for fan in (P1, P2, P1XP1, F1):
            assert positivity(fan, (0,) * fan.nrays) is Positivity.NEF_NOT_AMPLE

    def test_negative_hyperplane(self):
        assert positivity(P2, (-1, 0, 0)) is Positivity.NOT_NEF

    def test_non_complete_fan_rejected(self):
        # every maximal cone of the half-plane fan is full-dimensional, so
        # only the completeness test refuses it
        with pytest.raises(FanError,
                           match="^positivity needs a complete fan$"):
            positivity(half_plane_fan(), (1, 1, 1))

    def test_hirzebruch_fiber_is_nef_not_ample(self):
        # the fiber class of F1: pullback of a point from the base P1
        pic = class_group(F1)
        fiber = ray_divisor(F1, 0)
        assert positivity(F1, fiber) is Positivity.NEF_NOT_AMPLE
        assert pic.class_of(fiber) != pic.zero()

    @pytest.mark.parametrize("name", sorted(WEIGHTED))
    def test_non_smooth_against_fraction_forms(self, name):
        # on a simplicial non-smooth fan the forms g / s have s > 1; the
        # sign of g . a must give the Fraction reference's verdict
        fan = weighted_plane(name)
        forms = fraction_kleiman_forms(fan)
        verdicts = set()
        for d in product(range(-1, 2), repeat=fan.nrays):
            values = [sum(c * a for c, a in zip(form, d)) for form in forms]
            if all(v > 0 for v in values):
                expected = Positivity.AMPLE
            elif all(v >= 0 for v in values):
                expected = Positivity.NEF_NOT_AMPLE
            else:
                expected = Positivity.NOT_NEF
            assert positivity(fan, d) is expected, d
            verdicts.add(expected)
        assert verdicts == set(Positivity)

    @pytest.mark.parametrize("fan", [P1, P2, P1XP1, F1])
    def test_cone_closure_properties(self, fan):
        rng = random.Random(17)
        divisors = [tuple(rng.randint(-2, 2) for _ in range(fan.nrays))
                    for _ in range(40)]
        nef = [d for d in divisors if positivity(fan, d)
               in (Positivity.AMPLE, Positivity.NEF_NOT_AMPLE)]
        ample = [d for d in divisors if positivity(fan, d) is Positivity.AMPLE]
        for a in nef[:8]:
            for b in nef[:8]:
                s = tuple(x + y for x, y in zip(a, b))
                assert positivity(fan, s) is not Positivity.NOT_NEF
        for a in ample[:8]:
            for b in nef[:8]:
                s = tuple(x + y for x, y in zip(a, b))
                assert positivity(fan, s) is Positivity.AMPLE

    @pytest.mark.parametrize("fan", [P1, P2, P1XP1, F1])
    def test_h0_strictly_increases_for_ample(self, fan):
        rng = random.Random(19)
        found = 0
        while found < 3:
            coeffs = tuple(rng.randint(0, 2) for _ in range(fan.nrays))
            if positivity(fan, coeffs) is not Positivity.AMPLE:
                continue
            found += 1
            values = [h0(fan, tuple(k * a for a in coeffs))
                      for k in range(1, 5)]
            assert all(x < y for x, y in zip(values, values[1:]))


# P2 has three rays; a divisor with fewer or more coefficients used to be
# read as if padded with zeros, cut to three entries, or indexed out of range
MUL2 = multiplication_endo(P2, 2)
DIVISOR_CALLS = {
    "h0": lambda d: h0(P2, d),
    "positivity": lambda d: positivity(P2, d),
    "pullback_divisor": lambda d: pullback_divisor(MUL2, d),
    "decompose_pushforward": lambda d: decompose_pushforward(MUL2, d),
    "verify_decomposition": lambda d: verify_decomposition(
        MUL2, d, decompose_pushforward(MUL2, (0, 0, 0))),
}


class TestDivisorLength:
    @pytest.mark.parametrize("divisor", [(1,), (0,), (1, 0, 0, 5),
                                         (0, 0, 0, 7)])
    @pytest.mark.parametrize("function", sorted(DIVISOR_CALLS))
    def test_wrong_length_rejected(self, function, divisor):
        with pytest.raises(FanError,
                           match="^divisor needs one coefficient per ray$"):
            DIVISOR_CALLS[function](divisor)
