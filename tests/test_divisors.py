import random
import sys
from itertools import product
from math import comb, lcm

import pytest

import toricpush.divisors as divisors
import toricpush.endos as endos_module
from conftest import (HALF_PLANE, P2_MOD_3, P2_STRAY, QUADRANTS, WEIGHTED,
                      bundled_fans, class_level_cases, decomposition,
                      fraction_cone_ray_forms, fraction_kleiman_forms,
                      half_plane_fan, labelled_fans, non_smooth_fans,
                      weighted_plane)
from toricpush import (EndoError, FanError, IntMatrix, PicLattice, Positivity,
                       class_group, cox_ring, decompose_pushforward,
                       graded_dimension, h0, h0_class, hirzebruch,
                       is_int_amplified, is_projective, iterate_coherence,
                       module_shifts, multiplication_endo, positivity,
                       product_fan, projective_space, pullback_divisor,
                       smith_normal_form, verify_decomposition, validate_fan)
from toricpush.divisors import _class_counter, kleiman_forms

P1 = projective_space(1)
P2 = projective_space(2)
P1XP1 = product_fan(P1, P1)
F1 = hirzebruch(1)
F2 = hirzebruch(2)
F3 = hirzebruch(3)
NOT_COMPLETE = "class group needs a complete fan; fan is not complete"
NOT_SMOOTH = "class group needs a smooth fan; fan is not smooth"
STRAY = "class group needs every ray in a maximal cone; ray 3 is in none"


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


def reference_verdict(forms, d):
    """The Kleiman verdict on the divisor d read off reference forms."""
    values = [sum(c * a for c, a in zip(form, d)) for form in forms]
    if all(v > 0 for v in values):
        return Positivity.AMPLE
    if all(v >= 0 for v in values):
        return Positivity.NEF_NOT_AMPLE
    return Positivity.NOT_NEF


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
        # the quadric cone's class group is Z/2; one cone is not complete,
        # which class_group refuses first
        fan, _ = validate_fan(2, [(1, 0), (1, 2)], [(0, 1)])
        with pytest.raises(FanError, match="^%s$" % NOT_COMPLETE):
            class_group(fan)

    def test_rays_must_span(self):
        # +-e1 in the plane: the rays miss e2, so the fan is not complete
        fan, _ = validate_fan(2, [(1, 0), (-1, 0)], [(0,), (1,)])
        with pytest.raises(FanError, match="^%s$" % NOT_COMPLETE):
            class_group(fan)


class TestPicGauge:
    # class coordinates are the coefficients off the first maximal cone
    # sigma0 of the one divisor in the class that vanishes on sigma0's rays

    @pytest.mark.parametrize("label, fan", list(labelled_fans()))
    def test_lift_is_the_units_off_sigma0(self, label, fan):
        pic = class_group(fan)
        free = [rho for rho in range(fan.nrays) if rho not in fan.max_cones[0]]
        units = [[int(rho == j) for j in free] for rho in range(fan.nrays)]
        assert pic.lift_mat == IntMatrix.from_rows(units)
        assert pic.to_class_mat @ pic.lift_mat == IntMatrix.identity(pic.rank)

    @pytest.mark.parametrize("label, fan", list(labelled_fans()))
    def test_principal_divisors_vanish(self, label, fan):
        pic = class_group(fan)
        for i in range(fan.dim):
            assert pic.class_of([v[i] for v in fan.rays]) == pic.zero()

    @pytest.mark.parametrize("label, fan", list(labelled_fans()))
    def test_h0_class_of_a_divisor(self, label, fan):
        pic, rng = class_group(fan), random.Random(23)
        for _ in range(6):
            a = [rng.randint(-1, 2) for _ in range(fan.nrays)]
            assert h0_class(fan, pic.class_of(a)) == h0(fan, a)

    @pytest.mark.parametrize("label, fan", list(labelled_fans()))
    def test_no_smith_normal_form(self, label, fan, monkeypatch):
        def refuse(matrix):
            raise AssertionError("class_group took a Smith normal form")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "toricpush" and hasattr(
                    module, "smith_normal_form"):
                monkeypatch.setattr(module, "smith_normal_form", refuse)
        class_group.cache_clear()
        assert class_group(fan).rank == fan.nrays - fan.dim

    def test_where_the_smith_basis_differed(self):
        # the basis read off the Smith normal form of the ray matrix, which
        # class_group used before, is this gauge on every labelled fan but
        # two: there printed classes differ from that basis's
        differ = {label for label, fan in labelled_fans()
                  if class_group(fan).to_class_mat.entries
                  != smith_normal_form(IntMatrix.from_rows(fan.rays))
                  .U.entries[fan.dim:]}
        assert differ == {"F1xP1", "P1^3"}

    @pytest.mark.parametrize("label, fan", list(labelled_fans()))
    def test_int_amplified_starts_with_the_projective_rows(
            self, label, fan, monkeypatch):
        systems = []
        for module in (divisors, endos_module):
            real = module.feasible_point
            monkeypatch.setattr(module, "feasible_point",
                                lambda rows, n, real=real:
                                systems.append(rows) or real(rows, n))
        is_projective(fan)
        try:
            is_int_amplified(multiplication_endo(fan, 2), class_group(fan))
        except EndoError:  # no ample class: Oda's threefold
            assert label == "oda3"
        projective, amplified = systems[:2]
        assert amplified[:len(projective)] == projective
        assert len(amplified) == 2 * len(projective)


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

    @pytest.mark.parametrize("label, fan", list(class_level_cases()),
                             ids=[label for label, _ in class_level_cases()])
    def test_counts_h0_of_the_lift(self, label, fan):
        if label in WEIGHTED:
            # no class counter on a weighted plane, as class_group refuses
            # it; h0 counts its divisors' sections, checked by brute force
            with pytest.raises(FanError, match="^%s$" % NOT_SMOOTH):
                _class_counter(fan)
            for coeffs in product(range(-1, 3), repeat=fan.nrays):
                assert h0(fan, coeffs) == brute_h0(fan, coeffs), coeffs
            return
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
        # refused in class_group, before any count could be unbounded
        with pytest.raises(FanError, match="^%s$" % NOT_COMPLETE):
            h0_class(half_plane_fan(), (1,))


def _refusal(call):
    """The message of the FanError that call() raises, else None."""
    try:
        call()
    except FanError as error:
        return str(error)
    return None


class TestClassLevelNeedsACompleteFan:
    """class_group refuses a fan that is not complete, and every class-level
    entry point reaches it first; divisor-level functions stay general."""

    def test_class_level_refused_divisor_level_answers(self):
        fans = {name: validate_fan(spec["dim"], spec["rays"],
                                   spec["cones"])[0]
                for name, spec in (("quadrants", QUADRANTS),
                                   ("half-plane", HALF_PLANE))}
        refusals = {}
        for name, fan in fans.items():
            endo = multiplication_endo(fan, 2)
            zero, coeffs = (0,) * (fan.nrays - fan.dim), (0,) * fan.nrays
            calls = {
                "class_group": lambda: class_group(fan),
                "cox_ring": lambda: cox_ring(fan),
                "h0_class": lambda: h0_class(fan, zero),
                "graded_dimension":
                    lambda: graded_dimension(cox_ring(fan), zero),
                "decompose_pushforward":
                    lambda: decompose_pushforward(endo, coeffs),
                "verify_decomposition": lambda: verify_decomposition(
                    endo, coeffs, decomposition([zero] * 4)),
                "iterate_coherence": lambda: iterate_coherence(endo, coeffs),
                "module_shifts": lambda: module_shifts(endo, coeffs),
            }
            for label, call in calls.items():
                # an lru_cache keeps no exception: a warm call refuses too
                class_group.cache_clear()
                cox_ring.cache_clear()
                for attempt in ("cold", "warm"):
                    refusals[name, label, attempt] = _refusal(call)
        assert refusals == dict.fromkeys(refusals, NOT_COMPLETE)

        quadrants, half_plane = fans["quadrants"], fans["half-plane"]
        assert h0(quadrants, (0, 0, 0, 0)) == 1
        assert h0(half_plane, (-1, 0, -1)) == 0
        assert _refusal(lambda: h0(half_plane, (1, 1, 1))) == (
            "section polytope unbounded; fan is not complete")
        for fan in fans.values():
            assert not is_projective(fan)
            assert _refusal(lambda: positivity(fan, (0,) * fan.nrays)) == (
                "positivity needs a complete fan")


class TestClassLevelNeedsASmoothFan:
    """class_group refuses a complete fan that is not smooth, as the
    paper's theorem needs; every class-level entry point reaches it first,
    and the divisor-level functions answer."""

    def test_class_level_refused_divisor_level_answers(self):
        fans = dict(non_smooth_fans())
        refusals = {}
        for name, fan in fans.items():
            endo = multiplication_endo(fan, 2)
            zero, coeffs = (0,) * (fan.nrays - fan.dim), (0,) * fan.nrays
            calls = {
                "class_group": lambda: class_group(fan),
                "cox_ring": lambda: cox_ring(fan),
                "h0_class": lambda: h0_class(fan, zero),
                "graded_dimension":
                    lambda: graded_dimension(cox_ring(fan), zero),
                "is_int_amplified":
                    lambda: is_int_amplified(endo, class_group(fan)),
                "decompose_pushforward":
                    lambda: decompose_pushforward(endo, coeffs),
                "verify_decomposition": lambda: verify_decomposition(
                    endo, coeffs, decomposition([zero] * 4)),
                "iterate_coherence": lambda: iterate_coherence(endo, coeffs),
                "module_shifts": lambda: module_shifts(endo, coeffs),
            }
            for label, call in calls.items():
                class_group.cache_clear()
                cox_ring.cache_clear()
                for attempt in ("cold", "warm"):
                    refusals[name, label, attempt] = _refusal(call)
        assert refusals == dict.fromkeys(refusals, NOT_SMOOTH)

        # h0 and the Kleiman criterion are meaningful for Weil and
        # Q-Cartier divisors: D_rho has the weight of ray rho in the one
        # relation among the rays, and h0 counts monomials of that degree
        p112, p123 = fans["P(1,1,2)"], fans["P(1,2,3)"]
        assert h0(p112, (0, 0, 1)) == 2
        assert h0(p123, (0, 1, 0)) == h0(p123, (0, 0, 3)) == 3
        assert h0(p123, (6, 0, 0)) == 19
        assert positivity(p112, (0, 0, 1)) is Positivity.AMPLE
        assert positivity(p123, (-1, 0, 0)) is Positivity.NOT_NEF
        for fan in fans.values():
            assert is_projective(fan)
            assert h0(fan, (0, 0, 0)) == 1


class TestClassLevelNeedsEveryRayInACone:
    """A ray in no maximal cone is no divisor of the variety: P2's cones
    with a stray ray have Pic = Z, where Z^rays / M would give rank 2 and
    mul:2 three summand classes.  class_group refuses the fan; validate_fan
    and the divisor-level functions answer on it."""

    def test_class_level_refused_divisor_level_answers(self):
        fan, report = validate_fan(P2_STRAY["dim"], P2_STRAY["rays"],
                                   P2_STRAY["cones"])
        assert report.smooth and report.complete
        endo = multiplication_endo(fan, 2)
        zero, coeffs = (0,) * (fan.nrays - fan.dim), (0,) * fan.nrays
        calls = {
            "class_group": lambda: class_group(fan),
            "cox_ring": lambda: cox_ring(fan),
            "h0_class": lambda: h0_class(fan, zero),
            "is_int_amplified":
                lambda: is_int_amplified(endo, class_group(fan)),
            "decompose_pushforward":
                lambda: decompose_pushforward(endo, coeffs),
            "verify_decomposition": lambda: verify_decomposition(
                endo, coeffs, decomposition([zero] * 4)),
            "iterate_coherence": lambda: iterate_coherence(endo, coeffs),
            "module_shifts": lambda: module_shifts(endo, coeffs),
        }
        refusals = {}
        for label, call in calls.items():
            class_group.cache_clear()
            cox_ring.cache_clear()
            for attempt in ("cold", "warm"):
                refusals[label, attempt] = _refusal(call)
        assert refusals == dict.fromkeys(refusals, STRAY)

        # the stray ray's row m1 + m2 >= -a_3 still bounds the sections
        assert h0(fan, (0, 0, 0, 0)) == 1
        assert h0(fan, (0, 0, 1, 0)) == 3
        assert h0(fan, (1, 0, 0, 0)) == 2
        assert positivity(fan, (0, 0, 1, 0)) is Positivity.AMPLE
        assert is_projective(fan)


class TestIsProjective:
    @pytest.mark.parametrize("name", sorted(bundled_fans()))
    def test_bundled_fans(self, name):
        # Oda's smooth complete 3-fold is the one bundled fan with no ample
        # class (Fulton, Introduction to Toric Varieties, 3.4)
        assert is_projective(bundled_fans()[name]) == (name != "oda3")

    @pytest.mark.parametrize("name", sorted(WEIGHTED))
    def test_weighted_planes(self, name):
        assert is_projective(weighted_plane(name))

    def test_class_group_with_torsion(self):
        # P2 / (Z/3): complete and projective, Cl = Z + Z/3, not smooth
        fan, _ = validate_fan(P2_MOD_3["dim"], P2_MOD_3["rays"],
                              P2_MOD_3["cones"])
        with pytest.raises(FanError, match="^%s$" % NOT_SMOOTH):
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

    @pytest.mark.parametrize("name", [name for name, _ in non_smooth_fans()])
    def test_non_smooth_against_fraction_forms(self, name):
        # on a simplicial non-smooth fan an integer form g is s >= 1 times
        # its Fraction reference form, s = 3 on P2 / (Z/3); the sign of
        # g . a must give the reference's verdict
        fan = dict(non_smooth_fans())[name]
        forms = fraction_kleiman_forms(fan)
        verdicts = set()
        for d in product(range(-1, 2), repeat=fan.nrays):
            expected = reference_verdict(forms, d)
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


# every complete test fan: the labelled and the non-smooth ones, and two
# products with more walls
COMPLETE_FANS = [*labelled_fans(), *non_smooth_fans(),
                 ("F1xF2", product_fan(F1, F2)),
                 ("P1^4", product_fan(P1XP1, P1XP1))]


class TestKleimanForms:
    @pytest.mark.parametrize("fan, count", [
        (P1, 1), (P2, 1), (projective_space(3), 1), (projective_space(5), 1),
        (F1, 3), (F2, 3), (F3, 3), (P1XP1, 2),
        (bundled_fans()["oda3"], 10), (product_fan(P1XP1, P1XP1), 4),
        (product_fan(product_fan(P1XP1, P1XP1), P1XP1), 6),
        (product_fan(F1, F2), 6)])
    def test_one_form_per_wall(self, fan, count):
        # the distinct wall forms, where one per (maximal cone, outside
        # ray) gave nrays - n per cone: P^n n + 1, F_a 8, P1xP1 8, Oda3
        # 40, P1^4 64, P1^6 384 and F1xF2 64
        assert len(kleiman_forms(fan)) == count

    @pytest.mark.parametrize("label, fan", COMPLETE_FANS)
    def test_walls_decide_as_cone_ray_forms(self, label, fan, monkeypatch):
        # the ample and nef cones of the full criterion, one form per
        # maximal cone and outside ray: the same positivity verdict on
        # seeded random divisors near the principal ones, and the same
        # is_projective
        forms = fraction_cone_ray_forms(fan)
        rng = random.Random(31)
        for _ in range(200):
            m = [rng.randint(-2, 2) for _ in range(fan.dim)]
            d = [sum(a * b for a, b in zip(m, v)) + rng.randint(-1, 2)
                 for v in fan.rays]
            assert positivity(fan, d) is reference_verdict(forms, d), d
        projective = is_projective(fan)
        scaled = tuple(tuple(int(x * lcm(*(y.denominator for y in form)))
                             for x in form) for form in forms)
        monkeypatch.setattr(divisors, "kleiman_forms", lambda fan: scaled)
        assert is_projective(fan) == projective == (label != "oda3")


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
