import copy
import math
import pickle
import random
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from functools import cmp_to_key, reduce
from itertools import combinations, permutations

import pytest

from conftest import HALF_PLANE, QUADRANTS, WEIGHTED, bundled_fans
from toricpush import (Fan, FanError, FanReport, IntMatrix, LatticeError,
                       class_group, cox_ring, decompose_pushforward, divisors,
                       fans, graded_dimension, h0, h0_class, hirzebruch,
                       is_projective, iterate_coherence, module_shifts,
                       multiplication_endo, product_fan, projective_space,
                       smith_normal_form, validate_fan, verify_decomposition)
from toricpush.divisors import kleiman_forms
from toricpush.fans import _cones_intersect_properly, _is_complete
from toricpush.feasibility import feasible_point
from toricpush.lattice import scaled_inverse


def complete_rank2_oracle(rays, max_cones):
    """Brute-force completeness test at n=2: sort rays by angle exactly and
    demand that the maximal cones are exactly the consecutive pairs."""
    if any(len(c) != 2 for c in max_cones):
        return False

    def half(v):
        # 0 for upper half plane (incl. positive x-axis), 1 for lower
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(a, b):
        if half(a) != half(b):
            return half(a) - half(b)
        cross = a[0] * b[1] - a[1] * b[0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    order = sorted(range(len(rays)), key=cmp_to_key(
        lambda i, j: cmp(rays[i], rays[j])))
    expected = set()
    for k in range(len(order)):
        a, b = order[k], order[(k + 1) % len(order)]
        # consecutive rays must span a salient cone (angle < pi)
        va, vb = rays[a], rays[b]
        if va[0] * vb[1] - va[1] * vb[0] <= 0:
            return False
        expected.add(tuple(sorted((a, b))))
    return expected == {tuple(sorted(c)) for c in max_cones}


class TestValidateFan:
    def test_p2(self):
        fan, report = validate_fan(2, [(1, 0), (0, 1), (-1, -1)],
                                   [(0, 1), (1, 2), (2, 0)])
        assert report.smooth and report.complete

    def test_affine_plane_not_complete(self):
        _, report = validate_fan(2, [(1, 0), (0, 1)], [(0, 1)])
        assert report.smooth and not report.complete

    def test_non_primitive_ray(self):
        with pytest.raises(FanError, match="not primitive"):
            validate_fan(2, [(2, 0), (0, 1)], [(0, 1)])

    def test_dangling_wall(self):
        _, report = validate_fan(2, [(1, 0), (0, 1), (-1, -1)],
                                 [(0, 1), (1, 2)])
        assert not report.complete

    def test_overlapping_cones_rejected(self):
        # cone(e1, e1+2e2) overlaps cone(e1+e2, e2) without sharing a face
        with pytest.raises(FanError, match="overlap"):
            validate_fan(2, [(1, 0), (1, 2), (1, 1), (0, 1)],
                         [(0, 1), (2, 3)])

    def test_singular_cone_reported_not_smooth(self):
        _, report = validate_fan(2, [(1, 0), (1, 2)], [(0, 1)])
        assert not report.smooth

    @pytest.mark.parametrize("rays", [[(1, 0), (-1, 0)],
                                      [(1, 0, 0), (0, 1, 0), (1, 1, 0)]],
                             ids=["dim2", "dim3"])
    def test_dependent_rays_rejected(self, rays):
        with pytest.raises(FanError, match=r"^cone \(0, 1(, 2)?\) has "
                           r"linearly dependent rays$"):
            validate_fan(len(rays[0]), rays, [range(len(rays))])

    def test_duplicate_ray(self):
        with pytest.raises(FanError, match="duplicate"):
            validate_fan(2, [(1, 0), (1, 0)], [(0, 1)])

    def test_index_out_of_range(self):
        with pytest.raises(FanError, match="out of range"):
            validate_fan(2, [(1, 0), (0, 1)], [(0, 5)])

    def test_nested_cones_rejected(self):
        with pytest.raises(FanError, match="contained"):
            validate_fan(2, [(1, 0), (0, 1)], [(0, 1), (0,)])


def snf_cone_verdict(rays):
    """Reference smoothness by Smith normal form: None if the rays are
    dependent (a zero invariant factor), else whether every factor is 1."""
    factors = smith_normal_form(IntMatrix.from_rows(rays)).invariant_factors()
    return None if 0 in factors else all(d == 1 for d in factors)


def minors_cone_verdict(rays):
    """validate_fan's verdict on the one-cone fan of the rays, in the same
    terms."""
    try:
        return validate_fan(len(rays[0]), rays, [range(len(rays))])[1].smooth
    except FanError as exc:
        assert "linearly dependent" in str(exc)
        return None


def seeded_cones(rng, count):
    """count simplicial cones of k <= n <= 4 distinct primitive rays with
    entries in [-3, 3]; in every third one, k >= 2 and the last ray is in
    the span of the others."""
    def primitive(v):
        g = math.gcd(*v)
        return tuple(x // g for x in v) if g else None

    for made in range(count):
        dependent = made % 3 == 0
        while True:
            n = rng.randint(1 + dependent, 4)
            k = rng.randint(1 + dependent, n)
            rays = [primitive([rng.randint(-3, 3) for _ in range(n)])
                    for _ in range(k)]
            if dependent and None not in rays:
                weights = [rng.randint(-2, 2) for _ in rays[:-1]]
                rays[-1] = primitive([sum(w * r[i] for w, r in
                                          zip(weights, rays))
                                      for i in range(n)])
            if None not in rays and len(set(rays)) == k:
                yield rays
                break


def test_minors_criterion_matches_snf():
    cones = list(seeded_cones(random.Random(2357), 400))
    verdicts = [minors_cone_verdict(rays) for rays in cones]
    assert verdicts == [snf_cone_verdict(rays) for rays in cones]
    # every kind occurs, and so do lower-dimensional cones of each kind
    kinds = Counter((v, len(r) < len(r[0])) for v, r in zip(verdicts, cones))
    assert min(kinds[v, low] for v in (None, True, False)
               for low in (False, True)) >= 10, kinds


@pytest.mark.parametrize("spec, smooth, complete", [
    *(({"dim": 2, "rays": WEIGHTED[name], "cones": [[0, 1], [1, 2], [2, 0]]},
       False, True) for name in sorted(WEIGHTED)),
    ({"dim": 2, "rays": [[2, -1], [-1, 2], [-1, -1]],
      "cones": [[0, 1], [1, 2], [0, 2]]}, False, True),
    (HALF_PLANE, True, False),
    (QUADRANTS, True, False),
], ids=[*sorted(WEIGHTED), "P2/(Z/3)", "half-plane", "quadrants"])
def test_validate_verdicts(spec, smooth, complete):
    report = validate_fan(spec["dim"], spec["rays"], spec["cones"])[1]
    assert (report.smooth, report.complete) == (smooth, complete)


def _verify_in_box(box):
    endo = multiplication_endo(projective_space(2), 2)
    return verify_decomposition(endo, (0, 0, 0),
                                decompose_pushforward(endo, (0, 0, 0)), box)


def _shifts_in_box(box):
    return module_shifts(multiplication_endo(projective_space(2), 2),
                         (0, 0, 0), box)


# exact input only: a float, str, Fraction or bool is refused, never
# truncated or read as a number
@pytest.mark.parametrize("call, error", [
    (lambda: validate_fan(1, [(1.7,), (-1,)], [(0,), (1,)]), TypeError),
    (lambda: validate_fan(1, [(1,), (-1,)], [(0,), (1.5,)]), TypeError),
    (lambda: h0(projective_space(2), (1.9, 0, 0)), TypeError),
    (lambda: h0(projective_space(2), ("2", 0, 0)), TypeError),
    (lambda: h0(projective_space(2), (Fraction(3, 2), 0, 0)), TypeError),
    (lambda: graded_dimension(cox_ring(projective_space(2)), (2.9,)),
     TypeError),
    (lambda: IntMatrix.from_rows([[2.5, 0], [0, 2]]), LatticeError),
    # bool is an int subclass that operator.index reads as 0 or 1
    (lambda: validate_fan(1, [(True,), (-1,)], [(0,), (1,)]), TypeError),
    (lambda: validate_fan(1, [(1,), (-1,)], [(False,), (1,)]), TypeError),
    (lambda: h0(projective_space(2), (True, 0, 0)), TypeError),
    (lambda: graded_dimension(cox_ring(projective_space(2)), (True,)),
     TypeError),
    (lambda: IntMatrix.from_rows([[True, 0], [0, 2]]), LatticeError),
    (lambda: h0_class(projective_space(2), (2.9,)), TypeError),
    (lambda: h0_class(projective_space(2), (True,)), TypeError),
    # a float class equal to a cached int class is refused, not read from
    # the cache
    (lambda: (h0_class(projective_space(2), (2,)),
              h0_class(projective_space(2), (2.0,))), TypeError),
    # integer parameters: a bool dim, q or box would run as 0 or 1
    (lambda: validate_fan(True, [(1,), (-1,)], [(0,), (1,)]), TypeError),
    (lambda: validate_fan(1.0, [(1,), (-1,)], [(0,), (1,)]), TypeError),
    (lambda: projective_space(True), TypeError),
    (lambda: projective_space(2.0), TypeError),
    (lambda: hirzebruch(True), TypeError),
    (lambda: hirzebruch(2.0), TypeError),
    (lambda: multiplication_endo(projective_space(2), True), TypeError),
    (lambda: multiplication_endo(projective_space(2), 2.0), TypeError),
    (lambda: _verify_in_box(True), TypeError),
    (lambda: _verify_in_box(1.0), TypeError),
    (lambda: _shifts_in_box(True), TypeError),
    # True read as k = 1 used to raise ValueError, and 2.0 passed the
    # order check to fail only in range()
    (lambda: iterate_coherence(multiplication_endo(projective_space(1), 2),
                               (0, 0), k=True), TypeError),
    (lambda: iterate_coherence(multiplication_endo(projective_space(1), 2),
                               (0, 0), k=2.0), TypeError),
], ids=["ray", "cone-index", "h0-float", "h0-str", "h0-fraction",
        "graded-dimension", "from-rows", "ray-bool", "cone-index-bool",
        "h0-bool", "graded-dimension-bool", "from-rows-bool",
        "h0-class-float", "h0-class-bool", "h0-class-cached-float",
        "dim-bool", "dim-float", "projective-space-bool",
        "projective-space-float", "hirzebruch-bool", "hirzebruch-float",
        "mul-bool", "mul-float", "verify-box-bool", "verify-box-float",
        "module-shifts-box-bool", "k-bool", "k-float"])
def test_non_integer_input_refused(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("fan", [projective_space(2),
                                 product_fan(projective_space(1),
                                             projective_space(1))],
                         ids=["P2", "P1xP1"])
@pytest.mark.parametrize("length", ["short", "long", "empty"])
@pytest.mark.parametrize("count", ["h0_class", "graded_dimension"])
def test_wrong_length_class_refused(fan, length, count):
    # a class needs one coordinate per Picard rank; a counter taking the
    # class as parameters would otherwise read a prefix of it
    rank = class_group(fan).rank
    cls = {"short": (1,) * (rank - 1), "long": (1,) * (rank + 1),
           "empty": ()}[length]
    call = {"h0_class": lambda: h0_class(fan, cls),
            "graded_dimension": lambda: graded_dimension(cox_ring(fan),
                                                         cls)}[count]
    with pytest.raises(LatticeError, match="dimension mismatch"):
        call()


class TestStandardFans:
    """The builders construct their fans without validate_fan, so its
    verdict on their data is checked here: the same fan, with rays and
    cones in the builder's order, smooth and complete."""

    @staticmethod
    def assert_valid(fan):
        checked, report = validate_fan(fan.dim, fan.rays, fan.max_cones,
                                       name=fan.name)
        assert checked == fan  # dim, rays and cones, in the same order
        assert {type(x) for ray in fan.rays for x in ray} == {int}
        assert report == FanReport(smooth=True, complete=True)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_projective_space_validates(self, n):
        fan = projective_space(n)
        self.assert_valid(fan)
        assert fan.nrays == n + 1
        assert len(fan.max_cones) == n + 1

    def test_p1(self):
        fan = projective_space(1)
        assert set(fan.rays) == {(1,), (-1,)}
        assert len(fan.max_cones) == 2

    def test_product(self):
        p1, p2 = projective_space(1), projective_space(2)
        for parts in ([p1] * 2, [p1] * 3, [p1] * 4, [p2, p1],
                      [hirzebruch(1), p1], [hirzebruch(2), p2]):
            fan = reduce(product_fan, parts)
            self.assert_valid(fan)
            assert fan.name == "x".join(f.name for f in parts)
            assert fan.nrays == sum(f.nrays for f in parts)
            assert len(fan.max_cones) == math.prod(len(f.max_cones)
                                                   for f in parts)
        fan = product_fan(p1, p1)
        assert set(fan.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    @pytest.mark.parametrize("a", [0, 1, 2, 3, 4])
    def test_hirzebruch_validates(self, a):
        self.assert_valid(hirzebruch(a))

    def test_builders_solve_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a builder ran a feasibility solve")

        monkeypatch.setattr(fans, "feasible_point", refuse)
        projective_space(4), hirzebruch(3)
        reduce(product_fan, [projective_space(1)] * 4)
        # P1xP1's opposite quadrants share no wall, so they pose a system
        with pytest.raises(AssertionError, match="feasibility solve"):
            validate_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                         [(0, 1), (1, 2), (2, 3), (0, 3)])

    def test_bad_params(self):
        with pytest.raises(FanError):
            projective_space(0)
        with pytest.raises(FanError):
            hirzebruch(-1)


class TestFanHash:
    """A fan hashes its compared fields once, when it is made; the name is
    not one of them, so renamed fans share every lru_cache entry."""

    def test_names_share_cache_entries(self):
        p2 = projective_space(2)
        a, b = (validate_fan(2, p2.rays, p2.max_cones, name=name)[0]
                for name in ("a", "b"))
        assert a == b and hash(a) == hash(b) and a is not b
        assert class_group(a) is class_group(b)

    @pytest.mark.parametrize("copy_of", [
        lambda fan: replace(fan, name="renamed"), copy.deepcopy,
        lambda fan: pickle.loads(pickle.dumps(fan))])
    def test_copies_keep_equality_and_hash(self, copy_of):
        fan = hirzebruch(1)
        other = copy_of(fan)
        assert other == fan and hash(other) == hash(fan)
        assert hash(fan) == hash((fan.dim, fan.rays, fan.max_cones))

    def test_hash_is_no_field(self):
        fan = projective_space(1)
        assert [f.name for f in fields(Fan)] == ["dim", "rays", "max_cones",
                                                 "name"]
        assert repr(fan) == ("Fan(dim=1, rays=((1,), (-1,)), "
                             "max_cones=((1,), (0,)), name='P1')")

    def test_ray_order_gives_another_fan(self):
        # the same cones with the rays listed in another order
        p2 = projective_space(2)
        order = [2, 0, 1]
        moved = validate_fan(2, [p2.rays[i] for i in order],
                             [[order.index(i) for i in cone]
                              for cone in p2.max_cones])[0]
        assert moved != p2 and hash(moved) != hash(p2)
        assert class_group(moved) is not class_group(p2)


class TestInvariances:
    @pytest.mark.parametrize("builder", [
        lambda: projective_space(2),
        lambda: hirzebruch(2),
        lambda: product_fan(projective_space(1), projective_space(1)),
    ])
    def test_ray_reordering(self, builder):
        fan = builder()
        rng = random.Random(7)
        perm = list(range(fan.nrays))
        rng.shuffle(perm)
        inv = [perm.index(i) for i in range(fan.nrays)]
        rays = [fan.rays[perm[i]] for i in range(fan.nrays)]
        cones = [tuple(inv[i] for i in c) for c in fan.max_cones]
        _, report = validate_fan(fan.dim, rays, cones)
        assert report.smooth and report.complete

    @pytest.mark.parametrize("change", [
        [[1, 1], [0, 1]], [[0, -1], [1, 0]], [[2, 1], [1, 1]],
    ])
    def test_unimodular_lattice_change(self, change):
        g = IntMatrix.from_rows(change)
        assert abs(g.det()) == 1
        fan = hirzebruch(1)
        rays = [g.mul_vector(r) for r in fan.rays]
        _, report = validate_fan(fan.dim, rays, fan.max_cones)
        assert report.smooth and report.complete

    @pytest.mark.parametrize("builder,expect", [
        (lambda: projective_space(2), True),
        (lambda: hirzebruch(3), True),
        (lambda: product_fan(projective_space(1), projective_space(1)), True),
    ])
    def test_rank2_completeness_cross_oracle(self, builder, expect):
        fan = builder()
        _, report = validate_fan(fan.dim, fan.rays, fan.max_cones)
        assert report.complete == complete_rank2_oracle(fan.rays,
                                                        fan.max_cones) == expect

    def test_rank2_cross_oracle_incomplete(self):
        rays = [(1, 0), (0, 1), (-1, -1)]
        cones = [(0, 1), (1, 2)]
        _, report = validate_fan(2, rays, cones)
        assert not report.complete
        assert not complete_rank2_oracle(rays, cones)


def equality_rows(coeffs, rhs):
    """coeffs . x = rhs as the pair of rows coeffs . x >= rhs and
    -coeffs . x >= -rhs."""
    return [(coeffs, rhs), ([-c for c in coeffs], -rhs)]


def per_ray_overlap_check(fan, c1, c2):
    """The overlap check as one feasibility problem per non-shared ray: the
    intersection is proper iff no point of it has that ray's coefficient
    >= 1."""
    common = set(c1) & set(c2)
    r1, r2 = fan.cone_rays(c1), fan.cone_rays(c2)
    k1, nvars = len(r1), len(r1) + len(r2)
    base = []
    for coord in range(fan.dim):
        base.extend(equality_rows(
            [r[coord] for r in r1] + [-r[coord] for r in r2], 0))
    for j in range(nvars):
        base.append(([int(i == j) for i in range(nvars)], 0))
    strict = ([i for i, idx in enumerate(c1) if idx not in common]
              + [k1 + j for j, idx in enumerate(c2) if idx not in common])
    return all(
        feasible_point(base + [([int(i == pos) for i in range(nvars)], 1)],
                       nvars) is None
        for pos in strict)


def relabelled_subfans(rng, fan, count):
    """count validated fans, each the fan's rays in a random order with a
    random nonempty set of its maximal cones (all of them half the time)."""
    for _ in range(count):
        perm = list(range(fan.nrays))
        rng.shuffle(perm)
        cones = [tuple(perm[i] for i in c) for c in fan.max_cones]
        if rng.random() < 0.5:
            cones = rng.sample(cones, rng.randint(1, len(cones)))
        rays = [None] * fan.nrays
        for i, j in enumerate(perm):
            rays[j] = fan.rays[i]
        yield validate_fan(fan.dim, rays, cones)[0]


def random_plane_fans(rng, count):
    """count validated 2D fans: random primitive rays in angular order, the
    salient consecutive pairs as cones, some of them dropped a third of the
    time."""
    made = 0
    while made < count:
        rays = list({(x // math.gcd(x, y), y // math.gcd(x, y))
                     for x, y in ((rng.randint(-3, 3), rng.randint(-3, 3))
                                  for _ in range(rng.randint(3, 7)))
                     if (x, y) != (0, 0)})
        rays.sort(key=lambda v: math.atan2(v[1], v[0]))
        cones = [(i, (i + 1) % len(rays)) for i in range(len(rays))
                 if rays[i][0] * rays[(i + 1) % len(rays)][1]
                 - rays[i][1] * rays[(i + 1) % len(rays)][0] > 0]
        if rng.random() < 1 / 3 and len(cones) > 1:
            cones = rng.sample(cones, rng.randint(1, len(cones) - 1))
        if len(rays) < 3 or not cones:
            continue
        made += 1
        yield validate_fan(2, rays, cones)[0]


def built_fans():
    p1 = projective_space(1)
    return [projective_space(3), product_fan(projective_space(2), p1),
            product_fan(hirzebruch(1), p1)]


# valid fans that are not complete; in "mixed3" the 2-dimensional cones
# share rays with the 3-dimensional one and with each other
NONCOMPLETE = {
    "half-plane": HALF_PLANE,
    "quadrants": QUADRANTS,
    "dangling": {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                 "cones": [[0, 1], [1, 2]]},
    "mixed3": {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                  [-1, 0, 0], [0, -1, -1]],
               "cones": [[0, 1, 2], [1, 3], [3, 4], [0, 4]]},
}


def noncomplete_fans():
    for name, spec in NONCOMPLETE.items():
        fan, report = validate_fan(spec["dim"], spec["rays"], spec["cones"],
                                   name=name)
        assert not report.complete
        yield fan


def overlap_test_fans():
    """The built fans above, every bundled fan file, two seeded
    relabellings of each bundled fan (half of them subfans, so not
    complete), the non-complete fans and seeded plane fans."""
    rng = random.Random(1729)
    bundled = list(bundled_fans().values())
    relabelled = [replace(sub, name="%s/relabel%d" % (fan.name, i))
                  for fan in bundled
                  for i, sub in enumerate(relabelled_subfans(rng, fan, 2))]
    planes = [replace(fan, name="plane%d" % i)
              for i, fan in enumerate(random_plane_fans(rng, 6))]
    return (built_fans() + bundled + relabelled + list(noncomplete_fans())
            + planes)


def planted_overlap(fan):
    """The fan plus a cone inside its first maximal cone: the first ray of
    that cone is swapped for the sum of all its rays."""
    cone = fan.max_cones[0]
    inner = tuple(map(sum, zip(*fan.cone_rays(cone))))
    return Fan(dim=fan.dim, rays=fan.rays + (inner,),
               max_cones=fan.max_cones + (cone[1:] + (fan.nrays,),),
               name=fan.name + "+overlap")


class TestOverlapCheck:
    @pytest.mark.parametrize("fan", overlap_test_fans(), ids=lambda f: f.name)
    def test_single_system_matches_per_ray_loop(self, fan):
        # both orders of each pair: a shared ray's unknown must take either
        # sign (the planted cone's new ray lies inside the cone it overlaps)
        for c1, c2 in permutations(fan.max_cones, 2):
            assert _cones_intersect_properly(fan, c1, c2)
            assert per_ray_overlap_check(fan, c1, c2)
        planted = planted_overlap(fan)
        verdicts = [(_cones_intersect_properly(planted, c1, c2),
                     per_ray_overlap_check(planted, c1, c2))
                    for c1, c2 in permutations(planted.max_cones, 2)]
        assert all(new == old for new, old in verdicts)
        assert (False, False) in verdicts

    @pytest.mark.parametrize("fan", built_fans(), ids=lambda f: f.name)
    def test_planted_overlap_rejected(self, fan):
        planted = planted_overlap(fan)
        with pytest.raises(FanError, match="overlap"):
            validate_fan(planted.dim, planted.rays, planted.max_cones)


def connected_complete(fan):
    """Reference completeness that also walks the walls: pure
    n-dimensional, every wall in exactly two maximal cones, and every cone
    reached from the first across walls."""
    if any(len(c) != fan.dim for c in fan.max_cones):
        return False
    incidence = {}
    for ci, cone in enumerate(fan.max_cones):
        for wall in combinations(cone, fan.dim - 1):
            incidence.setdefault(wall, []).append(ci)
    if any(len(cones) != 2 for cones in incidence.values()):
        return False
    seen, stack = {0}, [0]
    while stack:
        ci = stack.pop()
        for pair in incidence.values():
            if ci in pair:
                other = pair[1] if pair[0] == ci else pair[0]
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
    return len(seen) == len(fan.max_cones)


def test_completeness_needs_no_connectivity_walk():
    # on cones that meet properly, pure with every wall in two cones is
    # already wall-connected: the deleted walk could never say False
    rng = random.Random(4242)
    fans = [sub for fan in [*bundled_fans().values(), *built_fans()]
            for sub in relabelled_subfans(rng, fan, 12)]
    fans += random_plane_fans(rng, 150)
    verdicts = [_is_complete(fan) for fan in fans]
    assert verdicts == [connected_complete(fan) for fan in fans]
    assert 50 < sum(verdicts) < len(fans) - 50


# ------------------------------------------------ charts and wall signs

def all_pairs_overlap_check(fan, c1, c2):
    """The overlap check as one feasibility system for every pair of cones,
    walls included: the check validate_fan made before it read wall signs."""
    only2 = [i for i in c2 if i not in c1]
    cols = fan.cone_rays(c1) + [tuple(-x for x in fan.rays[i]) for i in only2]
    outside = [int(i not in c2) for i in c1] + [1] * len(only2)
    nvars = len(cols)
    cons = [row for coords in zip(*cols)
            for row in equality_rows(list(coords), 0)]
    cons += [([int(i == j) for i in range(nvars)], 0)
             for j in range(nvars) if outside[j]]
    return feasible_point(cons + [(outside, 1)], nvars) is None


def all_pairs_verdict(dim, rays, cones):
    """validate_fan's verdict on raw data as it was made before charts: the
    report, or the FanError text.  Each cone's index is the gcd of its
    minors, and every pair of cones is decided by all_pairs_overlap_check,
    in the same order."""
    try:
        rays, cones = fans._check_structure(dim, rays, cones)
    except FanError as exc:
        return str(exc)
    fan = Fan(dim=dim, rays=rays, max_cones=cones)
    index = [math.gcd(*(IntMatrix.from_rows(m).det() for m in
                        combinations(zip(*fan.cone_rays(c)), len(c))))
             for c in cones]
    if 0 in index:
        return "cone %s has linearly dependent rays" % (cones[index.index(0)],)
    for c1, c2 in combinations(cones, 2):
        if not all_pairs_overlap_check(fan, c1, c2):
            return "cones %s and %s overlap improperly" % (c1, c2)
    return FanReport(smooth=set(index) == {1}, complete=_is_complete(fan))


def verdict(dim, rays, cones):
    """validate_fan's report on raw data, or its FanError text."""
    try:
        return validate_fan(dim, rays, cones)[1]
    except FanError as exc:
        return str(exc)


def perturbed(fan, count):
    """count (dim, rays, cones) data, seeded by the fan's name: the fan's
    cones, with 1 to 3 of its rays moved to random primitive vectors in
    [-3, 3]^n that are not rays already.  Each passes _is_complete's
    combinatorial test, and many have cones that overlap."""
    rng = random.Random("perturb " + fan.name)
    for _ in range(count):
        rays = list(fan.rays)
        for i in rng.sample(range(fan.nrays), rng.randint(1, 3)):
            while True:
                v = [rng.randint(-3, 3) for _ in range(fan.dim)]
                g = math.gcd(*v)
                if g and tuple(x // g for x in v) not in rays:
                    rays[i] = tuple(x // g for x in v)
                    break
        yield fan.dim, rays, fan.max_cones


def wound(rays):
    """The plane fan whose k rays, ray j near the angle 4 pi j / k (k odd),
    are joined in index order: every cone is salient and every wall is in
    two cones, but the cones wind twice around the origin."""
    k = len(rays)
    return 2, rays, [tuple(sorted((j, (j + 1) % k))) for j in range(k)]


def suspension(plane):
    """The 3D fan of the plane fan's cones, each joined to e3 and to -e3."""
    _, rays, cones = plane
    top, bottom = len(rays), len(rays) + 1
    return (3, [(x, y, 0) for x, y in rays] + [(0, 0, 1), (0, 0, -1)],
            [c + (apex,) for c in cones for apex in (top, bottom)])


WOUND = {
    "wound5": wound([(1, 0), (-3, 2), (2, -7), (2, 7), (-3, -2)]),
    "wound9": wound([(1, 0), (1, 7), (-7, 2), (-2, -3), (5, -4), (5, 4),
                     (-1, 2), (-7, -2), (1, -7)]),
    "wound11": wound([(1, 0), (1, 2), (-1, 1), (-7, -2), (-1, -7), (3, -2),
                      (3, 2), (-1, 7), (-7, 2), (-1, -1), (1, -2)]),
}
WOUND["suspended wound5"] = suspension(WOUND["wound5"])


def shape_fans():
    """The smooth complete 4-folds that the fan-validate benchmark
    relabels."""
    p1, p2 = projective_space(1), projective_space(2)
    return [projective_space(4), product_fan(projective_space(3), p1),
            product_fan(p2, p2), product_fan(hirzebruch(2), p1),
            reduce(product_fan, [p1] * 4),
            product_fan(hirzebruch(1), hirzebruch(2))]


# (fan, perturbations): 60 of each bundled fan of dimension 2 or 3, and 15
# of each 4-fold, whose overlap systems are the largest
PERTURBED = ([(fan, 60) for fan in bundled_fans().values() if fan.dim > 1]
             + [(fan, 15) for fan in shape_fans()])


def perturbed_data():
    """(dim, rays, cones) for every perturbation of PERTURBED."""
    for fan, count in PERTURBED:
        yield from perturbed(fan, count)


def charted_wall_pairs(fan):
    """Both orders of every pair of charted cones that share a wall."""
    charts = fans._charts(fan)
    return [(c1, c2) for c1, c2 in permutations(charts, 2)
            if len(set(c1) - set(c2)) == 1]


class TestWallSign:
    @pytest.mark.parametrize("fan, count", PERTURBED,
                             ids=[fan.name for fan, _ in PERTURBED])
    def test_perturbed_fans_keep_their_verdicts(self, fan, count):
        # the same report, or the same FanError text, as the all-pairs
        # check gives; the kinds met are pinned below
        for data in perturbed(fan, count):
            assert verdict(*data) == all_pairs_verdict(*data), data

    def test_perturbations_meet_every_kind(self):
        # every perturbation passes the combinatorial completeness test:
        # complete fans, overlapping cones and dependent rays all occur
        kinds = Counter()
        for dim, rays, cones in perturbed_data():
            assert _is_complete(Fan(dim=dim, rays=tuple(rays),
                                    max_cones=cones))
            got = verdict(dim, rays, cones)
            kinds[got if isinstance(got, FanReport) else got.split()[-1]] += 1
        assert len(kinds) == 4 and min(kinds.values()) >= 10, kinds
        assert {FanReport(smooth=True, complete=True), "improperly",
                "rays"} < kinds.keys()

    @pytest.mark.parametrize("name", sorted(WOUND))
    def test_wound_fans_refused_as_before(self, name):
        dim, rays, cones = WOUND[name]
        fan = Fan(dim=dim, rays=tuple(rays), max_cones=tuple(cones))
        assert _is_complete(fan)
        got = verdict(dim, rays, cones)
        assert got == all_pairs_verdict(dim, rays, cones)
        assert got.endswith("overlap improperly")
        if name == "wound5":
            assert got == "cones (0, 1) and (2, 3) overlap improperly"

    def test_sign_matches_the_system(self):
        # on every wall pair of the test fans, their planted overlaps, the
        # wound fans and the perturbed fans: the sign that decides it is
        # the verdict of its feasibility system, solved directly
        made = [Fan(dim=dim, rays=tuple(rays), max_cones=tuple(cones))
                for dim, rays, cones in [*WOUND.values(),
                                         *perturbed_data()]]
        test_fans = overlap_test_fans()
        verdicts = Counter()
        for fan in [*test_fans, *map(planted_overlap, test_fans), *made]:
            for c1, c2 in charted_wall_pairs(fan):
                sign = _cones_intersect_properly(fan, c1, c2)
                assert sign == all_pairs_overlap_check(fan, c1, c2), (fan,
                                                                      c1, c2)
                verdicts[sign] += 1
        assert min(verdicts.values()) >= 100, verdicts


class TestCharts:
    @pytest.mark.parametrize("fan", [*overlap_test_fans(), *shape_fans()],
                             ids=lambda f: f.name)
    def test_chart_is_the_scaled_inverse(self, fan):
        # X M = s I with s = |det M|, for exactly the full cones with
        # independent rays
        charts = fans._charts(fan)
        assert list(charts) == [c for c in fan.max_cones
                                if len(c) == fan.dim]
        for cone, (x, s) in charts.items():
            m = IntMatrix.from_rows(fan.cone_rays(cone))
            assert x @ m == IntMatrix.identity(fan.dim).scale(s)
            assert s == abs(m.det()) > 0

    def test_weighted_and_dependent_cones(self):
        # s is the index of a cone that is not smooth; a cone with
        # dependent rays has no chart, and reading its forms raises
        for name, rays in sorted(WEIGHTED.items()):
            fan = Fan(dim=2, rays=tuple(map(tuple, rays)),
                      max_cones=((0, 1), (1, 2), (0, 2)))
            assert sorted(s for _, s in fans._charts(fan).values()) == (
                [1, 1, 2] if name == "P(1,1,2)" else [1, 2, 3])
        flat = Fan(dim=2, rays=((1, 0), (-1, 0), (0, 1)),
                   max_cones=((0, 1), (0, 2), (1, 2)))
        assert list(fans._charts(flat)) == [(0, 2), (1, 2)]
        with pytest.raises(LatticeError, match="^matrix is singular$"):
            kleiman_forms(flat)

    @pytest.mark.parametrize("fan", shape_fans(), ids=lambda f: f.name)
    def test_one_inverse_per_cone(self, fan, monkeypatch):
        # validate_fan, class_group, the Kleiman forms and is_projective
        # share one scaled_inverse per maximal cone
        inverses = []

        def counting(matrix):
            inverses.append(matrix)
            return scaled_inverse(matrix)

        monkeypatch.setattr(fans, "scaled_inverse", counting)
        monkeypatch.setattr(divisors, "scaled_inverse", counting)
        for cached in (fans._charts, class_group, kleiman_forms):
            cached.cache_clear()
        checked = validate_fan(fan.dim, fan.rays, fan.max_cones)[0]
        class_group(checked), kleiman_forms(checked), is_projective(checked)
        assert len(inverses) == len(fan.max_cones)


@pytest.mark.parametrize("fan, systems", [
    *((fan, n) for fan, n in zip(shape_fans(), (0, 12, 18, 16, 88, 88))),
    (product_fan(projective_space(1), projective_space(1)), 2),
    *((projective_space(n), 0) for n in (1, 2, 3, 5, 6))],
    ids=lambda x: x.name if isinstance(x, Fan) else str(x))
def test_systems_solved(fan, systems, monkeypatch):
    # the pairs of cones that share no wall: one feasibility system each
    solved = []

    def counting(cons, nvars):
        solved.append(nvars)
        return feasible_point(cons, nvars)

    monkeypatch.setattr(fans, "feasible_point", counting)
    validate_fan(fan.dim, fan.rays, fan.max_cones)
    assert len(solved) == systems
