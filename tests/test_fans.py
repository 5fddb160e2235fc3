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
                       class_group, cox_ring, decompose_pushforward, fans,
                       graded_dimension, h0, h0_class, hirzebruch,
                       iterate_coherence, module_shifts, multiplication_endo,
                       product_fan, projective_space, smith_normal_form,
                       validate_fan, verify_decomposition)
from toricpush.fans import _cones_intersect_properly, _is_complete
from toricpush.feasibility import feasible_point


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
        with pytest.raises(AssertionError, match="feasibility solve"):
            validate_fan(1, [(1,), (-1,)], [(0,), (1,)])

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
