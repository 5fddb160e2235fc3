import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from toricpush import (Decomposition, EndoError, IntMatrix, build_endo,
                       class_group, compose, hirzebruch, multiplication_endo,
                       product_fan, projective_space, smith_normal_form,
                       validate_fan)
from toricpush.io import parse_fan
from toricpush.lattice import scaled_inverse

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fans"


def corpus_fans():
    p1 = projective_space(1)
    return {
        "P1": p1,
        "P2": projective_space(2),
        "P3": projective_space(3),
        "P1xP1": product_fan(p1, p1, name="P1xP1"),
        "F1": hirzebruch(1),
        "F2": hirzebruch(2),
        "F3": hirzebruch(3),
    }


def bundled_fans():
    """The fan files shipped in fans/, validated, by file stem."""
    fans = {}
    for path in sorted(FIXTURE_DIR.glob("*.fan.json")):
        doc = parse_fan(path.read_text())
        fans[path.name.split(".")[0]] = validate_fan(
            doc.dim, doc.rays, doc.cones, name=path.name)[0]
    return fans


def decomposition(summands):
    """The Decomposition that lists the given summand classes, counted."""
    return Decomposition(tuple(sorted(Counter(summands).items())))


def swap_endo(p1xp1):
    return build_endo(p1xp1, IntMatrix.from_rows([[0, 1], [2, 0]]))


def corpus_pairs():
    """(label, fan, endo) for every corpus fan with mul:2 and mul:3, plus swap."""
    fans = corpus_fans()
    pairs = []
    for name, fan in fans.items():
        for q in (2, 3):
            pairs.append(("%s/mul:%d" % (name, q), fan,
                          multiplication_endo(fan, q)))
    pairs.append(("P1xP1/swap", fans["P1xP1"], swap_endo(fans["P1xP1"])))
    return pairs


# fan -> entry bound of the exhaustive endomorphism set; every Picard rank
# from 1 to 3 occurs
_P1, _P2, _F1 = projective_space(1), projective_space(2), hirzebruch(1)
ORACLE_FANS = {
    "P1xP1": (product_fan(_P1, _P1), 3),
    "F1": (_F1, 3),
    "F2": (hirzebruch(2), 3),
    "P2": (_P2, 3),
    "P1^3": (product_fan(product_fan(_P1, _P1), _P1), 1),
    "P2xP1": (product_fan(_P2, _P1), 1),
    "F1xP1": (product_fan(_F1, _P1), 1),
}

# the upper half-plane fan: smooth, not complete, Picard rank 1
HALF_PLANE = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 0]],
              "cones": [[0, 1], [1, 2]]}

# two opposite quadrants: smooth, every cone full-dimensional, not complete
QUADRANTS = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
             "cones": [[0, 1], [2, 3]]}


def half_plane_fan():
    fan, report = validate_fan(HALF_PLANE["dim"], HALF_PLANE["rays"],
                               HALF_PLANE["cones"])
    assert report.smooth and not report.complete
    return fan


# simplicial, complete, not smooth: the weighted projective planes P(1,1,2)
# (cone indices 1, 1, 2) and P(1,2,3) (1, 2, 3), where some Kleiman form is
# s > 1 times <m_sigma, v_rho> + a_rho
WEIGHTED = {"P(1,1,2)": [[1, 0], [0, 1], [-1, -2]],
            "P(1,2,3)": [[1, 0], [0, 1], [-2, -3]]}

# P2 / (Z/3): simplicial, complete, not smooth, with Cl = Z + Z/3
P2_MOD_3 = {"dim": 2, "rays": [[2, -1], [-1, 2], [-1, -1]],
            "cones": [[0, 1], [1, 2], [0, 2]]}

# P2's cones with a fourth ray (1, 1) in none of them: a valid, smooth and
# complete fan whose variety is P2, but the ray is no divisor of it
P2_STRAY = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1], [1, 1]],
            "cones": [[0, 1], [1, 2], [0, 2]]}


def weighted_plane(name):
    fan, report = validate_fan(2, WEIGHTED[name], [[0, 1], [1, 2], [2, 0]])
    assert report.complete and not report.smooth
    return fan


def labelled_fans():
    """(label, fan) for every bundled and ORACLE_FANS fan: each is smooth and
    complete, so class-level work answers on each."""
    yield from bundled_fans().items()
    yield from ((name, fan) for name, (fan, _) in sorted(ORACLE_FANS.items()))


def class_level_cases():
    """(label, fan) for labelled_fans(), then the weighted planes: a
    class-level test answers on the first and expects the refusal on the
    second, where a divisor-level counterpart still answers."""
    yield from labelled_fans()
    yield from ((name, weighted_plane(name)) for name in sorted(WEIGHTED))


def non_smooth_fans():
    """(label, fan) for the complete fans that are not smooth: the weighted
    planes and P2 / (Z/3).  class_group refuses each."""
    yield from ((name, weighted_plane(name)) for name in sorted(WEIGHTED))
    fan, report = validate_fan(P2_MOD_3["dim"], P2_MOD_3["rays"],
                               P2_MOD_3["cones"])
    assert report.complete and not report.smooth
    yield "P2/(Z/3)", fan


def fraction_inverse(rows):
    """Reference inverse of a square integer matrix by Gauss-Jordan over
    Fraction."""
    n = len(rows)
    a = [[Fraction(e) for e in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def fraction_form(fan, cone, rho):
    """Reference form a -> <m_sigma, v_rho> + a_rho of a maximal cone and a
    ray off it, as a Fraction tuple, with m_sigma = -R^{-1} a_cone."""
    rinv = fraction_inverse(fan.cone_rays(cone))
    form = [Fraction(0)] * fan.nrays
    v = fan.rays[rho]
    for pos, idx in enumerate(cone):
        form[idx] -= sum(v[i] * rinv[i][pos] for i in range(fan.dim))
    form[rho] += 1
    return tuple(form)


def fraction_cone_ray_forms(fan):
    """The Kleiman forms of the full criterion, one per maximal cone and
    outside ray, as Fraction tuples."""
    return [fraction_form(fan, cone, rho) for cone in fan.max_cones
            for rho in range(fan.nrays) if rho not in cone]


def fraction_kleiman_forms(fan):
    """Reference wall forms as Fraction tuples, in kleiman_forms order: for
    each maximal cone and each of its rays rho, the form of the cone and
    the apex of the other maximal cone through the wall cone - rho, kept
    the first time its ray through the origin is met."""
    forms = {}
    for cone in fan.max_cones:
        for rho in cone:
            wall = set(cone) - {rho}
            (other,) = [c for c in fan.max_cones
                        if c != cone and wall <= set(c)]
            (apex,) = set(other) - wall
            form = fraction_form(fan, cone, apex)
            scale = max(map(abs, form))
            forms.setdefault(tuple(x / scale for x in form), form)
    return list(forms.values())


def accepted_endos(fan, bound):
    """Every matrix with entries in [-bound, bound] that build_endo accepts."""
    n = fan.dim
    out = []
    for entries in product(range(-bound, bound + 1), repeat=n * n):
        matrix = IntMatrix.from_rows([entries[i:i + n]
                                      for i in range(0, n * n, n)])
        try:
            out.append(build_endo(fan, matrix))
        except EndoError:
            pass
    return out


@lru_cache(maxsize=None)
def oracle_endos(name):
    """The exhaustive endomorphism set on ORACLE_FANS[name], built once.

    Entries in [-1, 1] on a 3-dimensional fan force every multiplicity to
    1, so there each accepted matrix is also taken after 2 * identity and
    after doubling the first two coordinates.
    """
    fan, bound = ORACLE_FANS[name]
    endos = accepted_endos(fan, bound)
    if fan.dim == 3:
        doubled = [multiplication_endo(fan, 2),
                   build_endo(fan, IntMatrix.from_rows(
                       [[2, 0, 0], [0, 2, 0], [0, 0, 1]]))]
        endos += [compose(e, d) for e in endos for d in doubled]
    return tuple(endos)


def box_cosets(F):
    """Reference for Z^n / F(Z^n): U^{-1} w for w in the SNF box, one matrix
    product per coset, in itertools.product order."""
    snf = smith_normal_form(F)
    uinv, _ = scaled_inverse(snf.U)
    return [uinv.mul_vector(w)
            for w in product(*[range(d) for d in snf.invariant_factors()])]


def axis_expansion(F):
    """Reference expansion of coset_representatives: the same steps (the
    columns of U^{-1}), every axis walked one vector addition at a time in
    mixed-radix order, last axis fastest."""
    snf = smith_normal_form(F)
    vecs = [(0,) * F.ncols]
    for step, d in zip(zip(*scaled_inverse(snf.U)[0].entries),
                       snf.invariant_factors()):
        out = []
        for vec in vecs:
            for _ in range(d):
                out.append(vec)
                vec = tuple(a + b for a, b in zip(vec, step))
        vecs = out
    return vecs


def floor_witnesses(endo, coeffs):
    """The floor formula coset by coset, at divisor level: the box cosets,
    then one n-term sum per ray, as (witness, coset) pairs; it needs no
    class group, so it runs on any simplicial fan."""
    fan = endo.fan
    for u in box_cosets(endo.matrix.transpose()):
        witness = tuple(
            (coeffs[rho] + sum(a * b for a, b in zip(u, fan.rays[rho])))
            // endo.mults[rho] for rho in endo.pi_inverse)
        yield witness, u


def reference_decompose(endo, coeffs):
    """floor_witnesses with one class_of product per coset, as (class,
    witness, coset) rows sorted by class, then witness, then coset."""
    pic = class_group(endo.fan)
    return sorted((pic.class_of(witness), witness, u)
                  for witness, u in floor_witnesses(endo, coeffs))


def sample_divisors(fan, bound=2, limit=200, seed=0):
    """Divisors with ray coefficients in [-bound, bound]; exhaustive when the
    box is small, otherwise a deterministic sample of `limit`."""
    full = list(product(range(-bound, bound + 1), repeat=fan.nrays))
    if len(full) <= limit:
        return full
    rng = random.Random(seed)
    return rng.sample(full, limit)


@pytest.fixture(scope="session")
def fans():
    return corpus_fans()


@pytest.fixture(scope="session")
def pairs():
    return corpus_pairs()
