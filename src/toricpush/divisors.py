"""Torus-invariant divisors: the Picard lattice, section counts, nef/ample tests."""

from __future__ import annotations

import enum
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .errors import FanError, LatticeError
from .fans import Fan, _charts, _is_complete, _is_smooth, _wall_map
from .feasibility import feasible_point, lattice_point_counter
from .lattice import IntMatrix, as_ints, scaled_inverse


class PicLattice(NamedTuple):
    """Pic(X) of a smooth complete toric variety, torsion-free, in the
    gauge of the first maximal cone sigma0; class_group builds it on no
    other fan.  to_class_mat sends a divisor to the coefficients off sigma0
    of the one divisor in its class that vanishes on sigma0's rays;
    lift_mat, the unit vectors on the rays off sigma0, is its right inverse."""

    fan: Fan
    rank: int
    to_class_mat: IntMatrix
    lift_mat: IntMatrix

    def class_of(self, coeffs) -> tuple[int, ...]:
        return self.to_class_mat.mul_vector(coeffs)

    def lift(self, cls) -> tuple[int, ...]:
        return self.lift_mat.mul_vector(cls)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank


@lru_cache(maxsize=None)
def class_group(fan: Fan) -> PicLattice:
    """Pic(X) = Z^rays / (image of the character lattice), in sigma0's
    gauge.  Class-level work starts here, so this alone refuses a fan that
    is not complete, then one that is not smooth, the paper's hypothesis,
    then one with a ray in no maximal cone (no divisor of X): then sigma0's
    rays are a basis of N, so Pic(X) = Z^(rays off sigma0), of rank
    nrays - dim >= 1, and class_of is sigma0's Kleiman forms."""
    if not _is_complete(fan):
        raise FanError("class group needs a complete fan; fan is not complete")
    if not _is_smooth(fan):
        raise FanError("class group needs a smooth fan; fan is not smooth")
    if stray := set(range(fan.nrays)).difference(*fan.max_cones):
        raise FanError("class group needs every ray in a maximal cone; "
                       "ray %d is in none" % min(stray))
    free = [rho for rho in range(fan.nrays) if rho not in fan.max_cones[0]]
    to_class = IntMatrix.from_rows(_forms(fan, fan.max_cones[0], free))
    lift = IntMatrix.from_rows([[int(rho == j) for j in free]
                                for rho in range(fan.nrays)])
    return PicLattice(fan=fan, rank=len(free), to_class_mat=to_class,
                      lift_mat=lift)


def _coefficients(fan: Fan, coeffs) -> tuple[int, ...]:
    """A divisor's ray coefficients as ints, checked to be one per ray."""
    coeffs = as_ints(coeffs)
    if len(coeffs) != fan.nrays:
        raise FanError("divisor needs one coefficient per ray")
    return coeffs


def _class_coordinates(fan: Fan, cls) -> tuple[int, ...]:
    """A class's coordinates as ints, checked to be one per Picard rank."""
    cls, rank = as_ints(cls), class_group(fan).rank
    if len(cls) != rank:
        raise LatticeError("dimension mismatch: class has %d coordinates, "
                           "Picard rank is %d" % (len(cls), rank))
    return cls


@lru_cache(maxsize=None)
def _section_counter(fan: Fan):
    """count(a): the lattice points of the section polytope
    <m, v_rho> >= -a_rho, from one elimination of the homogenized polytope
    a_rho + <m, v_rho> >= 0 with the coefficients a as parameters."""
    k = fan.nrays
    rows = [((*(int(i == rho) for i in range(k)), *ray), 0)
            for rho, ray in enumerate(fan.rays)]
    return lattice_point_counter(rows, k + fan.dim, k)


@lru_cache(maxsize=None)
def _class_counter(fan: Fan):
    """count(c): h0 of the class c, from one elimination of the polytope
    lift_mat[rho] . c + <m, v_rho> >= 0 with c as parameters."""
    lift = class_group(fan).lift_mat.entries
    rows = [((*lift[rho], *ray), 0) for rho, ray in enumerate(fan.rays)]
    return lattice_point_counter(rows, len(lift[0]) + fan.dim, len(lift[0]))


def h0(fan: Fan, coeffs) -> int:
    """Number of global sections: lattice points of the section polytope,
    counted by the fan's section counter.  That counter's one elimination
    is cached per fan until the caches are cleared: once per CLI process,
    and once per benchmark pass, which clears every lru_cache.  It takes
    ray coefficients, so it answers on any simplicial fan."""
    count = _section_counter(fan)(_coefficients(fan, coeffs))
    if count is None:
        raise FanError("section polytope unbounded; fan is not complete")
    return count


def h0_class(fan: Fan, cls) -> int:
    """h0 of a divisor class, cached per (fan, class); a miss counts with
    the fan's class counter, lifting no divisor, and is finite because
    class_group demands a complete fan.  cls is checked (ints, one per
    Picard rank) before the cache is read, as a bool or float class would
    compare equal to an int one there.  verify_decomposition checks its
    classes once, then reads _h0_class on their sums with the twists."""
    return _h0_class(fan, _class_coordinates(fan, cls))


@lru_cache(maxsize=None)
def _h0_class(fan: Fan, cls: tuple[int, ...]) -> int:
    return _class_counter(fan)(cls)


# bench/run.py and tests clear the cache by these handles; tests read misses
h0_class.cache_info = _h0_class.cache_info
h0_class.cache_clear = _h0_class.cache_clear


class Positivity(enum.Enum):
    AMPLE = "ample"
    NEF_NOT_AMPLE = "nef-not-ample"
    NOT_NEF = "not-nef"


def _forms(fan: Fan, cone, rhos) -> list[tuple[int, ...]]:
    """For each ray rho off a full cone, the integer form a -> s (<m_sigma,
    v_rho> + a_rho), with (rinv, s) the cone's chart, s = |det| of its rays:
    m_sigma solves <m, v> = -a on the cone, so it is -rinv a_cone / s."""
    rinv, s = _charts(fan).get(cone) or scaled_inverse(  # no chart: raises
        IntMatrix.from_rows(fan.cone_rays(cone)))
    pairings = rinv.transpose()
    forms = []
    for rho in rhos:
        form = [0] * fan.nrays
        for idx, x in zip(cone, pairings.mul_vector(fan.rays[rho])):
            form[idx] = -x
        form[rho] = s
        forms.append(tuple(form))
    return forms


@lru_cache(maxsize=None)
def kleiman_forms(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """The distinct integer wall forms, on any complete simplicial fan: for
    each maximal cone and wall, the form of (cone, apex of the cone across
    the wall), a positive multiple of D . V(wall).  D is nef iff each is
    >= 0 and ample iff each is > 0, as a support function is convex iff it
    is across every wall (Cox-Little-Schenck 6.1, 6.3-6.4)."""
    if not _is_complete(fan):
        raise FanError("positivity needs a complete fan")
    across = {}
    for (c1, r1), (c2, r2) in _wall_map(fan).values():
        across[c1, r1], across[c2, r2] = r2, r1
    forms = [g for cone in fan.max_cones
             for g in _forms(fan, cone, [across[cone, rho] for rho in cone])]
    return tuple(dict.fromkeys(forms))


def _ample_rows(fan: Fan) -> list[tuple[list[int], int]]:
    """The rows g . a >= 1 over the Kleiman forms g on the rays off the
    first maximal cone sigma0: the forms vanish on principal divisors, and
    a multiple of any divisor is equivalent to one that is 0 on sigma0's
    rays, a basis of Q^n.  On a smooth fan these are class coordinates."""
    free = [rho for rho in range(fan.nrays) if rho not in fan.max_cones[0]]
    return [([g[rho] for rho in free], 1) for g in kleiman_forms(fan)]


def is_projective(fan: Fan) -> bool:
    """Whether the fan has an ample divisor (False if it is not complete);
    needs no class_group, so a fan that is not smooth answers too."""
    if not _is_complete(fan):
        return False
    return feasible_point(_ample_rows(fan), fan.nrays - fan.dim) is not None


def positivity(fan: Fan, coeffs) -> Positivity:
    """Toric Kleiman criterion for nefness and ampleness."""
    coeffs = _coefficients(fan, coeffs)
    values = [sum(map(mul, g, coeffs)) for g in kleiman_forms(fan)]
    if all(v > 0 for v in values):
        return Positivity.AMPLE
    if all(v >= 0 for v in values):
        return Positivity.NEF_NOT_AMPLE
    return Positivity.NOT_NEF
