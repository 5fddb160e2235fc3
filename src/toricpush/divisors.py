"""Torus-invariant divisors: the Picard lattice, section counts, nef/ample tests."""

from __future__ import annotations

import enum
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .errors import FanError, LatticeError
from .fans import Fan, _is_complete, _is_smooth
from .feasibility import feasible_point, lattice_point_counter
from .lattice import IntMatrix, as_ints, scaled_inverse, smith_normal_form


class PicLattice(NamedTuple):
    """Pic(X) of a smooth complete toric variety, torsion-free, in a
    canonical basis.  class_group builds it on no other fan.

    to_class_mat projects ray-coefficient space onto Z^rank; lift_mat is an
    integer right-inverse section.  Both come from the Smith normal form of
    the ray matrix, so the basis is deterministic.
    """

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
    """Pic(X) = Z^rays / (image of the character lattice), via SNF.
    Class-level work starts here, so this alone refuses a fan that is not
    complete, then one that is not smooth, the paper's hypothesis: then the
    rays span, and Pic(X) is torsion-free of rank nrays - dim >= 1."""
    if not _is_complete(fan):
        raise FanError("class group needs a complete fan; fan is not complete")
    if not _is_smooth(fan):
        raise FanError("class group needs a smooth fan; fan is not smooth")
    n, snf = fan.dim, smith_normal_form(IntMatrix.from_rows(fan.rays))
    uinv, _ = scaled_inverse(snf.U)  # U is unimodular, so X = U^{-1}
    to_class = IntMatrix.from_rows(snf.U.entries[n:])
    lift = IntMatrix.from_rows([row[n:] for row in uinv.entries])
    return PicLattice(fan=fan, rank=fan.nrays - n, to_class_mat=to_class,
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


@lru_cache(maxsize=None)
def kleiman_forms(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """Integer linear forms g on ray-coefficient space, one per (max cone,
    outside ray), on any complete simplicial fan.  Each g sends a divisor's
    coefficients to s (<m_sigma, v_rho> + a_rho), with s = |det| of the
    cone's rays: 1 on a smooth fan, where g is the form itself.  The divisor
    is nef iff all values are >= 0 and ample iff all are > 0, so the sign of
    g . a decides.
    """
    if not _is_complete(fan):
        raise FanError("positivity needs a complete fan")
    forms = []
    for cone in fan.max_cones:
        # m_sigma solves <m, v_rho> = -a_rho on the cone, so it is
        # -R^{-1} a_cone = -rinv a_cone / s for R the cone's rays (as rows)
        rinv, s = scaled_inverse(IntMatrix.from_rows(fan.cone_rays(cone)))
        pairings = rinv.transpose()
        for rho in range(fan.nrays):
            if rho in cone:
                continue
            form = [0] * fan.nrays
            for idx, x in zip(cone, pairings.mul_vector(fan.rays[rho])):
                form[idx] = -x
            form[rho] = s
            forms.append(tuple(form))
    return tuple(forms)


def is_projective(fan: Fan) -> bool:
    """Whether the fan has an ample divisor: False if it is not complete,
    else whether g . a >= 1 is feasible over the Kleiman forms g.

    The forms vanish on principal divisors, and the first maximal cone's
    rays are a basis of Q^n, so a positive multiple of any divisor differs
    by a principal divisor from one that is 0 on those rays: only the other
    nrays - n coefficients are variables.  No class_group is needed, so a
    fan that is not smooth answers too.
    """
    if not _is_complete(fan):
        return False
    free = [rho for rho in range(fan.nrays) if rho not in fan.max_cones[0]]
    rows = [([g[rho] for rho in free], 1) for g in kleiman_forms(fan)]
    return feasible_point(rows, len(free)) is not None


def positivity(fan: Fan, coeffs) -> Positivity:
    """Toric Kleiman criterion for nefness and ampleness."""
    coeffs = _coefficients(fan, coeffs)
    values = [sum(map(mul, g, coeffs)) for g in kleiman_forms(fan)]
    if all(v > 0 for v in values):
        return Positivity.AMPLE
    if all(v >= 0 for v in values):
        return Positivity.NEF_NOT_AMPLE
    return Positivity.NOT_NEF
