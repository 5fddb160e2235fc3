"""Finite toric endomorphisms: fan-compatible lattice self-maps (build_endo
checks a matrix from outside; mul:q and compositions are built from their
ray data), the pullback on Picard lattices, and the int-amplified decision,
made on is_projective's ample rows, read as class coordinates."""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .divisors import PicLattice, _ample_rows, _coefficients
from .errors import EndoError
from .fans import Fan
from .feasibility import feasible_point
from .lattice import IntMatrix, as_ints


class ToricEndomorphism(NamedTuple):
    """Lattice self-map F with F v_rho = c_rho * v_{pi(rho)} for every ray."""

    fan: Fan
    matrix: IntMatrix
    pi: tuple[int, ...]
    mults: tuple[int, ...]

    @property
    def pi_inverse(self) -> tuple[int, ...]:
        inv = [0] * len(self.pi)
        for i, j in enumerate(self.pi):
            inv[j] = i
        return tuple(inv)


def build_endo(fan: Fan, matrix: IntMatrix) -> ToricEndomorphism:
    """Derive ray permutation and multiplicities from F; reject incompatible maps."""
    if matrix.nrows != fan.dim or matrix.ncols != fan.dim:
        raise EndoError("endomorphism matrix is %dx%d but fan has dim %d"
                        % (matrix.nrows, matrix.ncols, fan.dim))
    if matrix.det() == 0:
        raise EndoError("not finite: matrix is singular")
    index = {w: j for j, w in enumerate(fan.rays)}
    pi = []
    mults = []
    for v in fan.rays:
        # rays are primitive, so F v = c * w forces c = gcd(F v) (> 0: F is
        # nonsingular) and w = F v / c
        image = matrix.mul_vector(v)
        c = gcd(*image)
        j = index.get(tuple(x // c for x in image))
        if j is None:
            raise EndoError("not ray-compatible: F maps ray %s off the fan's rays"
                            % (v,))
        pi.append(j)
        mults.append(c)
    # pi is a permutation: F v = c w, F v' = c' w give c' v = c v', so v = v'
    cone_sets = {frozenset(c) for c in fan.max_cones}
    for cone in fan.max_cones:
        if frozenset(pi[i] for i in cone) not in cone_sets:
            raise EndoError("not cone-compatible: image of cone %s is not a cone"
                            % (cone,))
    return ToricEndomorphism(fan=fan, matrix=matrix, pi=tuple(pi),
                             mults=tuple(mults))


def multiplication_endo(fan: Fan, q: int) -> ToricEndomorphism:
    """The multiplication-by-q map (q >= 1)."""
    (q,) = as_ints((q,))
    if q < 1:
        raise EndoError("multiplication factor must be positive")
    return ToricEndomorphism(fan, IntMatrix.identity(fan.dim).scale(q),
                             tuple(range(fan.nrays)), (q,) * fan.nrays)


def degree(endo: ToricEndomorphism) -> int:
    return abs(endo.matrix.det())


def compose(e1: ToricEndomorphism, e2: ToricEndomorphism) -> ToricEndomorphism:
    """The endomorphism e1 after e2 (lattice matrix F1 @ F2)."""
    if e1.fan != e2.fan:
        raise EndoError("cannot compose endomorphisms of different fans")
    # F1 F2 v = c2 F1 v_{pi2} = c2 c1_{pi2} v_{pi1(pi2)}: built, not derived
    return ToricEndomorphism(
        e1.fan, e1.matrix @ e2.matrix, tuple(e1.pi[j] for j in e2.pi),
        tuple(c * e1.mults[j] for c, j in zip(e2.mults, e2.pi)))


def pullback_divisor(endo: ToricEndomorphism, coeffs) -> tuple[int, ...]:
    """Divisor-level pullback: f* sends D_{rho'} to c_rho D_rho, rho = pi^{-1}(rho')."""
    coeffs = _coefficients(endo.fan, coeffs)
    return tuple(endo.mults[rho] * coeffs[endo.pi[rho]]
                 for rho in range(endo.fan.nrays))


@lru_cache(maxsize=None)
def pullback_matrix(endo: ToricEndomorphism, pic: PicLattice) -> IntMatrix:
    """Matrix of f* on the Picard lattice in class_group's gauge (cached)."""
    if pic.fan != endo.fan:
        raise EndoError("Picard lattice belongs to a different fan")
    cols = []
    for j in range(pic.rank):
        unit = [0] * pic.rank
        unit[j] = 1
        cols.append(pic.class_of(pullback_divisor(endo, pic.lift(unit))))
    return IntMatrix.from_rows(list(zip(*cols)))


def is_int_amplified(endo: ToricEndomorphism,
                     pic: PicLattice) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether some ample H has f*H - H ample; returns a certificate.

    H is ample iff every ample row a . h >= 1 holds, as the strict systems
    are scale-invariant, so margin 1 is as good.  By linearity the row of
    f*H - H is a . f*[:, j] - a_j.  One exact solve of both row sets
    decides; clearing the witness's denominators scales every margin by a
    positive integer, so H and f*H - H are ample by construction.  A "no"
    solves the ample rows alone, to tell a fan with no ample class apart.
    """
    r = pic.rank
    pb = pullback_matrix(endo, pic).transpose().entries
    ample = _ample_rows(endo.fan)
    point = feasible_point(ample + [
        ([sum(map(mul, a, col)) - x for col, x in zip(pb, a)], 1)
        for a, _ in ample], r)
    if point is None:
        if feasible_point(ample, r) is None:
            raise EndoError("no ample class found; fan may be non-projective")
        return False, None
    scale = lcm(*[x.denominator for x in point])
    return True, tuple(int(x * scale) for x in point)
