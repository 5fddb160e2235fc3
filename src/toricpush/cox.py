"""Pic-graded Cox ring machinery: the induced monomial endomorphism, the
contracting criterion, graded shifts of the pushforward module, and the
Pic / f*Pic coset bookkeeping."""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import product
from operator import mul
from typing import NamedTuple

from .divisors import PicLattice, _class_coordinates, class_group
from .endos import ToricEndomorphism, degree, pullback_matrix
from .errors import EndoError, VerificationError
from .fans import Fan
from .feasibility import feasible_point, variable_bounds
from .lattice import coset_representatives, smith_normal_form
from .pushforward import _twist_box, _twist_sums, decompose_pushforward


class CoxRing(NamedTuple):
    """Polynomial ring with one variable per ray, graded by the Picard lattice."""

    fan: Fan
    pic: PicLattice
    degrees: tuple[tuple[int, ...], ...]  # degree_of(x_rho) = class of D_rho


class CoxEndomorphism(NamedTuple):
    """Monomial substitution x_{rho'} -> x_{source}^{exponent} induced by f."""

    ring: CoxRing
    endo: ToricEndomorphism
    sources: tuple[int, ...]
    exponents: tuple[int, ...]


@lru_cache(maxsize=None)
def cox_ring(fan: Fan) -> CoxRing:
    pic = class_group(fan)
    # the class of D_rho is column rho of the class projection
    return CoxRing(fan=fan, pic=pic,
                   degrees=tuple(zip(*pic.to_class_mat.entries)))


def graded_dimension(ring: CoxRing, cls: tuple[int, ...]) -> int:
    """Number of monomials of degree cls: nonnegative exponent vectors e with
    sum_rho e_rho * deg(x_rho) = cls, counted by direct enumeration of the
    integer solutions that one Smith normal form of the degree matrix gives.

    This is an enumeration path independent of the section-polytope count in
    divisors.h0; the two are cross-checked in the test suite.  Counts are
    cached per (ring, class), and cls is checked first, as h0_class checks
    it; class_group demands a complete fan, so every count is finite.
    """
    return _graded_dimension(ring, _class_coordinates(ring.fan, cls))


@lru_cache(maxsize=None)
def _graded_dimension(ring: CoxRing, cls: tuple[int, ...]) -> int:
    # deg (rank x nrays, column rho = deg(x_rho)) is the identity on the
    # rays off sigma0, so it is onto and one SNF gives U deg V = [I | 0]: the
    # solutions of deg e = cls are e0 + K t for t in Z^n, with
    # e0 = V (U cls, 0) and K the last n = nrays - rank columns of V
    snf = smith_normal_form(ring.pic.to_class_mat)
    nt = ring.fan.nrays - ring.pic.rank
    e0 = snf.V.mul_vector(snf.U.mul_vector(cls) + (0,) * nt)
    kernel = [row[-nt:] for row in snf.V.entries]  # row rho of K
    # count integer t with e0 + K t >= 0 (a bounded polytope for complete fans)
    cons = [(k, -e) for k, e in zip(kernel, e0)]
    if feasible_point(cons, nt) is None:
        return 0
    box = [range(math.ceil(lo), math.floor(hi) + 1)
           for lo, hi in (variable_bounds(cons, nt, i) for i in range(nt))]
    count = 0
    for t in product(*box):
        if all(e + sum(map(mul, k, t)) >= 0 for k, e in zip(kernel, e0)):
            count += 1
    return count


# bench/run.py and tests clear it by these; bench/tracer.py reads its misses
graded_dimension.cache_info = _graded_dimension.cache_info
graded_dimension.cache_clear = _graded_dimension.cache_clear


def induced_cox_endo(endo: ToricEndomorphism, ring: CoxRing) -> CoxEndomorphism:
    """phi sends x_{rho'} to x_{pi^{-1}(rho')} raised to c_{pi^{-1}(rho')};
    on a complete fan -v_rho lies in a cone, so no x has degree zero."""
    if ring.fan != endo.fan:
        raise EndoError("ring and endomorphism live on different fans")
    sources = endo.pi_inverse
    exponents = tuple(endo.mults[s] for s in sources)
    return CoxEndomorphism(ring=ring, endo=endo, sources=sources,
                           exponents=exponents)


def contracting_exponent(phi: CoxEndomorphism) -> int | None:
    """Least e with phi^e(x) in m^2 for every variable x; None iff some ray
    orbit has all multiplicities 1.

    phi^e(x_rho) is a pure power whose exponent is the product of the first
    e exponents met along rho's orbit.  They are all >= 1, so the product
    reaches 2 exactly at the first exponent >= 2, and the answer is the
    longest walk to one; an orbit is a cycle of at most nrays rays.
    """
    nrays = phi.ring.fan.nrays
    longest = 0
    for rho in range(nrays):
        cur = rho
        for e in range(1, nrays + 1):
            if phi.exponents[cur] >= 2:
                break
            cur = phi.sources[cur]
        else:
            return None
        longest = max(longest, e)
    return longest


def pic_coset_decomposition(endo: ToricEndomorphism,
                            pic: PicLattice) -> list[tuple[int, ...]]:
    """Canonical representatives of Pic(X) / f* Pic(X)."""
    return coset_representatives(pullback_matrix(endo, pic))


def module_shifts(endo: ToricEndomorphism, coeffs, box: int = 2
                  ) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Shifts of the graded pushforward module of O(M), verified degreewise.

    The shifts are the decomposition's (class, multiplicity) pairs; the graded
    dimension identity dim(E_M)_mu = sum_i dim R_{lambda_i + mu} is then
    checked exactly for every mu in the given Pic-coordinate box (box >= 0,
    so at least mu = 0 is checked), counting monomials of the Cox ring rather
    than section-polytope points.
    """
    box = _twist_box(box)
    dec = decompose_pushforward(endo, coeffs)  # checks coeffs
    d_class = class_group(endo.fan).class_of(coeffs)
    for mu, lhs, rhs in _twist_sums(endo, d_class, dec.multiplicities,
                                    partial(graded_dimension,
                                            cox_ring(endo.fan)), box):
        if lhs != rhs:
            raise VerificationError(
                "graded dimension mismatch at mu=%s: %d != %d (bug or "
                "counterexample)" % (mu, lhs, rhs))
    return dec.multiplicities


def rank_bookkeeping(endo: ToricEndomorphism, ring: CoxRing,
                     pic: PicLattice) -> dict:
    """Check prod_rho c_rho = deg(f) * |Pic / f*Pic| and report the numbers."""
    if ring.fan != endo.fan:
        raise EndoError("ring and endomorphism live on different fans")
    prod_c = math.prod(endo.mults)
    deg = degree(endo)
    index = abs(pullback_matrix(endo, pic).det())
    if prod_c != deg * index:
        raise VerificationError(
            "rank bookkeeping fails: prod c = %d but degree * index = %d * %d"
            % (prod_c, deg, index))
    return {"product_of_multiplicities": prod_c, "degree": deg,
            "pic_index": index}
