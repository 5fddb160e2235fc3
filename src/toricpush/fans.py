"""Simplicial fans: validation, which reports smoothness (each full cone's
chart, _charts, also gives the wall signs and the Kleiman forms) and
completeness rather than requiring them, and the standard smooth builders,
which construct their fans directly: validate_fan checks outside data."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .errors import FanError, LatticeError
from .feasibility import feasible_point
from .lattice import IntMatrix, as_ints, scaled_inverse


@dataclass(frozen=True)
class Fan:
    """Simplicial fan: primitive integer rays plus maximal cones as index sets."""

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        # hashed once: each lru_cache keyed by a fan hashes it per lookup
        object.__setattr__(self, "_hash",
                           hash((self.dim, self.rays, self.max_cones)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def nrays(self) -> int:
        return len(self.rays)

    def cone_rays(self, cone) -> list[tuple[int, ...]]:
        return [self.rays[i] for i in cone]


class FanReport(NamedTuple):
    smooth: bool
    complete: bool


def _check_structure(dim, rays, max_cones):
    if dim < 1:
        raise FanError("dimension must be positive")
    rays = tuple(map(as_ints, rays))
    for i, r in enumerate(rays):
        if len(r) != dim:
            raise FanError("ray %d has length %d, expected dim=%d"
                           % (i, len(r), dim))
        if math.gcd(*r) != 1:
            raise FanError("ray not primitive: %s" % (r,))
    if len(set(rays)) != len(rays):
        raise FanError("duplicate ray")
    cones = []
    for i, c in enumerate(max_cones):
        c = as_ints(c)
        for j in c:
            if not 0 <= j < len(rays):
                raise FanError("cone %d: ray index %d out of range" % (i, j))
        c = tuple(sorted(c))
        if len(set(c)) != len(c):
            raise FanError("repeated ray index in cone %s" % (c,))
        if not c:
            raise FanError("empty maximal cone")
        if len(c) > dim:
            raise FanError("cone %s has more than dim rays (not simplicial)" % (c,))
        cones.append(c)
    if not cones:
        raise FanError("fan has no maximal cones")
    if len(set(cones)) != len(cones):
        raise FanError("duplicate maximal cone")
    for c, d in combinations(map(set, cones), 2):
        if c <= d or d <= c:
            raise FanError("maximal cone contained in another")
    return rays, tuple(cones)


@lru_cache(maxsize=None)
def _charts(fan: Fan) -> dict:
    """Each full maximal cone with independent rays mapped to (X, s) =
    scaled_inverse of its rays, s = |det|: v is X^T v / s in their basis."""
    charts, rays = {}, fan.cone_rays
    for cone in (c for c in fan.max_cones if len(c) == fan.dim):
        try:
            charts[cone] = scaled_inverse(IntMatrix.from_rows(rays(cone)))
        except LatticeError:  # dependent rays: no chart
            pass
    return charts


def _cones_intersect_properly(fan: Fan, c1, c2) -> bool:
    """Check sigma ∩ tau = cone(common rays).  Charted cones sigma = W + a
    and tau = W + b that share a wall W are decided by the sign of b's
    coordinate on a in sigma's basis, sum_k X[k][a] v_b[k] / s, which is
    not 0, as tau's rays are independent.  If it is negative, sigma's facet
    functional for a (that coordinate) is >= 0 on sigma and <= 0 on tau,
    where it vanishes only on cone(W).  If it is positive, y + e v_b, with
    y inside cone(W) and e > 0 small, lies in tau off W and inside sigma.

    Every other pair is decided by exact rational feasibility.  A point of
    sigma ∩ tau is sum_sigma a_rho v_rho = sum_tau b_rho v_rho
    with every coefficient >= 0, and a shared ray enters only through
    a_rho - b_rho.  So each ray of sigma ∪ tau gets one unknown x_rho,
    signed + on sigma and - on tau minus sigma: free on a shared ray, >= 0
    on the others (a = max(x, 0), b = max(-x, 0) map a solution back).  An
    improper intersection needs a strictly positive coefficient on a
    non-shared ray; the cone is scale-invariant, so that is one system: the
    non-shared unknowns sum to >= 1.
    """
    only2 = [i for i in c2 if i not in c1]
    charts = _charts(fan)
    if len(only2) == 1 and c1 in charts and c2 in charts:  # a wall pair
        a = next(k for k, i in enumerate(c1) if i not in c2)
        return sum(row[a] * v for row, v in
                   zip(charts[c1][0].entries, fan.rays[only2[0]])) < 0
    cols = fan.cone_rays(c1) + [tuple(-x for x in fan.rays[i]) for i in only2]
    outside = tuple([int(i not in c2) for i in c1] + [1] * len(only2))
    nvars = len(cols)
    zero = (0,) * nvars
    cons = []
    for row in zip(*cols):  # sum_rho +-x_rho v_rho = 0, as >= and <=
        cons += [(row, 0), (tuple([-c for c in row]), 0)]
    cons += [(zero[:j] + (1,) + zero[j + 1:], 0)
             for j in range(nvars) if outside[j]]
    cons.append((outside, 1))
    return feasible_point(cons, nvars) is None


def _wall_map(fan: Fan) -> dict:
    """Each wall, a maximal cone less one ray, mapped to its (cone, ray off
    the wall) pairs, in the order of the cones and of their rays."""
    walls = {}
    for cone in fan.max_cones:
        for rho in cone:
            wall = tuple(i for i in cone if i != rho)
            walls.setdefault(wall, []).append((cone, rho))
    return walls


def _is_complete(fan: Fan) -> bool:
    """Pure n-dimensional, with every wall in exactly two maximal cones.

    On cones that meet properly, as validate_fan has checked, this is
    completeness: away from the codimension-2 skeleton the support is then
    open and closed in R^n, and that set is connected.
    """
    if any(len(c) != fan.dim for c in fan.max_cones):
        return False
    return all(len(pairs) == 2 for pairs in _wall_map(fan).values())


def _cone_index(fan: Fan, cone) -> int:
    """gcd of the k x k minors of the cone's k rays (Newman, Integral
    Matrices, II.15): 0 iff they are dependent, 1 iff they extend to a basis."""
    if len(cone) == fan.dim:  # one minor: the chart's s, 0 without a chart
        return _charts(fan).get(cone, (None, 0))[1]
    return math.gcd(*(IntMatrix.from_rows(cols).det() for cols
                      in combinations(zip(*fan.cone_rays(cone)), len(cone))))


def _is_smooth(fan: Fan) -> bool:
    """Every maximal cone's rays extend to a basis of the lattice."""
    return all(_cone_index(fan, c) == 1 for c in fan.max_cones)


def validate_fan(dim, rays, max_cones, name="") -> tuple[Fan, FanReport]:
    """Validate raw fan data; raises FanError if it is not a fan at all.

    Smoothness and completeness are reported, not required.
    """
    (dim,) = as_ints((dim,))
    rays, cones = _check_structure(dim, rays, max_cones)
    fan = Fan(dim=dim, rays=rays, max_cones=cones, name=name)
    smooth = _is_smooth(fan)
    for c in cones:  # a cone with dependent rays is not smooth
        if not smooth and _cone_index(fan, c) == 0:
            raise FanError("cone %s has linearly dependent rays" % (c,))
    for c1, c2 in combinations(cones, 2):
        if not _cones_intersect_properly(fan, c1, c2):
            raise FanError("cones %s and %s overlap improperly" % (c1, c2))
    return fan, FanReport(smooth=smooth, complete=_is_complete(fan))


def projective_space(n: int) -> Fan:
    """Fan of P^n: standard basis rays plus their negative sum."""
    (n,) = as_ints((n,))
    if n < 1:
        raise FanError("projective_space needs n >= 1")
    rays = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    cones = [tuple(j for j in range(n + 1) if j != i) for i in range(n + 1)]
    return Fan(dim=n, rays=(*rays, (-1,) * n), max_cones=tuple(cones),
               name="P%d" % n)


def product_fan(f: Fan, g: Fan, name="") -> Fan:
    """Fan of the product variety: the cones c1 x c2, each sorted because
    g's rays are numbered after f's; f and g are trusted to be fans."""
    rays = tuple(r + (0,) * g.dim for r in f.rays)
    rays += tuple((0,) * f.dim + r for r in g.rays)
    cones = tuple(c1 + tuple(f.nrays + i for i in c2)
                  for c1 in f.max_cones for c2 in g.max_cones)
    return Fan(dim=f.dim + g.dim, rays=rays, max_cones=cones,
               name=name or "%sx%s" % (f.name, g.name))


def hirzebruch(a: int) -> Fan:
    """Hirzebruch surface F_a with rays e1, e2, -e1 + a*e2, -e2."""
    (a,) = as_ints((a,))
    if a < 0:
        raise FanError("hirzebruch needs a >= 0")
    return Fan(dim=2, rays=((1, 0), (0, 1), (-1, a), (0, -1)),
               max_cones=((0, 1), (1, 2), (2, 3), (0, 3)), name="F%d" % a)
