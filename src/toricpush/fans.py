"""Simplicial fans: validation, which reports smoothness (each cone's
chart, _charts, also poses every cone-pair check and gives the Kleiman
forms) and completeness rather than requiring them, and the standard
smooth builders, which construct their fans directly: validate_fan checks
outside data.

Charts are exchanged across walls.  scaled_inverse charts the first full
cone of each wall-connected set; every other full cone tau = W + b takes
its chart from a charted neighbour sigma = W + a by one exact basis
exchange (lattice.basis_exchange).  With x_j sigma's forms, z_j = x_j . v_b
and p the position of a in sigma: s' = |z_p|, b's form is sign(z_p) x_p,
and x'_j = sign(z_p) (z_p x_j - z_j x_p) / s for j != p.  The division by
s is exact: the results are the entries of s' times the inverse of tau's
basis, its adjugate up to sign, so integers.  z_p = 0 iff v_b lies in W's
span, and then tau has dependent rays and no chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import NamedTuple

from .errors import FanError, LatticeError
from .feasibility import feasible_point
from .lattice import IntMatrix, as_ints, basis_exchange, scaled_inverse


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
    """Each maximal cone with independent rays mapped to its chart (x, s):
    s = |det B| and x_j, the j-th column of s B^{-1}, with B the cone's
    rays, then, on a cone of fewer than n rays, the first unit vectors (in
    combinations order) that complete them to a basis of Q^n.  So
    z_j(v) = x_j . v is s times v's j-th coordinate in B.

    A lower-dimensional cone, and the first full cone with independent
    rays of each set that the walls connect, take scaled_inverse.  Every
    other full cone tau = W + b is reached across a wall W from a charted
    sigma = W + a by basis_exchange: with z_j = x_j . v_b and p the
    position of a in sigma, s' = |z_p| and
      x'_j = sign(z_p) (z_p x_j - z_j x_p) / s  (j != p),  b: sign(z_p) x_p,
    reordered to tau's rays.  The division is exact, as the results are
    the entries of s' times tau's inverse basis, +- its adjugate; z_p = 0
    exactly when tau has dependent rays, and then it has no chart.  A
    chart is unique, so the order in which cones are reached changes none.
    """
    walls, charts, seen = _wall_map(fan), {}, set()
    units = IntMatrix.identity(fan.dim).entries
    for cone in fan.max_cones:
        if cone in seen:
            continue
        seen.add(cone)
        for extra in combinations(units, fan.dim - len(cone)):
            try:
                x, s = scaled_inverse(
                    IntMatrix.from_rows(fan.cone_rays(cone) + list(extra)))
                charts[cone] = tuple(zip(*x.entries)), s
                break
            except LatticeError:  # dependent: no chart from this completion
                pass
        reached = [cone] if cone in charts and len(cone) == fan.dim else []
        while reached:
            sigma = reached.pop()
            x, s = charts[sigma]
            for p in range(fan.dim):
                for tau, b in walls[sigma[:p] + sigma[p + 1:]]:
                    if tau in seen:
                        continue
                    seen.add(tau)
                    if chart := basis_exchange(x, s, p, fan.rays[b]):
                        y, t = chart  # in sigma's order, b's form at p
                        forms = [*y[:p], *y[p + 1:]]
                        forms.insert(tau.index(b), y[p])
                        charts[tau] = tuple(forms), t
                        reached.append(tau)
    return {cone: charts[cone] for cone in fan.max_cones if cone in charts}


def _cones_intersect_properly(fan: Fan, c1, c2) -> bool:
    """Check sigma ∩ tau = cone(common rays), in sigma's chart (x, s); both
    cones have independent rays, as validate_fan has checked.

    z_j(v) = x_j . v is s > 0 times v's j-th coordinate in sigma's basis,
    so sigma is the set where z_e = 0 on each completing unit vector e and
    z_a >= 0 on each of its rays a.  Its points off cone(common rays) are those with
    sum_{a in sigma - tau} z_a > 0, and scaling makes that >= 1.  A point
    of tau is y = sum_{b in tau} beta_b v_b with beta >= 0.  A shared ray
    is a basis vector: it moves only its own coordinate, which is bounded
    only below by 0, so its beta drops out.  So the intersection is
    improper iff some beta >= 0 on the k rays b of tau off sigma has
      sum_b z_a(v_b) beta_b >= 0 for each a in sigma - tau,
      sum_b z_e(v_b) beta_b  = 0 for each completing e,
    and the a-rows summing to >= 1: one FM system in k unknowns, with only
    those coordinates computed.  With k = 1 it is read off its rows: on a
    wall pair, sigma = W + a and tau = W + b, proper iff z_a(v_b) < 0."""
    x = _charts(fan)[c1][0]  # z_j(v) = x[j] . v
    off = [fan.rays[i] for i in c2 if i not in c1]

    def rows(js):
        return [tuple([sum(map(mul, x[j], v)) for v in off]) for j in js]

    outs = rows([j for j, i in enumerate(c1) if i not in c2])
    eqs = rows(range(len(c1), fan.dim))
    if (k := len(off)) == 1:
        zs = [z for (z,) in outs]
        return any(z for (z,) in eqs) or min(zs) < 0 or max(zs) == 0
    cons = [(tuple(int(i == j) for i in range(k)), 0) for j in range(k)]
    cons += [(row, 0) for row in outs]
    for row in eqs:  # = 0, as >= 0 and <= 0
        cons += [(row, 0), (tuple([-c for c in row]), 0)]
    cons.append((tuple(map(sum, zip(*outs))), 1))
    return feasible_point(cons, k) is None


@lru_cache(maxsize=None)
def _wall_map(fan: Fan) -> dict:
    """Each wall, a maximal cone less one ray, mapped to its (cone, ray off
    the wall) pairs, in the order of the cones and of their rays; _charts,
    _is_complete and kleiman_forms read it."""
    walls = {}
    for cone in fan.max_cones:
        for p, rho in enumerate(cone):
            walls.setdefault(cone[:p] + cone[p + 1:], []).append((cone, rho))
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
