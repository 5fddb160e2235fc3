"""q as a variable: for D = 0, O(lambda) occurs in q_* O_X once per lattice
point of q Q_lambda, Q_lambda the half-open polytope L_rho <= <theta, v_rho>
< L_rho + 1 (L = lift(lambda)), so by Ehrhart-Macdonald each multiplicity
is a quasi-polynomial in q of degree <= n (Beck and Robins, *Computing the
Continuous Discretely*, Ch. 3).  These tests read the multiplicities off
the slab counts and fit them exactly over Fraction.  The degree-n
coefficient of each interpolant is vol(Q_lambda) for every residue, and the
Q_lambda tile a fundamental domain of Z^n, so these volumes sum to 1.
Each vertex of the closure of Q_lambda solves n of the equations
<theta, v_rho> = L_rho or L_rho + 1 with independent v_rho, so by Cramer's
rule its denominator divides the determinant of those rays, and the period
divides the lcm of these determinants."""

import math
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import ORACLE_FANS, corpus_fans
from toricpush import IntMatrix, decompose_pushforward, multiplication_endo

QS = range(1, 31)

# fan -> (least period, number of summand classes over q <= 30, lcm of
# |det| over the bases among the rays)
EXPECTED = {"P1": (1, 2, 1), "P2": (1, 3, 1), "P3": (1, 4, 1),
            "P1xP1": (1, 4, 1), "F1": (1, 4, 1), "F2": (2, 5, 2),
            "F3": (3, 6, 3), "P2xP1": (1, 6, 1), "F1xP1": (1, 8, 1)}


# P^n: vol(Q_lambda) on O(-n), ..., O(-1), O is the Eulerian numbers
# A(n, k) / n!, then 0
VOLUMES = {"P1": (1, 0), "P2": (Fraction(1, 2), Fraction(1, 2), 0),
           "P3": (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6), 0)}

FANS = {**corpus_fans(), "P2xP1": ORACLE_FANS["P2xP1"][0],
        "F1xP1": ORACLE_FANS["F1xP1"][0]}


def multiplicities(fan, q):
    endo = multiplication_endo(fan, q)
    return dict(decompose_pushforward(endo, (0,) * fan.nrays).multiplicities)


def basis_lcm(fan):
    """The lcm of |det| over the n-subsets of the rays that are a basis of
    Q^n: every vertex denominator of every Q_lambda divides it."""
    dets = (IntMatrix.from_rows(rays).det()
            for rays in combinations(fan.rays, fan.dim))
    return math.lcm(*(abs(d) for d in dets if d))


def interpolant(points):
    """The exact Lagrange interpolant through the (x, y) points."""
    def value(x):
        total = Fraction(0)
        for i, (xi, yi) in enumerate(points):
            term = Fraction(yi)
            for j, (xj, _) in enumerate(points):
                if j != i:
                    term *= Fraction(x - xj, xi - xj)
            total += term
        return total
    return value


def leading(points):
    """The coefficient of x^(len(points) - 1) in the interpolant through the
    (x, y) points: the divided difference sum_i y_i / prod_(j != i) (x_i - x_j)."""
    return sum(Fraction(yi, math.prod(xi - xj for xj, _ in points if xj != xi))
               for xi, yi in points)


def fits(table, classes, degree, period):
    """The points of the interpolants per (class, residue) if each one,
    fitted through the first degree + 1 values with q = r mod period,
    predicts every other q <= 30; else None."""
    fitted = {}
    for lam in classes:
        for r in range(period):
            values = [(q, table[q].get(lam, 0)) for q in QS
                      if q % period == r]
            f = interpolant(values[:degree + 1])
            if any(f(q) != m for q, m in values[degree + 1:]):
                return None
            fitted[lam, r] = values[:degree + 1]
    return fitted


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_multiplicities_are_quasi_polynomials(name):
    fan = FANS[name]
    table = {q: multiplicities(fan, q) for q in QS}
    classes = sorted(set().union(*table.values()))
    period, nclasses, denominators = EXPECTED[name]
    assert len(classes) == nclasses
    assert basis_lcm(fan) == denominators
    found, fitted = next((p, f) for p in range(1, 7) if (
        f := fits(table, classes, fan.dim, p)) is not None)
    assert found == period and denominators % period == 0
    for r in range(period):
        q = 1024 * period + r
        far = multiplicities(fan, q)
        assert set(far) <= set(classes)
        assert {lam: interpolant(fitted[lam, r])(q) for lam in classes} \
            == {lam: far.get(lam, 0) for lam in classes}
    # the degree-n coefficient is vol(Q_lambda), whatever the residue
    volumes = [{leading(fitted[lam, r]) for r in range(period)}
               for lam in classes]
    assert all(len(v) == 1 for v in volumes)
    volumes = tuple(v.pop() for v in volumes)
    assert sum(volumes) == 1
    if name in VOLUMES:
        assert volumes == VOLUMES[name]
