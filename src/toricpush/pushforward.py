"""Decomposition of pushforwards of line bundles into direct sums of line
bundles, with an independent projection-formula dimension oracle.

By Thomsen's floor formula (J. Algebra 226, 2000), f_* O(D) has one summand
O(w_u) per coset u of Z^n / F^T Z^n, w_{pi(rho)} = floor((a_rho + <u, v_rho>)
/ c_rho).  As F v_rho = c_rho v_{pi(rho)}, moving u by F^T m moves w_u by the
principal divisor <m, v>, so each coset of class lambda holds one u with
w_u = L = lift(lambda): O(lambda) occurs once per integer u in the bounded
slab 0 <= a_rho - c_rho L_{pi(rho)} + <u, v_rho> <= c_rho - 1.  Moving D
by div chi^m moves u by m, so a = lift(delta) serves for D of class delta:
one lattice_point_counter per endomorphism, with delta as parameters,
counts the slab fiber by fiber over lambda, visiting no coset: every
decomposition, printed or verified, is these counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, product, repeat
from operator import add, mul
from typing import NamedTuple

from .divisors import (_class_coordinates, _coefficients, _h0_class,
                       class_group)
from .endos import ToricEndomorphism, compose, degree, pullback_matrix
from .fans import Fan
from .feasibility import lattice_point_counter
from .lattice import as_ints


class Decomposition(NamedTuple):
    """f_* O(D) = direct sum of O(lambda)^mult over the multiplicities
    (lambda, mult), sorted by class so that the output is deterministic.
    summands lists each class mult times, one shared tuple per class."""

    multiplicities: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def summands(self) -> tuple[tuple[int, ...], ...]:
        return tuple(chain.from_iterable(
            repeat(lam, mult) for lam, mult in self.multiplicities))


@lru_cache(maxsize=None)
def _slab_counter(fan: Fan, pi: tuple[int, ...], mults: tuple[int, ...]):
    """The slab's counter for the endomorphism that (pi, mults) determine:
    two rows per ray over (delta, lambda, u), lift_mat[rho] . delta in place
    of a_rho, with the class delta of D as parameters, counted fiber by
    fiber over lambda (see the module)."""
    lift = class_group(fan).lift_mat.entries
    rank = len(lift[0])
    rows = []
    for rho, (ray, c) in enumerate(zip(fan.rays, mults)):
        low = (*lift[rho], *(-c * x for x in lift[pi[rho]]), *ray)
        rows += [(low, 0), (tuple(-x for x in low), 1 - c)]
    return lattice_point_counter(rows, 2 * rank + fan.dim, rank, rank)


def _push(endo: ToricEndomorphism, cls: tuple[int, ...]):
    """The pairs (lambda, mult) of f_* O(D) for D of class cls."""
    return _slab_counter(endo.fan, endo.pi, endo.mults)(cls)


def decompose_pushforward(endo: ToricEndomorphism, coeffs) -> Decomposition:
    """f_* O(D) by the slab's fiber counts over D's class (see the module)."""
    cls = class_group(endo.fan).class_of(_coefficients(endo.fan, coeffs))
    return Decomposition(_push(endo, cls))


@dataclass
class VerificationReport:
    """checks counts the facts checked; the report passed iff none failed."""

    checks: int
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def check(self, ok: bool, message: str, *args, times: int = 1):
        """Record times checks of one fact; if it fails, each of them is a
        violation, message % args (formatted only then)."""
        self.checks += times
        if not ok:
            self.violations += [message % args] * times


def _twist_box(box) -> int:
    """The twist box, checked to be an int >= 0, so that at least the zero
    twist is checked; the oracles check it before any other work."""
    (box,) = as_ints((box,))
    if box < 0:
        raise ValueError("twist box must be >= 0")
    return box


def _twist_sums(endo: ToricEndomorphism, d_class, multiplicities, count,
                box: int):
    """The projection formula twist by twist: yield (E, h0(D + f*E),
    sum_lambda mult * count(lambda + E)) for every class E in the
    Pic-coordinate box [-box, box]^rank, where D has class d_class and the
    pairs (lambda, mult) are the summand classes."""
    fan = endo.fan
    pic = class_group(fan)
    rows = pullback_matrix(endo, pic).entries
    for twist in product(range(-box, box + 1), repeat=pic.rank):
        lhs = _h0_class(fan, tuple([d + sum(map(mul, row, twist))
                                    for d, row in zip(d_class, rows)]))
        yield twist, lhs, sum(mult * count(tuple(map(add, lam, twist)))
                              for lam, mult in multiplicities)


def verify_decomposition(endo: ToricEndomorphism, coeffs, dec: Decomposition,
                         box: int = 2) -> VerificationReport:
    """Independent oracle for a claimed decomposition of f_* O(D).

    Checks rank = deg f, the projection-formula dimension identity
    h0(D + f*E) = sum_i h0(lift(lambda_i) + lift(E)) for every class E in the
    box (box >= 0), and (for trivial D) the single-trivial-summand law, each
    check counted once per summand it covers.  Each class must be listed
    once, with an int multiplicity >= 1.
    """
    box = _twist_box(box)
    fan = endo.fan
    pic = class_group(fan)
    d_class = pic.class_of(_coefficients(fan, coeffs))
    # every class and multiplicity is checked before any cache is read
    classes = [_class_coordinates(fan, lam) for lam, _ in dec.multiplicities]
    if len(set(classes)) < len(classes):
        raise ValueError("a summand class is listed twice")
    if min(as_ints(m for _, m in dec.multiplicities), default=1) < 1:
        raise ValueError("a summand multiplicity is below 1")
    report = VerificationReport(checks=0)

    d = degree(endo)
    rank = sum(mult for _, mult in dec.multiplicities)
    report.check(rank == d, "rank %d does not equal degree %d", rank, d)
    for twist, lhs, rhs in _twist_sums(endo, d_class, dec.multiplicities,
                                       partial(_h0_class, fan), box):
        report.check(lhs == rhs,
                     "twist %s: h0(D + f*E) = %d but summands give %d",
                     twist, lhs, rhs)

    zero = pic.zero()
    if d_class == zero:
        trivial = dict(dec.multiplicities).get(zero, 0)
        report.check(trivial == 1,
                     "trivial summand count %d (expected exactly 1)", trivial)
        for lam, mult in dec.multiplicities:
            if lam != zero:
                report.check(_h0_class(fan, lam) == 0,
                             "non-trivial summand %s has h0 > 0", lam,
                             times=mult)
    return report


def iterate_coherence(endo: ToricEndomorphism, coeffs,
                      k: int = 2) -> VerificationReport:
    """Check f^k_* O(D) against k-fold application of the single-step formula."""
    (k,) = as_ints((k,))
    if k < 2:
        raise ValueError("iteration order must be >= 2")
    d_class = class_group(endo.fan).class_of(_coefficients(endo.fan, coeffs))

    iterate = endo
    for _ in range(k - 1):
        iterate = compose(iterate, endo)
    direct = Counter(dict(_push(iterate, d_class)))
    # push each class once, carrying its multiplicity
    stepped = Counter([d_class])
    for _ in range(k):
        pushed = Counter()
        for cls, mult in stepped.items():
            for lam, n in _push(endo, cls):
                pushed[lam] += mult * n
        stepped = pushed

    report = VerificationReport(checks=0)
    report.check(direct == stepped,
                 "multiset mismatch: direct %s vs stepped %s",
                 sorted(direct.items()), sorted(stepped.items()))
    return report
