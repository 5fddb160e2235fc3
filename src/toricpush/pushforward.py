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
counts the slab fiber by fiber over lambda, visiting no coset; coset_table
walks the cosets to list them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, product, repeat
from operator import add, floordiv, mul

from .divisors import (_class_coordinates, _coefficients, _h0_class,
                       class_group)
from .endos import ToricEndomorphism, compose, degree, pullback_matrix
from .fans import Fan
from .feasibility import lattice_point_counter
from .lattice import _axis, as_ints, walk_cosets


@dataclass(frozen=True)
class Decomposition:
    """f_* O(D) = direct sum of O(lambda)^mult over the multiplicities
    (lambda, mult), sorted by class so that the output is deterministic.
    summands lists each class mult times, one shared tuple per class, and
    from_summands counts such a list; coset_table lists the cosets behind."""

    multiplicities: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def from_summands(cls, summands) -> Decomposition:
        return cls(tuple(sorted(Counter(summands).items())))

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


def decompose_pushforward(endo: ToricEndomorphism, coeffs) -> Decomposition:
    """f_* O(D) by the slab's fiber counts over D's class (see the module)."""
    cls = class_group(endo.fan).class_of(_coefficients(endo.fan, coeffs))
    return Decomposition(_slab_counter(endo.fan, endo.pi, endo.mults)(cls))


def coset_table(endo: ToricEndomorphism, coeffs):
    """Every coset's row (class, witness divisor, coset u) of f_* O(D),
    sorted by class, then witness, then coset; the class column is
    decompose_pushforward's summands.  walk_cosets leads each coset with the
    numerators a_rho + <u, v_rho> in the order of the rays pi(rho)."""
    coeffs = _coefficients(endo.fan, coeffs)
    pic = class_group(endo.fan)
    forms = [(endo.fan.rays[rho], coeffs[rho]) for rho in endo.pi_inverse]
    mults = [endo.mults[rho] for rho in endo.pi_inverse]
    rows = [(tuple(map(floordiv, vec, mults)), vec[len(mults):])
            for vec in _axis(*walk_cosets(endo.matrix.transpose(), forms))]
    return sorted((pic.class_of(w), w, u) for w, u in rows)


@dataclass
class VerificationReport:
    passed: bool
    checks: int
    violations: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str, *args, times: int = 1):
        """Record times checks of one fact; if it fails, each of them is a
        violation, message % args (formatted only then)."""
        self.checks += times
        if not ok:
            self.passed = False
            self.violations += [message % args] * times


def _twist_box(box) -> int:
    """The twist box, checked to be an int >= 0, so that at least the zero
    twist is checked; the oracles check it before any other work."""
    (box,) = as_ints((box,))
    if box < 0:
        raise ValueError("twist box must be >= 0")
    return box


def _twist_sums(endo: ToricEndomorphism, coeffs, multiplicities, count,
                box: int):
    """The projection formula twist by twist: yield (E, h0(D + f*E),
    sum_lambda mult * count(lambda + E)) for every class E in the
    Pic-coordinate box [-box, box]^rank, where D has ray coefficients
    coeffs and the pairs (lambda, mult) are the summand classes."""
    fan = endo.fan
    pic = class_group(fan)
    d_class = pic.class_of(coeffs)
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
    check counted once per summand it covers.
    """
    box = _twist_box(box)
    fan = endo.fan
    pic = class_group(fan)
    coeffs = _coefficients(fan, coeffs)
    for lam, _ in dec.multiplicities:  # before any cache is read
        _class_coordinates(fan, lam)
    report = VerificationReport(passed=True, checks=0)

    d = degree(endo)
    rank = sum(mult for _, mult in dec.multiplicities)
    report.check(rank == d, "rank %d does not equal degree %d", rank, d)
    for twist, lhs, rhs in _twist_sums(endo, coeffs, dec.multiplicities,
                                       partial(_h0_class, fan), box):
        report.check(lhs == rhs,
                     "twist %s: h0(D + f*E) = %d but summands give %d",
                     twist, lhs, rhs)

    zero = pic.zero()
    if pic.class_of(coeffs) == zero:
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
    if k < 2:
        raise ValueError("iteration order must be >= 2")
    fan = endo.fan
    pic = class_group(fan)
    coeffs = _coefficients(fan, coeffs)

    iterate = endo
    for _ in range(k - 1):
        iterate = compose(iterate, endo)
    direct = Counter(dict(
        decompose_pushforward(iterate, coeffs).multiplicities))
    # push each class once, carrying its multiplicity
    stepped = Counter([pic.class_of(coeffs)])
    for _ in range(k):
        pushed = Counter()
        for cls, mult in stepped.items():
            for lam, n in decompose_pushforward(endo,
                                                pic.lift(cls)).multiplicities:
                pushed[lam] += mult * n
        stepped = pushed

    report = VerificationReport(passed=direct == stepped, checks=1)
    if not report.passed:
        report.violations.append(
            "multiset mismatch: direct %s vs stepped %s"
            % (sorted(direct.elements()), sorted(stepped.elements())))
    return report
