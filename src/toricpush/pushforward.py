"""Decomposition of pushforwards of line bundles into direct sums of line
bundles, with an independent projection-formula dimension oracle."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby, product
from operator import floordiv, mul

from .divisors import _coefficients, class_group, h0_class
from .endos import ToricEndomorphism, compose, degree, pullback_matrix
from .lattice import walk_cosets


@dataclass(frozen=True)
class Decomposition:
    """f_* O(D) = direct sum of O(witness_u), one summand per coset u.

    Entries are aligned and sorted by summand class (lexicographically), so
    the output is deterministic.
    """

    summands: tuple[tuple[int, ...], ...]
    witness_divisors: tuple[tuple[int, ...], ...]
    cosets: tuple[tuple[int, ...], ...]


def decompose_pushforward(endo: ToricEndomorphism, coeffs) -> Decomposition:
    """Generalized Thomsen floor formula over cosets of the character lattice.

    Coset representatives u run over Z^n / F^T Z^n; the summand witness for u
    has coefficient floor((a_rho + <u, v_rho>) / c_rho) at the ray pi(rho).
    One mixed-radix walk of the coset box carries every a_rho + <u, v_rho>
    along with u, and equal summand classes share one tuple.
    """
    fan = endo.fan
    coeffs = _coefficients(fan, coeffs)
    rows = class_group(fan).to_class_mat.entries
    forms = [(fan.rays[rho], coeffs[rho]) for rho in endo.pi_inverse]
    mults = [endo.mults[rho] for rho in endo.pi_inverse]
    nrays = len(mults)
    classes, entries = {}, []
    for vec in walk_cosets(endo.matrix.transpose(), forms):
        # vec is (a_rho + <u, v_rho> in pi_inverse order) + u, and map stops
        # where u begins; floor, as mults are > 0
        witness = tuple(map(floordiv, vec, mults))
        cls = tuple([sum(map(mul, row, witness)) for row in rows])
        entries.append((classes.setdefault(cls, cls), witness, vec[nrays:]))
    entries.sort()
    return Decomposition(summands=tuple(e[0] for e in entries),
                         witness_divisors=tuple(e[1] for e in entries),
                         cosets=tuple(e[2] for e in entries))


@dataclass
class VerificationReport:
    passed: bool
    checks: int
    violations: list[str] = field(default_factory=list)


def _twist_sums(endo: ToricEndomorphism, coeffs, summands, count, box: int):
    """The projection formula twist by twist: yield (E, h0(D + f*E),
    sum_i count(lambda_i + E)) for every class E in the Pic-coordinate box
    [-box, box]^rank, where D has ray coefficients coeffs and lambda_i runs
    over the summand classes.  The box must be >= 0, so that at least the
    zero twist is checked."""
    if box < 0:
        raise ValueError("twist box must be >= 0")
    fan = endo.fan
    pic = class_group(fan)
    d_class = pic.class_of(coeffs)
    pb = pullback_matrix(endo, pic)
    distinct = Counter(summands)  # mul:q gives q^n summands, few classes
    for twist in product(range(-box, box + 1), repeat=pic.rank):
        lhs = h0_class(fan, tuple(a + b for a, b in
                                  zip(d_class, pb.mul_vector(twist))))
        rhs = sum(mult * count(tuple(a + b for a, b in zip(lam, twist)))
                  for lam, mult in distinct.items())
        yield twist, lhs, rhs


def verify_decomposition(endo: ToricEndomorphism, coeffs, dec: Decomposition,
                         box: int = 2) -> VerificationReport:
    """Independent oracle for a claimed decomposition of f_* O(D).

    Checks rank = deg f, the projection-formula dimension identity
    h0(D + f*E) = sum_i h0(lift(lambda_i) + lift(E)) for every class E in the
    box (box >= 0), and (for trivial D) the single-trivial-summand law.
    """
    fan = endo.fan
    pic = class_group(fan)
    coeffs = _coefficients(fan, coeffs)
    report = VerificationReport(passed=True, checks=0)

    d = degree(endo)
    report.checks += 1
    if len(dec.summands) != d:
        report.passed = False
        report.violations.append(
            "rank %d does not equal degree %d" % (len(dec.summands), d))

    for twist, lhs, rhs in _twist_sums(endo, coeffs, dec.summands,
                                       partial(h0_class, fan), box):
        report.checks += 1
        if lhs != rhs:
            report.passed = False
            report.violations.append(
                "twist %s: h0(D + f*E) = %d but summands give %d"
                % (twist, lhs, rhs))

    zero = pic.zero()
    if pic.class_of(coeffs) == zero:
        trivial = dec.summands.count(zero)
        report.checks += 1
        if trivial != 1:
            report.passed = False
            report.violations.append(
                "trivial summand count %d (expected exactly 1)" % trivial)
        # one h0 per run of equal classes (sorted summands: one run per
        # class), checked and reported once per summand
        for lam, run in groupby(dec.summands):
            mult = len(list(run))
            if lam == zero:
                continue
            report.checks += mult
            if h0_class(fan, lam) != 0:
                report.passed = False
                report.violations += (
                    ["non-trivial summand %s has h0 > 0" % (lam,)] * mult)
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
    direct = sorted(decompose_pushforward(iterate, coeffs).summands)

    # mul:q gives q^n summands but few classes: push each class once
    classes = Counter([pic.class_of(coeffs)])
    for _ in range(k):
        pushed = Counter()
        for cls, mult in classes.items():
            for lam in decompose_pushforward(endo, pic.lift(cls)).summands:
                pushed[lam] += mult
        classes = pushed
    stepped = sorted(classes.elements())

    report = VerificationReport(passed=direct == stepped, checks=1)
    if not report.passed:
        report.violations.append(
            "multiset mismatch: direct %s vs stepped %s" % (direct, stepped))
    return report
