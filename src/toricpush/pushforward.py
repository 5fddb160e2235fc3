"""Decomposition of pushforwards of line bundles into direct sums of line
bundles, with an independent projection-formula dimension oracle."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import product

from .divisors import class_group, h0_class
from .endos import ToricEndomorphism, compose, degree, pullback_matrix
from .lattice import coset_representatives


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
    """
    fan = endo.fan
    coeffs = tuple(int(a) for a in coeffs)
    pic = class_group(fan)
    pi_inv = endo.pi_inverse
    reps = coset_representatives(endo.matrix.transpose())
    entries = []
    for u in reps:
        witness = []
        for rho_prime in range(fan.nrays):
            rho = pi_inv[rho_prime]
            v = fan.rays[rho]
            num = coeffs[rho] + sum(ui * vi for ui, vi in zip(u, v))
            witness.append(num // endo.mults[rho])  # floor: mults are > 0
        witness = tuple(witness)
        entries.append((pic.class_of(witness), witness, u))
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
    coeffs = tuple(int(a) for a in coeffs)
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

    if pic.class_of(coeffs) == pic.zero():
        trivial = sum(1 for lam in dec.summands if lam == pic.zero())
        report.checks += 1
        if trivial != 1:
            report.passed = False
            report.violations.append(
                "trivial summand count %d (expected exactly 1)" % trivial)
        for lam in dec.summands:
            if lam == pic.zero():
                continue
            report.checks += 1
            if h0_class(fan, lam) != 0:
                report.passed = False
                report.violations.append(
                    "non-trivial summand %s has h0 > 0" % (lam,))
    return report


def iterate_coherence(endo: ToricEndomorphism, coeffs,
                      k: int = 2) -> VerificationReport:
    """Check f^k_* O(D) against k-fold application of the single-step formula."""
    if k < 2:
        raise ValueError("iteration order must be >= 2")
    fan = endo.fan
    pic = class_group(fan)
    coeffs = tuple(int(a) for a in coeffs)

    iterate = endo
    for _ in range(k - 1):
        iterate = compose(iterate, endo)
    direct = sorted(decompose_pushforward(iterate, coeffs).summands)

    classes = [pic.class_of(coeffs)]
    for _ in range(k):
        classes = [lam
                   for cls in classes
                   for lam in decompose_pushforward(endo, pic.lift(cls)).summands]
    stepped = sorted(classes)

    report = VerificationReport(passed=direct == stepped, checks=1)
    if not report.passed:
        report.violations.append(
            "multiset mismatch: direct %s vs stepped %s" % (direct, stepped))
    return report
