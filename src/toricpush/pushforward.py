"""Decomposition of pushforwards of line bundles into direct sums of line
bundles by the floor formula over one walk of the character lattice's
cosets, with an independent projection-formula dimension oracle."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, groupby, product, repeat
from operator import floordiv

from .divisors import _coefficients, _h0_class, class_group
from .endos import ToricEndomorphism, compose, degree, pullback_matrix
from .lattice import _axis, as_ints, walk_cosets


@dataclass(frozen=True)
class Decomposition:
    """f_* O(D) = direct sum of O(lambda) over the summand classes lambda.

    One class per coset of the character lattice, sorted lexicographically so
    the output is deterministic; equal classes are one shared tuple.  The
    cosets and witness divisors behind them are listed by coset_table.
    """

    summands: tuple[tuple[int, ...], ...]


def _walk(endo: ToricEndomorphism, coeffs):
    """(Pic, walk, mults) for f_* O(D): one summand O(witness_u) per coset u
    of Z^n / F^T Z^n, with w_rho = floor((a_rho + <u, v_rho>) / c_rho) at
    the ray pi(rho).  The walk_cosets walk leads each coset with those
    numerators, in the order of the rays pi(rho); mults holds the c_rho."""
    coeffs = _coefficients(endo.fan, coeffs)
    forms = [(endo.fan.rays[rho], coeffs[rho]) for rho in endo.pi_inverse]
    return (class_group(endo.fan),
            walk_cosets(endo.matrix.transpose(), forms),
            [endo.mults[rho] for rho in endo.pi_inverse])


def decompose_pushforward(endo: ToricEndomorphism, coeffs) -> Decomposition:
    """Generalized Thomsen floor formula over cosets of the character lattice
    (see _walk), counted run by run along each line of the coset box.

    Along a line, u = u0 + j du for j in range(d), so w_rho changes only
    where b + j s (b = a_rho + <u0, v_rho>, s = <du, v_rho>) crosses a
    multiple of c = c_rho: after the value w, next at
    j = ceil(((w + 1) c - b) / s) for s > 0, at j = ceil((w c - 1 - b) / s)
    for s < 0, and never for s = 0.  Between the merged breakpoints of all
    rays the witness is constant, so a line costs O(rays + breakpoints),
    not O(d * rays), and each run adds its length to its witness's count.
    The summands are one shared tuple per class, repeated by its count.
    """
    pic, (starts, step, d), mults = _walk(endo, coeffs)
    # (k, s, c, e, g): the value w ends at j = -((b + e - (w + g) c) // s)
    moving = [(k, s, mults[k]) + ((0, 1) if s > 0 else (1, 0))
              for k, s in enumerate(step[:len(mults)]) if s]
    by_witness = {}
    for start in starts:
        # floor, as mults are > 0; map stops where u begins
        witness = list(map(floordiv, start, mults))
        # each moving ray's next breakpoint, then the end of the line
        jumps = [-((start[k] + e - (witness[k] + g) * c) // s)
                 for k, s, c, e, g in moving]
        jumps.append(d)
        j = 0
        while True:
            nxt = min(jumps)
            key = tuple(witness)
            by_witness[key] = by_witness.get(key, 0) + nxt - j
            if nxt == d:
                break
            for i, (k, s, c, e, g) in enumerate(moving):
                if jumps[i] == nxt:
                    b = start[k]
                    witness[k] = w = (b + nxt * s) // c
                    jumps[i] = -((b + e - (w + g) * c) // s)
            j = nxt
    counts = {}
    for witness, length in by_witness.items():
        cls = pic.class_of(witness)
        counts[cls] = counts.get(cls, 0) + length
    return Decomposition(summands=tuple(chain.from_iterable(
        repeat(cls, counts[cls]) for cls in sorted(counts))))


def coset_table(endo: ToricEndomorphism, coeffs):
    """Every coset's row (class, witness divisor, coset u) of f_* O(D),
    sorted by class, then witness, then coset: the listing behind
    decompose_pushforward, whose summands are its class column.  A walked
    coset's witness is the floors of its leading coordinates, and u is the
    rest."""
    pic, walk, mults = _walk(endo, coeffs)
    rows = [(tuple(map(floordiv, vec, mults)), vec[len(mults):])
            for vec in _axis(*walk)]
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


def _twist_sums(endo: ToricEndomorphism, coeffs, distinct, count, box: int):
    """The projection formula twist by twist: yield (E, h0(D + f*E),
    sum_lambda distinct[lambda] * count(lambda + E)) for every class E in
    the Pic-coordinate box [-box, box]^rank, where D has ray coefficients
    coeffs and the Counter distinct holds the summand classes lambda.  The
    box must be an int >= 0, so that at least the zero twist is checked."""
    (box,) = as_ints((box,))
    if box < 0:
        raise ValueError("twist box must be >= 0")
    fan = endo.fan
    pic = class_group(fan)
    d_class = pic.class_of(coeffs)
    pb = pullback_matrix(endo, pic)
    for twist in product(range(-box, box + 1), repeat=pic.rank):
        lhs = _h0_class(fan, tuple(a + b for a, b in
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
    distinct = Counter(dec.summands)  # mul:q: q^n summands, few classes
    for lam in distinct:  # ints, before any cache is read
        as_ints(lam)
    report = VerificationReport(passed=True, checks=0)

    d = degree(endo)
    report.check(len(dec.summands) == d, "rank %d does not equal degree %d",
                 len(dec.summands), d)
    for twist, lhs, rhs in _twist_sums(endo, coeffs, distinct,
                                       partial(_h0_class, fan), box):
        report.check(lhs == rhs,
                     "twist %s: h0(D + f*E) = %d but summands give %d",
                     twist, lhs, rhs)

    zero = pic.zero()
    if pic.class_of(coeffs) == zero:
        report.check(distinct[zero] == 1,
                     "trivial summand count %d (expected exactly 1)",
                     distinct[zero])
        # one h0 per run of equal classes (sorted summands: one run per
        # class), checked and reported once per summand
        for lam, run in groupby(dec.summands):
            if lam != zero:
                report.check(_h0_class(fan, lam) == 0,
                             "non-trivial summand %s has h0 > 0", lam,
                             times=len(list(run)))
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
    direct = Counter(decompose_pushforward(iterate, coeffs).summands)

    # mul:q gives q^n summands but few classes: push each class once
    stepped = Counter([pic.class_of(coeffs)])
    for _ in range(k):
        pushed = Counter()
        for cls, mult in stepped.items():
            for lam in decompose_pushforward(endo, pic.lift(cls)).summands:
                pushed[lam] += mult
        stepped = pushed

    report = VerificationReport(passed=direct == stepped, checks=1)
    if not report.passed:
        report.violations.append(
            "multiset mismatch: direct %s vs stepped %s"
            % (sorted(direct.elements()), sorted(stepped.elements())))
    return report
