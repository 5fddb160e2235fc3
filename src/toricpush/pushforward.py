"""Decomposition of pushforwards of line bundles into direct sums of line
bundles, with an independent projection-formula dimension oracle."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, groupby, product, repeat
from operator import add, floordiv

from .divisors import _coefficients, _h0_class, class_group
from .endos import ToricEndomorphism, compose, degree, pullback_matrix
from .lattice import as_ints, walk_cosets


@dataclass(frozen=True)
class Decomposition:
    """f_* O(D) = direct sum of O(lambda) over the summand classes lambda.

    One class per coset of the character lattice, sorted lexicographically so
    the output is deterministic; equal classes are one shared tuple.  The
    cosets and witness divisors behind them are listed by coset_table.
    """

    summands: tuple[tuple[int, ...], ...]


def _runs(endo: ToricEndomorphism, coeffs):
    """The floor formula run by run along each line of the coset box.

    For the walk_cosets cosets u of Z^n / F^T Z^n, the summand witness has
    coefficient w_rho = floor((a_rho + <u, v_rho>) / c_rho) at the ray
    pi(rho).  Along a line, u = u0 + j du for j in range(d), so w_rho
    changes only where b + j s (b = a_rho + <u0, v_rho>, s = <du, v_rho>)
    crosses a multiple of c = c_rho: after the value w, next at
    j = ceil(((w + 1) c - b) / s) for s > 0, at j = ceil((w c - 1 - b) / s)
    for s < 0, and never for s = 0.  Merging those breakpoints over the
    rays, the walk yields (witness, u0, du, j, length) for each stretch of
    equal witnesses: the cosets u0 + i du for i in range(j, j + length), in
    walk order.  A line costs O(rays + breakpoints), not O(d * rays).
    """
    fan = endo.fan
    forms = [(fan.rays[rho], coeffs[rho]) for rho in endo.pi_inverse]
    mults = [endo.mults[rho] for rho in endo.pi_inverse]
    nrays = len(mults)
    starts, step, d = walk_cosets(endo.matrix.transpose(), forms)
    # (k, s, c, e, g): the value w ends at j = -((b + e - (w + g) c) // s)
    moving = [(k, s, mults[k]) + ((0, 1) if s > 0 else (1, 0))
              for k, s in enumerate(step[:nrays]) if s]
    du = step[nrays:]
    for start in starts:
        u0 = start[nrays:]
        # map stops where u begins; floor, as mults are > 0
        witness = list(map(floordiv, start, mults))
        # each moving ray's next breakpoint, then the end of the line
        jumps = [-((start[k] + e - (witness[k] + g) * c) // s)
                 for k, s, c, e, g in moving]
        jumps.append(d)
        j = 0
        while True:
            nxt = min(jumps)
            yield tuple(witness), u0, du, j, nxt - j
            if nxt == d:
                break
            for i, (k, s, c, e, g) in enumerate(moving):
                if jumps[i] == nxt:
                    b = start[k]
                    witness[k] = w = (b + nxt * s) // c
                    jumps[i] = -((b + e - (w + g) * c) // s)
            j = nxt


def decompose_pushforward(endo: ToricEndomorphism, coeffs) -> Decomposition:
    """Generalized Thomsen floor formula over cosets of the character lattice.

    f_* O(D) has one summand O(witness_u) per coset u of Z^n / F^T Z^n
    (witnesses as in _runs).  The witness, hence its class, is constant on
    each run between floor breakpoints along a line of the coset box, so
    summands are counted by run lengths, never coset by coset: one count per
    distinct witness, one class per distinct witness, and the summands are
    one shared tuple per class, repeated by its count.
    """
    coeffs = _coefficients(endo.fan, coeffs)
    pic = class_group(endo.fan)
    by_witness = {}
    for witness, _, _, _, length in _runs(endo, coeffs):
        by_witness[witness] = by_witness.get(witness, 0) + length
    counts = {}
    for witness, length in by_witness.items():
        cls = pic.class_of(witness)
        counts[cls] = counts.get(cls, 0) + length
    return Decomposition(summands=tuple(chain.from_iterable(
        repeat(cls, counts[cls]) for cls in sorted(counts))))


def coset_table(endo: ToricEndomorphism, coeffs):
    """Every coset's row (class, witness divisor, coset u) of f_* O(D),
    sorted by class, then witness, then coset: the listing behind
    decompose_pushforward, whose summands are its class column."""
    coeffs = _coefficients(endo.fan, coeffs)
    pic = class_group(endo.fan)
    table = []
    for witness, u0, du, j, length in _runs(endo, coeffs):
        cls = pic.class_of(witness)
        u = tuple([a + j * b for a, b in zip(u0, du)])
        for _ in range(length):
            table.append((cls, witness, u))
            u = tuple(map(add, u, du))
    table.sort()
    return table


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
    box must be >= 0, so that at least the zero twist is checked."""
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
