"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

All identities are exact integer equalities; there are no tolerances anywhere.
Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import contextlib
import hashlib
import importlib.util
import io
from itertools import product
from pathlib import Path

import pytest

from conftest import corpus_fans, corpus_pairs, sample_divisors, swap_endo
from toricpush import (IntMatrix, class_group, contracting_exponent,
                       cox_ring, decompose_pushforward, degree,
                       graded_dimension, h0, h0_class, induced_cox_endo,
                       is_int_amplified, iterate_coherence, module_shifts,
                       multiplication_endo, pic_coset_decomposition,
                       positivity, Positivity, pullback_matrix,
                       rank_bookkeeping, verify_decomposition)

FANS = corpus_fans()
PAIRS = corpus_pairs()

# md5 of the survey that scripts/run_corpus.py prints at box 2; a change
# that is only meant to be faster must leave these bytes alone
CORPUS_MD5 = "6c7f04fd3b23f89f72cd039f69fc9f91"


def report(criterion, ok, detail=""):
    line = "ACCEPTANCE %-38s %s" % (criterion + ":", "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)
    assert ok, criterion


def test_criterion_1_decomposition_correctness():
    """verify_decomposition passes exactly (rank = degree, all projection
    formula identities, box 2) over the full corpus and divisor box [-2,2]."""
    failures = []
    checked = 0
    for label, fan, endo in PAIRS:
        for coeffs in sample_divisors(fan):
            dec = decompose_pushforward(endo, coeffs)
            rep = verify_decomposition(endo, coeffs, dec, box=2)
            checked += rep.checks
            if not rep.passed:
                failures.append((label, coeffs, rep.violations))
    report("1 decomposition correctness", not failures,
           "%d exact checks" % checked)


def test_criterion_2_golden_decompositions():
    """Frozen fixtures, each pre-verified by the dimension oracle."""

    def classes(fan, endo, coeffs):
        return sorted(decompose_pushforward(endo, coeffs).summands)

    p1, p2, pp = FANS["P1"], FANS["P2"], FANS["P1xP1"]
    # generators: the class of the first ray divisor on P1/P2, and of the
    # second-factor fiber on P1xP1 (h0 of k*g is k+1 on P1, so g is O(1))
    g1 = class_group(p1).class_of((1, 0))
    g2 = class_group(p2).class_of((1, 0, 0))
    gf = class_group(pp).class_of((0, 0, 1, 0))
    neg = lambda v: tuple(-x for x in v)
    zero = lambda fan: class_group(fan).zero()
    ok = (classes(p1, multiplication_endo(p1, 2), (0, 0))
          == sorted([zero(p1), neg(g1)])
          and classes(p1, multiplication_endo(p1, 2), (1, 0))
          == [zero(p1), zero(p1)]
          and classes(p2, multiplication_endo(p2, 2), (1, 0, 0))
          == sorted([zero(p2), zero(p2), zero(p2), neg(g2)])
          and classes(pp, swap_endo(pp), (0, 0, 0, 0))
          == sorted([zero(pp), neg(gf)]))
    report("2 golden decompositions", ok)


def test_criterion_3_iteration_coherence():
    """decompose(f^2, D) = multiset union of decompose(f, summands of
    decompose(f, D)), exactly, for P1 and P2 with mul:2."""
    ok = True
    for name in ("P1", "P2"):
        fan = FANS[name]
        endo = multiplication_endo(fan, 2)
        for coeffs in sample_divisors(fan, limit=40, seed=3):
            if not iterate_coherence(endo, coeffs).passed:
                ok = False
    report("3 iteration coherence", ok)


def test_criterion_4_trivial_summand_law():
    """decompose(f, O) has exactly one trivial summand; the others have no
    global sections."""
    ok = True
    for label, fan, endo in PAIRS:
        zero = class_group(fan).zero()
        dec = decompose_pushforward(endo, (0,) * fan.nrays)
        trivial = sum(1 for s in dec.summands if s == zero)
        if trivial != 1:
            ok = False
        if any(h0_class(fan, s) != 0 for s in dec.summands if s != zero):
            ok = False
    report("4 trivial-summand law", ok)


def test_criterion_5_int_amplified_decisions():
    ok = True
    for name, fan in FANS.items():
        pic = class_group(fan)
        for q in (1, 2, 3):
            yes, cert = is_int_amplified(multiplication_endo(fan, q), pic)
            if yes != (q >= 2):
                ok = False
            if yes and positivity(fan, pic.lift(cert)) is not Positivity.AMPLE:
                ok = False
    pp = FANS["P1xP1"]
    pic = class_group(pp)
    swap = swap_endo(pp)
    yes, cert = is_int_amplified(swap, pic)
    if not yes:
        ok = False
    else:
        pb = pullback_matrix(swap, pic)
        diff = tuple(a - b for a, b in zip(pb.mul_vector(cert), cert))
        if (positivity(pp, pic.lift(cert)) is not Positivity.AMPLE
                or positivity(pp, pic.lift(diff)) is not Positivity.AMPLE):
            ok = False
    for label, fan, endo in PAIRS:
        pic = class_group(fan)
        # an int-amplified f* has no eigenvalue 1: det(f* - id) on Pic is not 0
        pb = pullback_matrix(endo, pic).entries
        eigenvalue_one = IntMatrix.from_rows(
            [[x - (i == j) for j, x in enumerate(row)]
             for i, row in enumerate(pb)]).det() == 0
        if is_int_amplified(endo, pic)[0] and eigenvalue_one:
            ok = False
    report("5 int-amplified decisions", ok)


def test_criterion_6_cox_ring_bridge():
    """module_shifts agrees with the decomposition's multiplicities and the
    graded-dimension identity holds on the box, on the full corpus."""
    ok = True
    for label, fan, endo in PAIRS:
        first_ray = tuple(1 if i == 0 else 0 for i in range(fan.nrays))
        mixed = tuple((-1) ** i * (i % 3) for i in range(fan.nrays))
        for coeffs in ((0,) * fan.nrays, first_ray, mixed):
            shifts = module_shifts(endo, coeffs, box=2)  # raises on mismatch
            dec = decompose_pushforward(endo, coeffs)
            if shifts != dec.multiplicities:
                ok = False
    report("6 Cox-ring bridge", ok)


def test_criterion_7_contracting_criterion():
    ok = True
    for name, fan in FANS.items():
        ring = cox_ring(fan)
        for q in (2, 3):
            phi = induced_cox_endo(multiplication_endo(fan, q), ring)
            if contracting_exponent(phi) != 1:
                ok = False
        ident = induced_cox_endo(multiplication_endo(fan, 1), ring)
        if contracting_exponent(ident) is not None:
            ok = False
    pp = FANS["P1xP1"]
    if contracting_exponent(induced_cox_endo(swap_endo(pp), cox_ring(pp))) != 2:
        ok = False
    for label, fan, endo in PAIRS:
        pic = class_group(fan)
        if is_int_amplified(endo, pic)[0]:
            e = contracting_exponent(induced_cox_endo(endo, cox_ring(fan)))
            if e is None or e > fan.nrays:
                ok = False
    report("7 contracting criterion", ok)


def test_criterion_8_rank_bookkeeping():
    ok = True
    for label, fan, endo in PAIRS + [
            ("P1xP1/identity", FANS["P1xP1"], multiplication_endo(FANS["P1xP1"], 1))]:
        numbers = rank_bookkeeping(endo, cox_ring(fan), class_group(fan))
        prod_c = numbers["product_of_multiplicities"]
        if prod_c != degree(endo) * len(pic_coset_decomposition(
                endo, class_group(fan))):
            ok = False
    report("8 rank bookkeeping", ok)


def test_criterion_9_dual_counting():
    ok = True
    for name in ("P2", "P1xP1", "F1"):
        fan = FANS[name]
        ring = cox_ring(fan)
        pic = class_group(fan)
        for cls in product(range(-3, 4), repeat=pic.rank):
            if graded_dimension(ring, cls) != h0(fan, pic.lift(cls)):
                ok = False
    report("9 dual counting", ok)


def test_corpus_survey_bytes():
    """scripts/run_corpus.py at box 2 prints exactly the frozen survey:
    every degree, verdict, certificate, exponent and decomposition."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_corpus.py"
    spec = importlib.util.spec_from_file_location("run_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        module.survey(2)
    digest = hashlib.md5(out.getvalue().encode("utf-8")).hexdigest()
    report("corpus survey byte-identical", digest == CORPUS_MD5, digest)
