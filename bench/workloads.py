"""The four benchmark workloads.

Each workload turns a seed into a list of cases.  A case is one unit of
user-visible work: ``run()`` calls into toricpush and returns its output,
``check(output)`` returns "" when the output is right and a reason when it
is not.  Inputs are generated here, from the seed; toricpush sees only the
generated fans, divisors and documents.  Expected values come from closed
formulas or from golden data, never from the code under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent

# md5 of scripts/run_corpus.py output (box 2) at the commit that defined
# this benchmark; bench/corpus_golden.txt holds that text.
CORPUS_MD5 = "6c7f04fd3b23f89f72cd039f69fc9f91"

# Fan files read by the corpus CLI cases: every fan bundled when the
# benchmark was defined.  The list is fixed so that a fan added later does
# not change the workload.
CORPUS_FAN_FILES = ("p1", "p2", "p3", "p1xp1", "hirzebruch1", "hirzebruch2",
                    "hirzebruch3")
SWAP_ENDO_FILE = "swap2.endo.json"

WHY = {
    "corpus": "the paper's survey plus validate/intamp/verify CLI calls on "
              "the bundled fans: many tiny calls, mostly Fraction FM in h0 "
              "bounds and cone-overlap checks",
    "fan-validate": "relabelled mid-size smooth complete fans (and planted "
                    "overlapping ones) through parse_fan + validate_fan: "
                    "almost all time is feasibility FM",
    "sections": "large single h0 and graded_dimension counts on P3, P2, "
                "P1xP1 and F_a: box-then-filter enumeration, FM about 1%",
    "high-degree": "mul:q with large q on P2, P3 and rank-2 fans: coset "
                   "enumeration, the floor formula and h0_class cache hits; "
                   "q^n summand lists",
}


@dataclass
class Case:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str]


@dataclass
class Modules:
    """The freshly imported toricpush modules a workload calls into."""

    tp: Any
    cli: Any
    io: Any
    errors: Any


def _want(cond: bool, reason: str) -> str:
    return "" if cond else reason


# ---------------------------------------------------------------- fan data
# Plain ray/cone data built here, not by toricpush's own builders.

def pn_data(n):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    cones = [tuple(j for j in range(n + 1) if j != i) for i in range(n + 1)]
    return n, rays, cones


def hirzebruch_data(a):
    return 2, [(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3),
                                                   (0, 3)]


def product_data(f, g):
    (df, rf, cf), (dg, rg, cg) = f, g
    rays = [r + (0,) * dg for r in rf] + [(0,) * df + r for r in rg]
    cones = [c1 + tuple(len(rf) + i for i in c2) for c1 in cf for c2 in cg]
    return df + dg, rays, cones


def overlapping_data(fan, rng):
    """A fan with one extra cone that overlaps an existing one improperly.

    For a cone sigma with rays a, b the new ray w = v_a + v_b lies inside
    sigma, so the cone (sigma - {a}) + {w} is full-dimensional inside sigma
    without sharing a face with it.
    """
    dim, rays, cones = fan
    while True:
        sigma = rng.choice(cones)
        a, b = rng.sample(sigma, 2)
        w = tuple(x + y for x, y in zip(rays[a], rays[b]))
        if w not in rays:
            break
    new = tuple(sorted([i for i in sigma if i != a] + [len(rays)]))
    return dim, rays + [w], cones + [new]


def relabelled_document(fan, label_rng, rng, name, apex_at=None):
    """JSON text of the fan after a ray relabelling and cone order drawn from
    ``label_rng`` and a signed permutation of the coordinates (a small
    unimodular map) drawn from ``rng``.

    With ``apex_at`` the ray with the most nonzero coordinates gets that
    index and only the other rays are shuffled.
    """
    dim, rays, cones = fan
    order = list(range(len(rays)))
    label_rng.shuffle(order)
    if apex_at is not None:
        apex = max(range(len(rays)), key=lambda i: (sum(map(bool, rays[i])),
                                                    -i))
        order.remove(apex)
        order.insert(apex_at, apex)
    perm = [0] * len(rays)  # old index -> new index
    for new, old in enumerate(order):
        perm[old] = new
    axes = list(range(dim))
    rng.shuffle(axes)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    new_rays = [None] * len(rays)
    for old, r in enumerate(rays):
        new_rays[perm[old]] = [signs[i] * r[axes[i]] for i in range(dim)]
    new_cones = [[perm[i] for i in c] for c in cones]
    for c in new_cones:
        label_rng.shuffle(c)
    label_rng.shuffle(new_cones)
    return json.dumps({"dim": dim, "rays": new_rays, "cones": new_cones,
                       "name": name})


# ------------------------------------------------------------------ corpus

def _fmt_class(c):
    return "(" + ",".join(map(str, c)) + ")"


def _golden_blocks():
    text = (HERE / "corpus_golden.txt").read_text(encoding="utf-8")
    if hashlib.md5(text.encode()).hexdigest() != CORPUS_MD5:
        raise RuntimeError("bench/corpus_golden.txt does not match its md5")
    return [block + "\n\n" for block in text.split("\n\n") if block]


def _survey_pair(tp, fan, endo_name, make_endo, box=2):
    """One survey block, formatted exactly as scripts/run_corpus.py does."""
    endo = make_endo()
    pic = tp.class_group(fan)
    yes, cert = tp.is_int_amplified(endo, pic)
    phi = tp.induced_cox_endo(endo, tp.cox_ring(fan))
    numbers = tp.rank_bookkeeping(endo, tp.cox_ring(fan), pic)
    out = ["== %s / %s" % (fan.name, endo_name),
           "   degree %d, Pic rank %d, prod(c) = %d = %d x %d"
           % (tp.degree(endo), pic.rank, numbers["product_of_multiplicities"],
              numbers["degree"], numbers["pic_index"]),
           "   int-amplified: %s%s" % ("yes" if yes else "no",
                                       ", H=%s" % _fmt_class(cert) if yes
                                       else ""),
           "   contracting exponent: %s" % tp.contracting_exponent(phi)]
    for label, coeffs in (("O", (0,) * fan.nrays),
                          ("D_0", tuple(int(i == 0)
                                        for i in range(fan.nrays)))):
        dec = tp.decompose_pushforward(endo, coeffs)
        rep = tp.verify_decomposition(endo, coeffs, dec, box=box)
        out.append("   f_* %-4s = %s   [%s, %d checks]"
                   % (label, " + ".join(_fmt_class(s) for s in dec.summands),
                      "verified" if rep.passed else "FAILED", rep.checks))
        out.extend("      !! %s" % v for v in rep.violations)
    return "\n".join(out) + "\n\n"


def _cli_call(m, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = m.cli.run_command(argv)
    return code, buf.getvalue()


def _cli_check(kind, rank=0, degree=0):
    # verify runs on the zero divisor: at least the rank check, every twist
    # of the box-2 twist grid and the trivial-summand law on every summand
    min_checks = 1 + 5 ** rank + degree

    def check(out):
        code, text = out
        if code != 0:
            return "exit code %d" % code
        try:
            data = json.loads(text)
        except ValueError:
            return "stdout is not JSON: %r" % text[:80]
        if kind == "validate":
            return _want(data.get("smooth") is True
                         and data.get("complete") is True,
                         "not reported smooth and complete")
        if kind == "intamp":
            return _want(data.get("int_amplified") is True,
                         "not reported int-amplified")
        if not data.get("passed"):
            return "verification did not pass"
        if data.get("checks", 0) < min_checks:
            return "%s checks, expected at least %d" % (data.get("checks"),
                                                        min_checks)
        return _want(len(data.get("summands", ())) == degree,
                     "wrong number of summands")
    return check


def corpus(m: Modules, root: Path, seed: int):
    """Fixed; the seed is ignored."""
    tp = m.tp
    p1 = tp.projective_space(1)
    fans = [p1, tp.projective_space(2), tp.projective_space(3),
            tp.product_fan(p1, p1, name="P1xP1"),
            tp.hirzebruch(1), tp.hirzebruch(2), tp.hirzebruch(3)]
    pairs = [(fan, "mul:%d" % q,
              lambda fan=fan, q=q: tp.multiplication_endo(fan, q))
             for fan in fans for q in (2, 3)]
    swap = tp.IntMatrix.from_rows([[0, 1], [2, 0]])
    pairs.append((fans[3], "swap",
                  lambda: tp.build_endo(fans[3], swap)))
    golden = _golden_blocks()
    if len(golden) != len(pairs):
        raise RuntimeError("golden survey has %d blocks for %d pairs"
                           % (len(golden), len(pairs)))
    cases = []
    for (fan, name, make), want in zip(pairs, golden):
        cases.append(Case(
            "survey %s / %s" % (fan.name, name),
            lambda fan=fan, name=name, make=make: _survey_pair(tp, fan, name,
                                                               make),
            lambda text, want=want: _want(text == want,
                                          "survey block differs")))

    fan_dir = root / "fans"
    runs = []
    for stem in CORPUS_FAN_FILES:
        path = fan_dir / (stem + ".fan.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        dim, nrays = doc["dim"], len(doc["rays"])
        zero = ",".join("0" * nrays)
        runs.append((["validate", str(path), "--json"],
                     _cli_check("validate")))
        runs.append((["intamp", str(path), "--endo", "mul:2", "--json"],
                     _cli_check("intamp")))
        runs.append((["verify", str(path), "--endo", "mul:2", "--divisor",
                      zero, "--json"],
                     _cli_check("verify", nrays - dim, 2 ** dim)))
        if stem == "p1xp1":
            endo = str(fan_dir / SWAP_ENDO_FILE)  # degree |det| = 2
            runs.append((["intamp", str(path), "--endo", endo, "--json"],
                         _cli_check("intamp")))
            runs.append((["verify", str(path), "--endo", endo, "--divisor",
                          zero, "--json"],
                         _cli_check("verify", 2, 2)))
    for argv, check in runs:
        label = "cli %s %s %s" % (argv[0], Path(argv[1]).name, argv[3]
                                  if len(argv) > 3 else "")
        cases.append(Case(label.rstrip(),
                          lambda argv=argv: _cli_call(m, argv), check))
    return cases


# ------------------------------------------------------------ fan-validate

# (name, fan data, copies per pass).  FM work depends on the ray order: for
# P4 it grows about 7x as the ray -e1-...-e4 moves from the first index to
# the last, so seeded relabellings would change a pass's work from seed to
# seed by more than the bounds allow.  The relabellings are therefore a
# fixed design: copy k of a fan puts its densest ray at the k-th of evenly
# spaced indices (stratified over that position) and orders the other rays
# and the cones (the order of the variables in each overlap check) by a
# fixed generator.  The seed draws the signed coordinate permutation and the
# planted overlaps, which move the work little.  The copy counts put the
# median case inside the block of seven F2xP1 documents and the tail case
# (third largest per pass) on P1^4, whose cost hardly depends on the labels.
VALID_FANS = (
    ("P4", lambda: pn_data(4), 5),
    ("P3xP1", lambda: product_data(pn_data(3), pn_data(1)), 3),
    ("P2xP2", lambda: product_data(pn_data(2), pn_data(2)), 2),
    ("F2xP1", lambda: product_data(hirzebruch_data(2), pn_data(1)), 7),
    ("P1^4", lambda: product_data(product_data(pn_data(1), pn_data(1)),
                                  product_data(pn_data(1), pn_data(1))), 2),
    ("F1xF2", lambda: product_data(hirzebruch_data(1), hirzebruch_data(2)),
     1),
)
# Planted invalid fans are 3-dimensional, so that where the overlapping pair
# falls in the pair order (which the seed decides) moves little time.
INVALID_FANS = (
    ("P3+overlap", lambda: pn_data(3)),
    ("P2xP1+overlap", lambda: product_data(pn_data(2), pn_data(1))),
    ("F1xP1+overlap", lambda: product_data(hirzebruch_data(1), pn_data(1))),
)


def _validate_doc(m, text):
    doc = m.io.parse_fan(text)
    try:
        fan, report = m.tp.validate_fan(doc.dim, doc.rays, doc.cones,
                                        name=doc.name)
    except m.errors.FanError:
        return None
    return fan, report


def fan_validate(m: Modules, root: Path, seed: int):
    rng = random.Random(seed)
    cases = []
    for name, build, copies in VALID_FANS:
        fan = build()
        for copy in range(copies):
            apex_at = (len(fan[1]) - 1) * copy // max(copies - 1, 1)
            labels = random.Random("%s #%d" % (name, copy))
            text = relabelled_document(fan, labels, rng, name, apex_at)
            rays = tuple(tuple(r) for r in json.loads(text)["rays"])

            def check(out, rays=rays):
                if out is None:
                    return "valid fan rejected"
                fan, report = out
                if fan.rays != rays:
                    return "rays changed"
                return _want(report.smooth and report.complete,
                             "not reported smooth and complete")
            cases.append(Case("valid %s #%d" % (name, copy),
                              lambda text=text: _validate_doc(m, text),
                              check))
    for name, build in INVALID_FANS:
        text = relabelled_document(overlapping_data(build(), rng), rng, rng,
                                   name)
        cases.append(Case("invalid %s" % name,
                          lambda text=text: _validate_doc(m, text),
                          lambda out: _want(out is None,
                                            "overlapping fan accepted")))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------- sections

def _lift(fan, coeffs, m):
    """D + div(chi^m): a linearly equivalent divisor."""
    return tuple(a + sum(x * v for x, v in zip(m, ray))
                 for a, ray in zip(coeffs, fan.rays))


def sections(m: Modules, root: Path, seed: int):
    tp = m.tp
    rng = random.Random(seed)
    p1, p2, p3 = (tp.projective_space(n) for n in (1, 2, 3))
    p1p1 = tp.product_fan(p1, p1, name="P1xP1")  # rays e1, -e1, e2, -e2
    classes = []
    for d in (10, 20, 30, 40):
        classes.append((p3, "P3 %dH" % d, (0, 0, 0, d), math.comb(d + 3, 3)))
    for d in (50, 100, 150, 200):
        classes.append((p2, "P2 %dH" % d, (0, 0, d), math.comb(d + 2, 2)))
    for a, b in ((60, 40), (100, 100), (150, 50)):
        classes.append((p1p1, "P1xP1 (%d,%d)" % (a, b), (0, a, 0, b),
                        (a + 1) * (b + 1)))
    for a in (1, 2, 3):
        fan = tp.hirzebruch(a)  # rays e1, e2, -e1 + a e2, -e2
        c, b = 60, 40
        # m1 >= 0, 0 <= m2 <= b, m1 <= c + a m2
        count = sum(c + a * j + 1 for j in range(b + 1))
        classes.append((fan, "F%d (%d,%d)" % (a, c, b), (0, 0, c, b), count))
    cases = []
    for fan, name, coeffs, count in classes:
        for i in range(2):
            lift = _lift(fan, coeffs, [rng.randint(-4, 4)
                                       for _ in range(fan.dim)])
            want = (lambda out, count=count:
                    _want(out == count, "count %s, expected %d"
                          % (out, count)))
            cases.append(Case("h0 %s lift %d" % (name, i),
                              lambda fan=fan, lift=lift: tp.h0(fan, lift),
                              want))
            cases.append(Case(
                "graded_dimension %s lift %d" % (name, i),
                lambda fan=fan, lift=lift: tp.graded_dimension(
                    tp.cox_ring(fan), tp.class_group(fan).class_of(lift)),
                want))
    return cases


# ------------------------------------------------------------- high-degree

@lru_cache(maxsize=None)
def pn_pushforward_degrees(n, q, d):
    """Multiset of H-degrees of f_* O(dH) on P^n under mul:q.

    Over u in [0, q)^n the summand has degree floor((d - sum(u)) / q); for
    d = 0 that is -k with k = ceil(sum(u) / q).
    """
    sums = Counter({0: 1})
    for _ in range(n):
        nxt = Counter()
        for s, c in sums.items():
            for u in range(q):
                nxt[s + u] += c
        sums = nxt
    out = Counter()
    for s, c in sums.items():
        out[(d - s) // q] += c
    return out


def _pushforward_case(tp, fan, q, coeffs):
    endo = tp.multiplication_endo(fan, q)
    dec = tp.decompose_pushforward(endo, coeffs)
    rep = tp.verify_decomposition(endo, coeffs, dec, box=2)
    pic = tp.class_group(fan)
    numbers = tp.rank_bookkeeping(endo, tp.cox_ring(fan), pic)
    cosets = tp.pic_coset_decomposition(endo, pic)
    unit = pic.class_of((1,) + (0,) * (fan.nrays - 1))
    return dec, rep, numbers, len(cosets), unit


def _pushforward_check(fan, q, coeffs, base, projective):
    n, rank = fan.dim, fan.nrays - fan.dim
    trivial = not any(base)

    def check(out):
        dec, rep, numbers, ncosets, unit = out
        if len(dec.summands) != q ** n:
            return "%d summands, expected %d" % (len(dec.summands), q ** n)
        if not rep.passed:
            return "verification failed"
        min_checks = 1 + 5 ** rank + (q ** n if trivial else 0)
        if rep.checks < min_checks:
            return "%d checks, expected at least %d" % (rep.checks,
                                                        min_checks)
        want = {"product_of_multiplicities": q ** fan.nrays,
                "degree": q ** n, "pic_index": q ** rank}
        if numbers != want:
            return "rank bookkeeping %s, expected %s" % (numbers, want)
        if ncosets != q ** rank:
            return "%d Pic cosets, expected %d" % (ncosets, q ** rank)
        if projective:
            # Pic(P^n) = Z; every ray divisor has the class of H = unit
            got = Counter(s[0] * unit[0] for s in dec.summands)
            if got != pn_pushforward_degrees(n, q, sum(base)):
                return "summand degrees differ from the closed formula"
        return ""
    return check


def high_degree(m: Modules, root: Path, seed: int):
    """Divisors are seeded lifts D + div(chi^m) of the fixed classes O and
    D_0 + D_1, so the seed changes the divisors but not the work."""
    tp = m.tp
    rng = random.Random(seed)
    p1 = tp.projective_space(1)
    fans = {"P2": tp.projective_space(2), "P3": tp.projective_space(3),
            "P1xP1": tp.product_fan(p1, p1, name="P1xP1"),
            "F1": tp.hirzebruch(1)}

    def seeded_lifts(fan):
        zero = (0,) * fan.nrays
        return [(base, _lift(fan, base, [rng.randint(-3, 3)
                                         for _ in range(fan.dim)]))
                for base in (zero, (1, 1) + zero[2:])]

    plan = (("P2", (10, 20, 30, 40)), ("P3", (5, 10, 15)),
            ("P1xP1", (10, 20, 30)), ("F1", (10, 20)))
    cases = []
    for name, qs in plan:
        fan = fans[name]
        for q in qs:
            for base, coeffs in seeded_lifts(fan):
                cases.append(Case(
                    "pushforward %s mul:%d D=%s" % (name, q, coeffs),
                    lambda fan=fan, q=q, coeffs=coeffs:
                        _pushforward_case(tp, fan, q, coeffs),
                    _pushforward_check(fan, q, coeffs, base,
                                       name in ("P2", "P3"))))
    coherence = (("P2", (4, 6, 8)), ("P3", (2, 3)), ("P1xP1", (4, 6)),
                 ("F1", (4, 5)))
    for name, qs in coherence:
        fan = fans[name]
        for q in qs:
            coeffs = seeded_lifts(fan)[1][1]
            cases.append(Case(
                "coherence %s mul:%d D=%s" % (name, q, coeffs),
                lambda fan=fan, q=q, coeffs=coeffs: tp.iterate_coherence(
                    tp.multiplication_endo(fan, q), coeffs, 2),
                lambda rep: _want(rep.passed, "iterate coherence failed")))
    return cases


WORKLOADS = {
    "corpus": corpus,
    "fan-validate": fan_validate,
    "sections": sections,
    "high-degree": high_degree,
}
