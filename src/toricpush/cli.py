"""Command-line interface; the only module that performs I/O."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import cox, divisors, endos, pushforward
from .errors import InputError, ToricError, VerificationError
from .fans import validate_fan
from .io import parse_endo, parse_fan
from .lattice import IntMatrix

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc


def _load_fan(path: str):
    doc = parse_fan(_read(path))
    try:
        return validate_fan(doc.dim, doc.rays, doc.cones, name=doc.name)
    except ToricError as exc:
        raise InputError(str(exc)) from exc


def _load_endo(fan, spec: str):
    if spec.startswith("mul:"):
        try:
            q = int(spec[4:])
        except ValueError:
            raise InputError("bad multiplication shorthand %r" % spec) from None
        return endos.multiplication_endo(fan, q)
    doc = parse_endo(_read(spec))
    if len(doc.matrix) != fan.dim:
        raise InputError("endomorphism matrix is %dx%d but fan has dim %d"
                         % (len(doc.matrix), len(doc.matrix), fan.dim))
    try:
        return endos.build_endo(fan, IntMatrix.from_rows(doc.matrix))
    except ToricError as exc:
        raise InputError(str(exc)) from exc


def _parse_ints(text: str, what: str, expected: int):
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError("%s must be comma-separated integers" % what) from None
    if len(values) != expected:
        raise InputError("%s needs %d entries, got %d"
                         % (what, expected, len(values)))
    return values


def _box(args) -> int:
    if args.box < 0:
        raise InputError("--box must be >= 0, got %d" % args.box)
    return args.box


def _emit(args, human: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def cmd_validate(args) -> int:
    fan, report = _load_fan(args.fan)
    words = [("smooth" if report.smooth else "not smooth"),
             ("complete" if report.complete else "not complete")]
    _emit(args, " ".join(words),
          {"smooth": report.smooth, "complete": report.complete,
           "projective": report.projective, "rays": [list(r) for r in fan.rays]})
    return EXIT_OK


def cmd_h0(args) -> int:
    fan, _ = _load_fan(args.fan)
    d = _parse_ints(args.divisor, "--divisor", fan.nrays)
    value = divisors.h0(fan, d)
    _emit(args, str(value), {"h0": value})
    return EXIT_OK


def cmd_positivity(args) -> int:
    fan, _ = _load_fan(args.fan)
    d = _parse_ints(args.divisor, "--divisor", fan.nrays)
    verdict = divisors.positivity(fan, d).value
    _emit(args, verdict, {"positivity": verdict})
    return EXIT_OK


def cmd_endo_check(args) -> int:
    fan, _ = _load_fan(args.fan)
    endo = _load_endo(fan, args.endo)
    pic = divisors.class_group(fan)
    pb = endos.pullback_matrix(endo, pic)
    human = ("degree %d; pi=%s; mults=%s; pullback=%s"
             % (endos.degree(endo), list(endo.pi), list(endo.mults),
                [list(r) for r in pb.entries]))
    _emit(args, human,
          {"degree": endos.degree(endo), "pi": list(endo.pi),
           "mults": list(endo.mults),
           "pullback_matrix": [list(r) for r in pb.entries]})
    return EXIT_OK


def cmd_intamp(args) -> int:
    fan, _ = _load_fan(args.fan)
    endo = _load_endo(fan, args.endo)
    pic = divisors.class_group(fan)
    yes, cert = endos.is_int_amplified(endo, pic)
    if yes:
        _emit(args, "yes, certificate H=(%s)" % ",".join(str(c) for c in cert),
              {"int_amplified": True, "certificate": list(cert)})
    else:
        _emit(args, "no", {"int_amplified": False, "certificate": None})
    return EXIT_OK


def _decomposition_payload(dec):
    return {"summands": [list(s) for s in dec.summands],
            "witness_divisors": [list(w) for w in dec.witness_divisors],
            "cosets": [list(u) for u in dec.cosets]}


def _decomposition_table(dec) -> str:
    lines = ["coset           class           witness"]
    for u, s, w in zip(dec.cosets, dec.summands, dec.witness_divisors):
        lines.append("%-15s %-15s %s"
                     % (",".join(map(str, u)), ",".join(map(str, s)),
                        ",".join(map(str, w))))
    return "\n".join(lines)


def cmd_pushforward(args) -> int:
    fan, _ = _load_fan(args.fan)
    endo = _load_endo(fan, args.endo)
    d = _parse_ints(args.divisor, "--divisor", fan.nrays)
    dec = pushforward.decompose_pushforward(endo, d)
    _emit(args, _decomposition_table(dec), _decomposition_payload(dec))
    return EXIT_OK


def cmd_verify(args) -> int:
    fan, _ = _load_fan(args.fan)
    endo = _load_endo(fan, args.endo)
    d = _parse_ints(args.divisor, "--divisor", fan.nrays)
    dec = pushforward.decompose_pushforward(endo, d)
    report = pushforward.verify_decomposition(endo, d, dec, box=_box(args))
    payload = dict(_decomposition_payload(dec),
                   passed=report.passed, checks=report.checks,
                   violations=report.violations)
    if report.passed:
        _emit(args, "pass (%d checks)" % report.checks, payload)
        return EXIT_OK
    _emit(args, "FAIL\n" + "\n".join(report.violations), payload)
    return EXIT_VERIFICATION


def cmd_cox_shifts(args) -> int:
    fan, _ = _load_fan(args.fan)
    endo = _load_endo(fan, args.endo)
    d = _parse_ints(args.divisor, "--divisor", fan.nrays)
    shifts = cox.module_shifts(endo, d, box=_box(args))
    human = "\n".join(",".join(map(str, s)) for s in shifts.shifts)
    _emit(args, human, {"shifts": [list(s) for s in shifts.shifts]})
    return EXIT_OK


def cmd_contracting(args) -> int:
    fan, _ = _load_fan(args.fan)
    endo = _load_endo(fan, args.endo)
    phi = cox.induced_cox_endo(endo, cox.cox_ring(fan))
    e = cox.contracting_exponent(phi)
    _emit(args, "none" if e is None else str(e), {"contracting_exponent": e})
    return EXIT_OK


def cmd_coset_count(args) -> int:
    fan, _ = _load_fan(args.fan)
    endo = _load_endo(fan, args.endo)
    pic = divisors.class_group(fan)
    reps = cox.pic_coset_decomposition(endo, pic)
    human = "%d\n%s" % (len(reps),
                        "\n".join(",".join(map(str, r)) for r in reps))
    _emit(args, human,
          {"count": len(reps), "representatives": [list(r) for r in reps]})
    return EXIT_OK


def cmd_rank_check(args) -> int:
    fan, _ = _load_fan(args.fan)
    endo = _load_endo(fan, args.endo)
    pic = divisors.class_group(fan)
    ring = cox.cox_ring(fan)
    numbers = cox.rank_bookkeeping(endo, ring, pic)
    _emit(args, "%(product_of_multiplicities)d = %(degree)d x %(pic_index)d"
          % numbers, numbers)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricpush",
        description="Pushforward decompositions of line bundles under finite "
                    "toric endomorphisms, with exact verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, endo=False, divisor=False, box=False):
        p = sub.add_parser(name)
        p.add_argument("fan", help="path to a .fan.json file")
        if endo:
            p.add_argument("--endo", required=True,
                           help="path to a .endo.json file, or mul:q")
        if divisor:
            p.add_argument("--divisor", required=True,
                           help="comma-separated ray coefficients")
        if box:
            p.add_argument("--box", type=int, default=2,
                           help="Pic-coordinate twist box for verification")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(func=func)

    add("validate", cmd_validate)
    add("h0", cmd_h0, divisor=True)
    add("positivity", cmd_positivity, divisor=True)
    add("endo-check", cmd_endo_check, endo=True)
    add("intamp", cmd_intamp, endo=True)
    add("pushforward", cmd_pushforward, endo=True, divisor=True)
    add("verify", cmd_verify, endo=True, divisor=True, box=True)
    add("cox-shifts", cmd_cox_shifts, endo=True, divisor=True, box=True)
    add("contracting", cmd_contracting, endo=True)
    add("coset-count", cmd_coset_count, endo=True)
    add("rank-check", cmd_rank_check, endo=True)
    return parser


def run_command(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return EXIT_VERIFICATION
    except ToricError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
