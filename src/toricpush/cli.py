"""Command-line interface; the only module that performs I/O."""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
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


def _load_endo(fan, spec: str):
    if spec.startswith("mul:"):
        try:
            q = int(spec[4:])
        except ValueError:
            raise InputError("bad multiplication shorthand %r" % spec) from None
        return endos.multiplication_endo(fan, q)
    doc = parse_endo(_read(spec))
    return endos.build_endo(fan, IntMatrix.from_rows(doc.matrix))


def _load(args, inputs) -> argparse.Namespace:
    """Read the fan and each of the subcommand's other inputs, once each.
    Only validate answers on a fan that is not complete: the paper's
    statements are about projective, hence complete, varieties."""
    doc = parse_fan(_read(args.fan))
    fan, report = validate_fan(doc.dim, doc.rays, doc.cones, name=doc.name)
    if not report.complete and args.command != "validate":
        raise InputError("%s needs a complete fan" % args.command)
    loaded = argparse.Namespace(fan=fan, report=report)
    if "endo" in inputs:
        loaded.endo = _load_endo(fan, args.endo)
    if "divisor" in inputs:
        try:
            loaded.divisor = tuple(int(x) for x in args.divisor.split(","))
        except ValueError:
            raise InputError("--divisor must be comma-separated "
                             "integers") from None
        if len(loaded.divisor) != fan.nrays:
            raise InputError("--divisor needs %d entries, got %d"
                             % (fan.nrays, len(loaded.divisor)))
    if "box" in inputs:
        if args.box < 0:
            raise InputError("--box must be >= 0, got %d" % args.box)
        loaded.box = args.box
    return loaded


# Each command maps the loaded inputs x to (human text, JSON payload), plus
# an exit code where it can differ from EXIT_OK.

def cmd_validate(x):
    words = [("smooth" if x.report.smooth else "not smooth"),
             ("complete" if x.report.complete else "not complete")]
    return " ".join(words), {"smooth": x.report.smooth,
                             "complete": x.report.complete,
                             "projective": x.report.projective,
                             "rays": [list(r) for r in x.fan.rays]}


def cmd_h0(x):
    value = divisors.h0(x.fan, x.divisor)
    return str(value), {"h0": value}


def cmd_positivity(x):
    verdict = divisors.positivity(x.fan, x.divisor).value
    return verdict, {"positivity": verdict}


def cmd_endo_check(x):
    pb = endos.pullback_matrix(x.endo, divisors.class_group(x.fan))
    payload = {"degree": endos.degree(x.endo), "pi": list(x.endo.pi),
               "mults": list(x.endo.mults),
               "pullback_matrix": [list(r) for r in pb.entries]}
    return ("degree %(degree)d; pi=%(pi)s; mults=%(mults)s; "
            "pullback=%(pullback_matrix)s" % payload), payload


def cmd_intamp(x):
    yes, cert = endos.is_int_amplified(x.endo, divisors.class_group(x.fan))
    if not yes:
        return "no", {"int_amplified": False, "certificate": None}
    return ("yes, certificate H=(%s)" % ",".join(map(str, cert)),
            {"int_amplified": True, "certificate": list(cert)})


def _decomposition(x):
    """f_* O(D) and its JSON payload."""
    dec = pushforward.decompose_pushforward(x.endo, x.divisor)
    return dec, {"summands": [list(s) for s in dec.summands],
                 "witness_divisors": [list(w) for w in dec.witness_divisors],
                 "cosets": [list(u) for u in dec.cosets]}


def cmd_pushforward(x):
    dec, payload = _decomposition(x)
    rows = zip(dec.cosets, dec.summands, dec.witness_divisors)
    table = ["coset           class           witness"]
    table += ["%-15s %-15s %s" % tuple(",".join(map(str, v)) for v in row)
              for row in rows]
    return "\n".join(table), payload


def cmd_verify(x):
    dec, payload = _decomposition(x)
    report = pushforward.verify_decomposition(x.endo, x.divisor, dec,
                                              box=x.box)
    payload.update(passed=report.passed, checks=report.checks,
                   violations=report.violations)
    if report.passed:
        return "pass (%d checks)" % report.checks, payload, EXIT_OK
    return ("FAIL\n" + "\n".join(report.violations), payload,
            EXIT_VERIFICATION)


def cmd_cox_shifts(x):
    shifts = cox.module_shifts(x.endo, x.divisor, box=x.box)
    return ("\n".join(",".join(map(str, s)) for s in shifts),
            {"shifts": [list(s) for s in shifts]})


def cmd_contracting(x):
    e = cox.contracting_exponent(
        cox.induced_cox_endo(x.endo, cox.cox_ring(x.fan)))
    return "none" if e is None else str(e), {"contracting_exponent": e}


def cmd_coset_count(x):
    reps = cox.pic_coset_decomposition(x.endo, divisors.class_group(x.fan))
    human = "%d\n%s" % (len(reps),
                        "\n".join(",".join(map(str, r)) for r in reps))
    return human, {"count": len(reps),
                   "representatives": [list(r) for r in reps]}


def cmd_rank_check(x):
    pic = divisors.class_group(x.fan)
    numbers = cox.rank_bookkeeping(x.endo, cox.cox_ring(x.fan), pic)
    return ("%(product_of_multiplicities)d = %(degree)d x %(pic_index)d"
            % numbers), numbers


# subcommand -> (command, the inputs it takes besides the fan)
COMMANDS = {
    "validate": (cmd_validate, ()),
    "h0": (cmd_h0, ("divisor",)),
    "positivity": (cmd_positivity, ("divisor",)),
    "endo-check": (cmd_endo_check, ("endo",)),
    "intamp": (cmd_intamp, ("endo",)),
    "pushforward": (cmd_pushforward, ("endo", "divisor")),
    "verify": (cmd_verify, ("endo", "divisor", "box")),
    "cox-shifts": (cmd_cox_shifts, ("endo", "divisor", "box")),
    "contracting": (cmd_contracting, ("endo",)),
    "coset-count": (cmd_coset_count, ("endo",)),
    "rank-check": (cmd_rank_check, ("endo",)),
}

_OPTIONS = {
    "endo": dict(required=True, help="path to a .endo.json file, or mul:q"),
    "divisor": dict(required=True, help="comma-separated ray coefficients"),
    "box": dict(type=int, default=2,
                help="Pic-coordinate twist box for verification"),
}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared.

    Sharing is safe because parsing keeps no state between calls: each
    parse_args call returns a fresh Namespace, no option has a mutable
    default, and nothing calls set_defaults.  Help and usage text is
    formatted when printed, so it follows the terminal width of that
    moment.  Callers must not mutate the returned parser.
    """
    parser = argparse.ArgumentParser(
        prog="toricpush",
        description="Pushforward decompositions of line bundles under finite "
                    "toric endomorphisms, with exact verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, inputs) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("fan", help="path to a .fan.json file")
        for option in inputs:
            p.add_argument("--" + option, **_OPTIONS[option])
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
    return parser


def run_command(argv) -> int:
    args = build_parser().parse_args(argv)
    command, inputs = COMMANDS[args.command]
    try:
        human, payload, *code = command(_load(args, inputs))
    except VerificationError as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return EXIT_VERIFICATION
    except ToricError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    print(json.dumps(payload, sort_keys=True) if args.json else human)
    return code[0] if code else EXIT_OK


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
