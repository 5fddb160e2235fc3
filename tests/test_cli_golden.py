"""A golden transcript of the CLI: every subcommand on every bundled fan,
replayed in process through run_command.

Each line of cli_golden.txt is one JSON record: argv (fan and endomorphism
files named from the repository root), exit code, stdout and stderr.  The
grid is each subcommand x each fans/*.fan.json x (for subcommands that take
--endo) mul:1, mul:2, mul:3 and, on P1xP1, fans/swap2.endo.json, as text and
as --json, with the divisor D_0 wherever one is taken.

After a deliberate change of output, rewrite the transcript with

    PYTHONPATH=src python tests/test_cli_golden.py

It reads the committed transcript first and prints, per subcommand, how
many records (keyed by argv) the rewrite adds, removes, changes and leaves
byte-identical.  Then review the diff of the records it changed.
"""

import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from conftest import reference_decompose
from toricpush.cli import COMMANDS, _load, build_parser, run_command

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.txt"


def grid():
    """The transcript's argv lists, in transcript order."""
    calls = []
    for command, (_, inputs) in COMMANDS.items():
        for path in sorted((ROOT / "fans").glob("*.fan.json")):
            fan = "fans/" + path.name
            nrays = len(json.loads(path.read_text())["rays"])
            options = []
            if "divisor" in inputs:
                options += ["--divisor", ",".join(["1"] + ["0"] * (nrays - 1))]
            endos = ["mul:1", "mul:2", "mul:3"]
            if path.name == "p1xp1.fan.json":
                endos.append("fans/swap2.endo.json")
            for endo in endos if "endo" in inputs else [None]:
                argv = [command, fan] + options
                if endo is not None:
                    argv += ["--endo", endo]
                calls += [argv, argv + ["--json"]]
    return calls


def rooted(argv):
    """argv with the fan and endomorphism files named from the root."""
    return [str(ROOT / a) if a.startswith("fans/") else a for a in argv]


def replay(argv):
    """One in-process CLI call as a transcript record."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(rooted(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


KINDS = ("added", "removed", "changed", "unchanged")


def review(old_lines, new_lines):
    """{subcommand: Counter of KINDS}: what rewriting the transcript lines
    old_lines as new_lines does to each record, keyed by argv."""
    def keyed(lines):
        return {tuple(json.loads(line)["argv"]): line for line in lines}

    old, new = keyed(old_lines), keyed(new_lines)
    tally = {}
    for argv in {**old, **new}:
        kind = ("added" if argv not in old else "removed" if argv not in new
                else "unchanged" if old[argv] == new[argv] else "changed")
        tally.setdefault(argv[0], Counter())[kind] += 1
    return tally


def test_review_counts_by_subcommand():
    def line(argv, stdout):
        return json.dumps({"argv": argv, "stdout": stdout})

    old = [line(["h0", "a"], "1"), line(["h0", "b"], "2"),
           line(["verify", "a"], "ok")]
    new = [line(["h0", "a"], "1"), line(["h0", "b"], "3"),
           line(["intamp", "a"], "yes")]
    assert review(old, new) == {
        "h0": Counter(unchanged=1, changed=1), "verify": Counter(removed=1),
        "intamp": Counter(added=1)}


def test_transcript_replays():
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert [record["argv"] for record in records] == grid()
    for record in records:
        assert replay(record["argv"]) == record


def test_verify_lists_the_walks_summands():
    # pushforward's multiplicities count the class column of the test-side
    # coset walk, and verify lists each class that many times, so a
    # regeneration cannot bless a wrong count or a split between the two
    payloads = {}
    for line in GOLDEN.read_text().splitlines():
        record = json.loads(line)
        command, *rest = record["argv"]
        if command in ("verify", "pushforward") and "--json" in rest:
            payloads.setdefault(tuple(rest), {})[command] = json.loads(
                record["stdout"])
    assert len(payloads) == 25  # 8 fans x mul:1..3, and the swap
    for rest, pair in payloads.items():
        x = _load(build_parser().parse_args(rooted(["pushforward", *rest])),
                  ("endo", "divisor"))
        walk = Counter(row[0] for row in reference_decompose(x.endo,
                                                             x.divisor))
        expected = [[list(cls), n] for cls, n in sorted(walk.items())]
        assert pair["pushforward"]["multiplicities"] == expected, rest
        assert pair["verify"]["summands"] == [
            cls for cls, n in expected for _ in range(n)], rest


if __name__ == "__main__":
    old = GOLDEN.read_text().splitlines() if GOLDEN.exists() else []
    new = [json.dumps(replay(argv)) for argv in grid()]
    for command, counts in review(old, new).items():
        print("%-12s" % command,
              "  ".join("%s %d" % (kind, counts[kind]) for kind in KINDS))
    GOLDEN.write_text("".join(line + "\n" for line in new))
