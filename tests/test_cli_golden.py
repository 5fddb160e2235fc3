"""A golden transcript of the CLI: every subcommand on every bundled fan,
replayed in process through run_command.

Each line of cli_golden.txt is one JSON record: argv (fan and endomorphism
files named from the repository root), exit code, stdout and stderr.  The
grid is each subcommand x each fans/*.fan.json x (for subcommands that take
--endo) mul:1, mul:2, mul:3 and, on P1xP1, fans/swap2.endo.json, as text and
as --json, with the divisor D_0 wherever one is taken.

After a deliberate change of output, rewrite the transcript with

    PYTHONPATH=src python tests/test_cli_golden.py

and review its diff.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from toricpush.cli import COMMANDS, run_command

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


def replay(argv):
    """One in-process CLI call as a transcript record."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command([str(ROOT / a) if a.startswith("fans/") else a
                            for a in argv])
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_transcript_replays():
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert [record["argv"] for record in records] == grid()
    for record in records:
        assert replay(record["argv"]) == record


def test_verify_lists_the_walks_summands():
    # verify lists the slab's counts and pushforward the coset walk's class
    # column, so a regeneration cannot bless a split between the two
    summands = {}
    for line in GOLDEN.read_text().splitlines():
        record = json.loads(line)
        command, *rest = record["argv"]
        if command in ("verify", "pushforward") and "--json" in rest:
            payload = json.loads(record["stdout"])
            summands.setdefault(tuple(rest), {})[command] = payload["summands"]
    assert len(summands) == 22
    for key, pair in summands.items():
        assert pair["verify"] == pair["pushforward"], key


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(replay(argv)) + "\n"
                              for argv in grid()))
