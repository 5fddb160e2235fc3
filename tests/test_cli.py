import json

import pytest

from conftest import FIXTURE_DIR, HALF_PLANE
from toricpush import pushforward
from toricpush.cli import COMMANDS, build_parser, run_command
from toricpush.errors import InputError
from toricpush.io import parse_endo, parse_fan

P2 = str(FIXTURE_DIR / "p2.fan.json")
P1 = str(FIXTURE_DIR / "p1.fan.json")
P1XP1 = str(FIXTURE_DIR / "p1xp1.fan.json")
F1 = str(FIXTURE_DIR / "hirzebruch1.fan.json")
SWAP = str(FIXTURE_DIR / "swap2.endo.json")

# two opposite quadrants: smooth, every cone full-dimensional, not complete
QUADRANTS = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
             "cones": [[0, 1], [2, 3]]}


def _validate_text(tmp_path, capsys, text):
    path = tmp_path / "bad.fan.json"
    path.write_text(text)
    code = run_command(["validate", str(path)])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


class TestParsing:
    def test_round_trip(self):
        for name in ("p1", "p2", "p3", "p1xp1", "hirzebruch1"):
            text = (FIXTURE_DIR / ("%s.fan.json" % name)).read_text()
            data = json.loads(text)
            doc = parse_fan(text)
            assert doc.dim == data["dim"]
            assert doc.rays == tuple(map(tuple, data["rays"]))
            assert doc.cones == tuple(map(tuple, data["cones"]))
            assert doc.name == data["name"]

    def test_endo_round_trip(self):
        assert parse_endo((FIXTURE_DIR / "swap2.endo.json").read_text()) \
            == ((0, 1), (2, 0))

    def test_syntax_error_has_position(self):
        with pytest.raises(InputError, match=r"line \d+, column \d+"):
            parse_fan('{"dim": 2, "rays": [[1,0],')

    def test_mixed_ray_lengths(self, tmp_path, capsys):
        assert _validate_text(tmp_path, capsys, (
            '{"dim": 2, "rays": [[1,0],[1]], "cones": [[0,1]]}')) == (
            2, "error: ray 1 has length 1, expected dim=2\n")

    def test_cone_index_out_of_range(self, tmp_path, capsys):
        assert _validate_text(tmp_path, capsys, (
            '{"dim": 2, "rays": [[1,0],[0,1]], "cones": [[0,1],[7,0]]}')) == (
            2, "error: cone 1: ray index 7 out of range\n")

    def test_duplicate_ray(self, tmp_path, capsys):
        assert _validate_text(tmp_path, capsys, (
            '{"dim": 1, "rays": [[1],[1]], "cones": [[0]]}')) == (
            2, "error: duplicate ray\n")

    def test_non_integer_entries(self):
        with pytest.raises(InputError, match="integers"):
            parse_fan('{"dim": 1, "rays": [[1.5]], "cones": [[0]]}')


# stdout and exit code of every subcommand, human and --json
EXACT_OUTPUT = {
    "validate": (["validate", P2], "smooth complete projective\n"),
    "validate-json": (
        ["validate", P1, "--json"],
        '{"complete": true, "projective": true, "rays": [[1], [-1]], '
        '"smooth": true}\n'),
    "h0": (["h0", P2, "--divisor", "2,0,0"], "6\n"),
    "h0-json": (["h0", P2, "--divisor", "2,0,0", "--json"], '{"h0": 6}\n'),
    "positivity": (["positivity", P2, "--divisor", "1,0,0"], "ample\n"),
    "positivity-json": (["positivity", P2, "--divisor", "0,0,0", "--json"],
                        '{"positivity": "nef-not-ample"}\n'),
    "endo-check": (
        ["endo-check", P2, "--endo", "mul:2"],
        "degree 4; pi=[0, 1, 2]; mults=[2, 2, 2]; pullback=[[2]]\n"),
    "endo-check-json": (
        ["endo-check", P1XP1, "--endo", SWAP, "--json"],
        '{"degree": 2, "mults": [2, 2, 1, 1], "pi": [2, 3, 0, 1], '
        '"pullback_matrix": [[0, 2], [1, 0]]}\n'),
    "intamp": (["intamp", P1XP1, "--endo", SWAP],
               "yes, certificate H=(3,2)\n"),
    "intamp-json": (["intamp", P2, "--endo", "mul:1", "--json"],
                    '{"certificate": null, "int_amplified": false}\n'),
    "pushforward": (
        ["pushforward", P1, "--endo", "mul:3", "--divisor", "1,0"],
        "coset           class           witness\n"
        "1               -1              0,-1\n"
        "0               0               0,0\n"
        "2               0               1,-1\n"),
    # classes (0,-1) and (0,0) have two witnesses each: rows are sorted by
    # class, then witness, then coset
    "pushforward-witnesses": (
        ["pushforward", F1, "--endo", "mul:3", "--divisor", "1,0,0,0"],
        "coset           class           witness\n"
        "1,0             -1,0            0,0,-1,0\n"
        "0,1             0,-1            0,0,0,-1\n"
        "0,2             0,-1            0,0,0,-1\n"
        "1,1             0,-1            0,0,0,-1\n"
        "1,2             0,-1            0,0,0,-1\n"
        "2,1             0,-1            1,0,-1,-1\n"
        "0,0             0,0             0,0,0,0\n"
        "2,0             0,0             1,0,-1,0\n"
        "2,2             1,-1            1,0,0,-1\n"),
    "pushforward-json": (
        ["pushforward", P1XP1, "--endo", SWAP, "--divisor", "0,0,0,0",
         "--json"],
        '{"cosets": [[1, 0], [0, 0]], "summands": [[0, -1], [0, 0]], '
        '"witness_divisors": [[0, 0, 0, -1], [0, 0, 0, 0]]}\n'),
    "verify": (["verify", P2, "--endo", "mul:2", "--divisor", "1,0,0",
                "--box", "1"], "pass (4 checks)\n"),
    "verify-json": (
        ["verify", P1, "--endo", "mul:2", "--divisor", "1,0", "--box", "1",
         "--json"],
        '{"checks": 4, "cosets": [[0], [1]], "passed": true, '
        '"summands": [[0], [0]], "violations": [], '
        '"witness_divisors": [[0, 0], [1, -1]]}\n'),
    "cox-shifts": (["cox-shifts", P1, "--endo", "mul:3", "--divisor", "1,0"],
                   "-1\n0\n0\n"),
    "cox-shifts-json": (
        ["cox-shifts", P1XP1, "--endo", SWAP, "--divisor", "0,0,0,0",
         "--json"],
        '{"shifts": [[0, -1], [0, 0]]}\n'),
    "contracting": (["contracting", P1XP1, "--endo", SWAP], "2\n"),
    "contracting-json": (["contracting", P2, "--endo", "mul:1", "--json"],
                         '{"contracting_exponent": null}\n'),
    "coset-count": (["coset-count", P2, "--endo", "mul:3"], "3\n0\n1\n2\n"),
    "coset-count-json": (
        ["coset-count", P1XP1, "--endo", SWAP, "--json"],
        '{"count": 2, "representatives": [[0, 0], [1, 0]]}\n'),
    "rank-check": (["rank-check", P2, "--endo", "mul:2"], "8 = 4 x 2\n"),
    "rank-check-json": (
        ["rank-check", P1XP1, "--endo", SWAP, "--json"],
        '{"degree": 2, "pic_index": 2, "product_of_multiplicities": 4}\n'),
}


class TestCommands:
    @pytest.mark.parametrize("case", sorted(EXACT_OUTPUT))
    def test_exact_output(self, case, capsys):
        argv, stdout = EXACT_OUTPUT[case]
        assert run_command(argv) == 0
        assert capsys.readouterr().out == stdout

    def test_validate_json(self, capsys):
        assert run_command(["validate", P2, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["smooth"] and data["complete"] and data["projective"]

    def test_endo_check(self, capsys):
        assert run_command(["endo-check", P2, "--endo", "mul:2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["degree"] == 4
        assert data["mults"] == [2, 2, 2]

    def test_intamp_yes(self, capsys):
        assert run_command(["intamp", P1XP1, "--endo", SWAP]) == 0
        out = capsys.readouterr().out
        assert out.startswith("yes, certificate H=(")

    def test_intamp_no(self, capsys):
        assert run_command(["intamp", P2, "--endo", "mul:1"]) == 0
        assert capsys.readouterr().out.strip() == "no"

    def test_pushforward_table(self, capsys):
        assert run_command(["pushforward", P2, "--endo", "mul:2",
                            "--divisor", "1,0,0"]) == 0
        out = capsys.readouterr().out
        # 4 summand rows plus header
        assert len(out.strip().splitlines()) == 5

    def test_pushforward_json(self, capsys):
        assert run_command(["pushforward", P1, "--endo", "mul:2",
                            "--divisor", "0,0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert sorted(map(tuple, data["summands"])) == [(-1,), (0,)]

    def test_verify(self, capsys):
        assert run_command(["verify", P1XP1, "--endo", SWAP,
                            "--divisor", "1,0,-1,2", "--box", "2"]) == 0
        assert capsys.readouterr().out.startswith("pass")

    def test_cox_shifts(self, capsys):
        assert run_command(["cox-shifts", P1, "--endo", "mul:2",
                            "--divisor", "0,0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert sorted(map(tuple, data["shifts"])) == [(-1,), (0,)]

    def test_coset_count(self, capsys):
        assert run_command(["coset-count", P2, "--endo", "mul:3",
                            "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 3

    def test_deterministic_output(self, capsys):
        run_command(["pushforward", P1XP1, "--endo", SWAP,
                     "--divisor", "1,2,3,4", "--json"])
        first = capsys.readouterr().out
        run_command(["pushforward", P1XP1, "--endo", SWAP,
                     "--divisor", "1,2,3,4", "--json"])
        assert capsys.readouterr().out == first


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    try:
        code = run_command(argv)
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


HELP_80 = """\
usage: toricpush [-h]
                 {validate,h0,positivity,endo-check,intamp,pushforward,verify,cox-shifts,contracting,coset-count,rank-check}
                 ...

Pushforward decompositions of line bundles under finite toric endomorphisms,
with exact verification.

positional arguments:
  {validate,h0,positivity,endo-check,intamp,pushforward,verify,cox-shifts,contracting,coset-count,rank-check}

options:
  -h, --help            show this help message and exit
"""


class TestSharedParser:
    """build_parser is built once per process; no call may leave state in it
    that changes a later call."""

    OTHER_CALLS = {
        "help": ["--help"],
        "verify-help": ["verify", "--help"],
        "unknown-subcommand": ["frobenius", P2],
        "verify-without-endo": ["verify", P2, "--divisor", "1,0,0"],
        "negative-box": ["verify", P2, "--endo", "mul:2", "--divisor",
                         "1,0,0", "--box", "-1"],
    }

    def test_calls_do_not_interact(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        build_parser.cache_clear()
        rows, others = sorted(EXACT_OUTPUT), sorted(self.OTHER_CALLS)
        calls = ([EXACT_OUTPUT[case][0] for case in rows]
                 + [self.OTHER_CALLS[case] for case in others])
        first = [_outcome(argv, capsys) for argv in calls]
        again = [_outcome(argv, capsys) for argv in reversed(calls)]
        assert again[::-1] == first
        assert build_parser.cache_info().misses == 1

        assert first[:len(rows)] == [(0, EXACT_OUTPUT[case][1], "")
                                     for case in rows]
        outcomes = dict(zip(others, first[len(rows):]))
        assert outcomes["help"] == (0, HELP_80, "")
        code, out, err = outcomes["verify-help"]
        assert (code, err) == (0, "")
        assert out.startswith("usage: toricpush verify [-h] --endo ENDO")
        for case in ("unknown-subcommand", "verify-without-endo"):
            code, out, err = outcomes[case]
            assert (code, out) == (2, "")
            assert err.startswith("usage: toricpush")
        assert ("invalid choice: 'frobenius'"
                in outcomes["unknown-subcommand"][2])
        assert ("the following arguments are required: --endo"
                in outcomes["verify-without-endo"][2])
        assert outcomes["negative-box"] == (
            2, "", "error: --box must be >= 0, got -1\n")


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert run_command(["validate", "no-such-file.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.fan.json"
        bad.write_text("{")
        assert run_command(["validate", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_non_primitive_ray(self, tmp_path, capsys):
        bad = tmp_path / "bad.fan.json"
        bad.write_text('{"dim": 1, "rays": [[2],[-1]], "cones": [[0],[1]]}')
        assert run_command(["validate", str(bad)]) == 2
        assert "primitive" in capsys.readouterr().err

    def test_incompatible_endo(self, tmp_path, capsys):
        endo = tmp_path / "bad.endo.json"
        endo.write_text('{"matrix": [[1, 0], [0, 2]]}')
        assert run_command(["endo-check", P2, "--endo", str(endo)]) == 2
        assert "ray-compatible" in capsys.readouterr().err

    def test_wrong_size_endo(self, tmp_path, capsys):
        endo = tmp_path / "big.endo.json"
        endo.write_text('{"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}')
        assert run_command(["endo-check", P2, "--endo", str(endo)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: endomorphism matrix is 3x3 but fan "
                                "has dim 2\n")
        assert captured.out == ""

    @pytest.mark.parametrize("option", [["--endo", "mul:2"],
                                        ["--divisor", "1,1,1"]])
    def test_non_complete_fan(self, option, tmp_path, capsys):
        # every cone is full-dimensional, but the fan is not complete
        fan = tmp_path / "half.fan.json"
        fan.write_text(json.dumps(HALF_PLANE))
        command = "intamp" if option[0] == "--endo" else "positivity"
        assert run_command([command, str(fan), *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s needs a complete fan\n" % command

    @pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"validate"}))
    def test_every_subcommand_refuses_a_non_complete_fan(self, command,
                                                         tmp_path, capsys):
        fan = tmp_path / "quadrants.fan.json"
        fan.write_text(json.dumps(QUADRANTS))
        options = {"endo": ["--endo", "mul:2"],
                   "divisor": ["--divisor", "1,1,1,1"], "box": []}
        argv = [command, str(fan)]
        for name in COMMANDS[command][1]:
            argv += options[name]
        assert _outcome(argv, capsys) == (
            2, "", "error: %s needs a complete fan\n" % command)
        assert _outcome(["validate", str(fan)], capsys) == (
            0, "smooth not complete not projective\n", "")

    def test_validate_json_non_complete_fan(self, tmp_path, capsys):
        # validate answers on any fan, and a fan that is not complete is
        # not projective
        fan = tmp_path / "half.fan.json"
        fan.write_text(json.dumps(HALF_PLANE))
        code, out, err = _outcome(["validate", str(fan), "--json"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"complete": False, "projective": False,
                                   "rays": HALF_PLANE["rays"],
                                   "smooth": True}

    def test_class_group_with_torsion(self, tmp_path, capsys):
        # P2 / (Z/3) is a valid complete fan: validate and h0 answer, and
        # intamp refuses its class group, not the fan
        fan = tmp_path / "p2z3.fan.json"
        fan.write_text(json.dumps({"dim": 2, "rays": [[2, -1], [-1, 2],
                                                      [-1, -1]],
                                   "cones": [[0, 1], [1, 2], [0, 2]]}))
        assert _outcome(["validate", str(fan)], capsys) == (
            0, "not smooth complete projective\n", "")
        assert _outcome(["h0", str(fan), "--divisor", "1,0,0"], capsys) == (
            0, "1\n", "")
        assert _outcome(["intamp", str(fan), "--endo", "mul:2"], capsys) == (
            2, "", "error: class group has torsion (invariant factors 1, 3); "
            "toricpush needs a torsion-free class group\n")

    def test_wrong_divisor_length(self, capsys):
        assert run_command(["h0", P2, "--divisor", "1,0"]) == 2
        assert "entries" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "cox-shifts"])
    def test_negative_box(self, command, capsys):
        # a negative box used to check no twist at all and still exit 0
        assert run_command([command, P2, "--endo", "mul:2",
                            "--divisor", "1,0,0", "--box", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--box must be >= 0" in captured.err
        assert captured.out == ""

    def test_failed_verification(self, monkeypatch, capsys):
        # P1 mul:3 on O is (-1) + (-1) + (0); one (-1) turned into (0) fails
        real = pushforward.coset_table

        def corrupted(endo, coeffs):
            table = real(endo, coeffs)
            assert [row[0] for row in table] == [(-1,), (-1,), (0,)]
            table[1] = ((0,),) + table[1][1:]
            return table

        monkeypatch.setattr(pushforward, "coset_table", corrupted)
        assert run_command(["verify", P1, "--endo", "mul:3",
                            "--divisor", "0,0", "--box", "1"]) == 1
        assert capsys.readouterr().out == (
            "FAIL\n"
            "twist (0,): h0(D + f*E) = 1 but summands give 2\n"
            "twist (1,): h0(D + f*E) = 4 but summands give 5\n"
            "trivial summand count 2 (expected exactly 1)\n")

    def test_bad_mul_shorthand(self, capsys):
        assert run_command(["intamp", P2, "--endo", "mul:x"]) == 2
        capsys.readouterr()
