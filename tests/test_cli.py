import json

import pytest

from conftest import FIXTURE_DIR
from toricpush.cli import run_command
from toricpush.errors import InputError
from toricpush.io import emit_endo, emit_fan, parse_endo, parse_fan

P2 = str(FIXTURE_DIR / "p2.fan.json")
P1 = str(FIXTURE_DIR / "p1.fan.json")
P1XP1 = str(FIXTURE_DIR / "p1xp1.fan.json")
SWAP = str(FIXTURE_DIR / "swap2.endo.json")


class TestParsing:
    def test_round_trip(self):
        for name in ("p1", "p2", "p3", "p1xp1", "hirzebruch1"):
            text = (FIXTURE_DIR / ("%s.fan.json" % name)).read_text()
            doc = parse_fan(text)
            assert parse_fan(emit_fan(doc)) == doc

    def test_endo_round_trip(self):
        doc = parse_endo((FIXTURE_DIR / "swap2.endo.json").read_text())
        assert doc.matrix == ((0, 1), (2, 0))
        assert parse_endo(emit_endo(doc)) == doc

    def test_syntax_error_has_position(self):
        with pytest.raises(InputError, match=r"line \d+, column \d+"):
            parse_fan('{"dim": 2, "rays": [[1,0],')

    def test_mixed_ray_lengths(self):
        with pytest.raises(InputError, match="length"):
            parse_fan('{"dim": 2, "rays": [[1,0],[1]], "cones": [[0,1]]}')

    def test_cone_index_out_of_range(self):
        with pytest.raises(InputError, match="out of range"):
            parse_fan('{"dim": 2, "rays": [[1,0],[0,1]], "cones": [[0,7]]}')

    def test_duplicate_ray(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_fan('{"dim": 1, "rays": [[1],[1]], "cones": [[0]]}')

    def test_non_integer_entries(self):
        with pytest.raises(InputError, match="integers"):
            parse_fan('{"dim": 1, "rays": [[1.5]], "cones": [[0]]}')


class TestCommands:
    def test_validate(self, capsys):
        assert run_command(["validate", P2]) == 0
        assert capsys.readouterr().out.strip() == "smooth complete"

    def test_validate_json(self, capsys):
        assert run_command(["validate", P2, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["smooth"] and data["complete"]

    def test_h0(self, capsys):
        assert run_command(["h0", P2, "--divisor", "2,0,0"]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_positivity(self, capsys):
        assert run_command(["positivity", P2, "--divisor", "1,0,0"]) == 0
        assert capsys.readouterr().out.strip() == "ample"

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

    def test_contracting(self, capsys):
        assert run_command(["contracting", P1XP1, "--endo", SWAP]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_coset_count(self, capsys):
        assert run_command(["coset-count", P2, "--endo", "mul:3",
                            "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 3

    def test_rank_check(self, capsys):
        assert run_command(["rank-check", P2, "--endo", "mul:2"]) == 0
        assert capsys.readouterr().out.strip() == "8 = 4 x 2"

    def test_deterministic_output(self, capsys):
        run_command(["pushforward", P1XP1, "--endo", SWAP,
                     "--divisor", "1,2,3,4", "--json"])
        first = capsys.readouterr().out
        run_command(["pushforward", P1XP1, "--endo", SWAP,
                     "--divisor", "1,2,3,4", "--json"])
        assert capsys.readouterr().out == first


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

    def test_bad_mul_shorthand(self, capsys):
        assert run_command(["intamp", P2, "--endo", "mul:x"]) == 2
        capsys.readouterr()
