"""Command-line interface: subcommands, exit codes, stable JSON."""

import json

import pytest

from kingmesh.cli import main
from kingmesh.kings import count_kings
from kingmesh.series import Series


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "5")
        assert code == 0
        assert out.strip() == "14"

    @pytest.mark.parametrize("method,expected", [("rec", "14"), ("explicit", "14"), ("gf", "14"), ("enum", "14")])
    def test_methods(self, capsys, method, expected):
        code, out, _ = run(capsys, "count", "--n", "5", "--method", method)
        assert code == 0 and out.strip() == expected

    def test_class_counts(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "5", "--class", "s")
        assert code == 0 and out.strip() == "12"
        code, out, _ = run(capsys, "count", "--n", "5", "--class", "sl", "--method", "gf")
        assert code == 0 and out.strip() == "10"

    def test_class_rejects_closed_methods(self, capsys):
        code, _, err = run(capsys, "count", "--n", "5", "--class", "s", "--method", "rec")
        assert code == 2
        assert "class" in err

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_count_past_the_int_digit_limit(self, capsys, fmt):
        # count_kings(3000) has over 9,000 digits; Python's default limit on
        # int-to-str conversion is 4,300
        code, out, err = run(capsys, "count", "--n", "3000", "--format", fmt)
        assert code == 0, err
        value = int(out) if fmt == "table" else json.loads(out)["count"]
        assert value == count_kings(3000)

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "5", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "n": 5, "class": "all", "method": "recurrence", "count": 14,
        }


class TestList:
    def test_streams_one_per_line(self, capsys):
        code, out, _ = run(capsys, "list", "--n", "4")
        assert code == 0
        assert sorted(out.split()) == ["2413", "3142"]

    def test_class_filter(self, capsys):
        code, out, _ = run(capsys, "list", "--n", "5", "--class", "sl")
        assert code == 0
        assert len(out.split()) == 10

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "list", "--n", "4", "--format", "json")
        assert code == 0
        perms = [json.loads(line) for line in out.splitlines()]
        assert sorted(map(tuple, perms)) == [(2, 4, 1, 3), (3, 1, 4, 2)]


class TestDist:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "dist", "--pattern", "nr:16", "--n-max", "5")
        assert code == 0
        assert "12+2u^4" in out

    def test_json_schema_round_trips(self, capsys):
        from kingmesh.oracle import DistributionTable

        code, out, _ = run(
            capsys, "dist", "--pattern", "nr:63", "--n-max", "6", "--format", "json"
        )
        assert code == 0
        table = DistributionTable.from_json_dict(json.loads(out))
        assert str(table.row(5)) == "12+2u"

    def test_malformed_pattern_is_usage_error(self, capsys):
        code, _, err = run(capsys, "dist", "--pattern", "mesh(2;12;{(3,0)})", "--n-max", "4")
        assert code == 2
        assert "position" in err

    def test_large_sweep_needs_opt_in(self, capsys):
        code, _, err = run(capsys, "dist", "--pattern", "nr:16", "--n-max", "11")
        assert code == 2
        assert "--allow-large" in err

    def test_all_sweep_workers_byte_identical(self, capsys):
        args = ("dist", "--all", "--n-max", "6", "--format", "json")
        code1, out1, _ = run(capsys, *args, "--jobs", "1")
        code2, out2, _ = run(capsys, *args, "--jobs", "3")
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(json.loads(out1)) == 32

    def test_rows_at_u_one_match_count(self, capsys):
        from kingmesh.series import parse_upoly

        _, out, _ = run(
            capsys, "dist", "--pattern", "nr:5", "--n-max", "7", "--format", "json"
        )
        rows = json.loads(out)["rows"]
        for item in rows:
            _, count_out, _ = run(capsys, "count", "--n", str(item["n"]))
            assert parse_upoly(item["coeff"]).evaluate(1) == int(count_out)

    @pytest.mark.parametrize("command", ["dist", "verify"])
    def test_bad_jobs_is_usage_error(self, capsys, command):
        args = ("--pattern", "nr:X", "--n-max", "3") if command == "dist" else ("--theorem", "16")
        code, out, err = run(capsys, command, *args, "--jobs", "-3")
        assert code == 2 and out == ""
        assert err == "error: --jobs must be a positive integer, got '-3'\n"

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_jobs_env_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("KINGMESH_JOBS", value)
        code, out, err = run(capsys, "dist", "--pattern", "nr:X", "--n-max", "3")
        assert code == 2 and out == ""
        assert err == f"error: KINGMESH_JOBS must be a positive integer, got '{value}'\n"

    def test_jobs_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("KINGMESH_JOBS", "2")
        _, baseline, _ = run(capsys, "dist", "--pattern", "nr:X", "--n-max", "5", "--format", "json")
        monkeypatch.setenv("KINGMESH_JOBS", "1")
        _, serial, _ = run(capsys, "dist", "--pattern", "nr:X", "--n-max", "5", "--format", "json")
        assert baseline == serial


class TestSeries:
    def test_table_row(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "E:16", "--order", "5")
        assert code == 0
        assert out.splitlines()[-1].strip().endswith("12+2u^4")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "B", "--order", "5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["rows"][5] == {"n": 5, "coeff": "12"}

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "series", "--name", "Z", "--order", "5")
        assert code == 2 and "unknown series" in err

    def test_open_pattern_has_no_series(self, capsys):
        code, _, err = run(capsys, "series", "--name", "E:3", "--order", "5")
        assert code == 2 and "closed" in err


class TestVerify:
    def test_single_equation(self, capsys):
        code, out, _ = run(capsys, "verify", "--equation", "EQ_B", "--order", "30")
        assert code == 0
        assert "PASS" in out

    def test_single_theorem_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--theorem", "16", "--order", "10", "--n-max", "5",
            "--format", "json",
        )
        assert code == 0
        (report,) = json.loads(out)
        assert report["status"] == "PASS"
        assert report["id"] == "theorem:16"

    def test_unknown_equation(self, capsys):
        code, _, err = run(capsys, "verify", "--equation", "EQ_NOPE")
        assert code == 2 and "EQ_NOPE" in err

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        import kingmesh.verify as verify_mod

        spec = verify_mod.EQUATIONS["EQ_B"]
        broken = verify_mod.EquationSpec(
            spec.eq_id, spec.subject, lambda w: spec.build(w) + Series.t(w), spec.margin
        )
        monkeypatch.setitem(verify_mod.EQUATIONS, "EQ_B", broken)
        code, out, _ = run(capsys, "verify", "--equation", "EQ_B", "--order", "8")
        assert code == 1
        assert "FAIL" in out
        assert "expected 0" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--all", "--n-max", "-1"), "n_max must be nonnegative"),
            (("--theorem", "16", "--n-max", "-1"), "n_max must be nonnegative"),
            (("--theorem", "16", "--order", "-1"), "order must be nonnegative"),
        ],
    )
    def test_negative_range_is_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_full_battery(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--all", "--order", "10", "--n-max", "5"
        )
        assert code == 0
        assert "0 failures" in out


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "count", "--n", "4", "--frob")[0] == 2

    def test_no_args(self, capsys):
        assert run(capsys)[0] == 2
