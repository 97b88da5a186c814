"""Command-line interface: subcommands, exit codes, stable JSON."""

import hashlib
import json
import os
import re
import resource
import subprocess
import sys

import pytest

from kingmesh import cli
from kingmesh.cli import main
from kingmesh.kings import count_kings


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

    def test_enum_counts_every_class_through_eleven(self, capsys):
        # the walked counts of every class at every length the guard allows
        restricted = {
            "s": [1, 0, 0, 0, 2, 12, 78, 568, 4674, 42948, 436358, 4860432],
            "sl": [1, 0, 0, 0, 2, 10, 68, 500, 4174, 38774, 397584, 4462848],
        }
        expected = {
            "all": [count_kings(n) for n in range(12)],
            **restricted, "l": restricted["s"], "ls": restricted["sl"],
        }
        for king_class, counts in expected.items():
            printed = [run(capsys, "count", "--n", str(n), "--class", king_class, "--method", "enum")
                       for n in range(12)]
            assert printed == [(0, f"{c}\n", "") for c in counts], king_class

    def test_class_rejects_closed_methods(self, capsys):
        code, _, err = run(capsys, "count", "--n", "5", "--class", "s", "--method", "rec")
        assert code == 2
        assert "class" in err

    def test_restricted_class_message_comes_from_the_library(self, capsys):
        code, out, err = run(capsys, "count", "--n", "5", "--class", "ls", "--method", "explicit")
        assert code == 2 and out == ""
        assert err == (
            "error: method 'explicit' counts only the unrestricted class; "
            "gf and enumerate count restricted classes\n"
        )

    @pytest.mark.parametrize("king_class", ["all", "s", "sl"])
    def test_negative_length_is_usage_error(self, capsys, king_class):
        code, out, err = run(capsys, "count", "--n", "-1", "--class", king_class, "--method", "enum")
        assert code == 2 and out == ""
        assert err == "error: n must be nonnegative\n"

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

    def test_empty_pattern_text_round_trips(self, capsys):
        from kingmesh.mesh import MeshPattern
        from kingmesh.oracle import DistributionTable

        text = "mesh(0;;{(0,0)})"
        code, out, err = run(capsys, "dist", "--pattern", text, "--n-max", "3", "--format", "json")
        assert code == 0, err
        table = DistributionTable.from_json_dict(json.loads(out))
        assert table.pattern == MeshPattern((), frozenset({(0, 0)}))
        # the one empty occurrence survives only in the empty host
        assert [str(r) for r in table.rows] == ["u", "1", "0", "0"]

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
        broken = verify_mod.EquationSpec(spec.subject, lambda r: spec.residual(r) + r.t, spec.margin)
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
            (("--all", "--order", "-1"), "order must be nonnegative"),
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


class TestFactorialGuard:
    # every command that enumerates asks before a length past the limit; the
    # enumerating calls are stubbed to fail, so a missing guard fails at once
    # instead of starting a run of hours
    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumeration started past the guard")

        for name in ("count_class", "enumerate_kings", "distribution_tables", "run_checks"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize(
        "argv, option, limit",
        [
            ("count --method enum --n 14", "--n", 11),
            ("count --n 14 --class s", "--n", 11),  # enum is the default for a class
            ("list --n 14", "--n", 11),
            ("list --n 12 --class sl --format json", "--n", 11),
            ("dist --pattern nr:16 --n-max 11", "--n-max", 10),
            ("verify --n-max 12", "--n-max", 10),
            ("verify --all --n-max 11 --jobs 2", "--n-max", 10),
            ("verify --theorem X --n-max 12", "--n-max", 10),
        ],
    )
    def test_large_run_needs_opt_in(self, capsys, argv, option, limit):
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err == (
            f"error: {option} above {limit} enumerates millions of permutations; "
            "pass --allow-large to confirm\n"
        )

    @pytest.mark.parametrize(
        "command, limit",
        [("count --method enum --n", "WALK_N_LIMIT"), ("list --n", "WALK_N_LIMIT"),
         ("dist --pattern nr:X --n-max", "PATTERN_N_LIMIT"),
         ("verify --theorem X --n-max", "PATTERN_N_LIMIT")],
    )
    def test_allow_large_lets_the_run_start(self, capsys, monkeypatch, command, limit):
        monkeypatch.setattr(cli, limit, 4)
        assert run(capsys, *command.split(), "5")[0] == 2
        with pytest.raises(AssertionError, match="past the guard"):
            run(capsys, *command.split(), "5", "--allow-large")

    @pytest.mark.parametrize("argv", ["list --n 100000", "count --method enum --n 100000"])
    def test_a_length_that_outgrows_the_memory_is_one_error_line(self, argv):
        # in a process of its own, whose address space is capped at 600 MB,
        # so that the run fails where it would take the machine's memory
        cap = 600 * 2**20
        done = subprocess.run(
            [sys.executable, "-m", "kingmesh.cli", *argv.split(), "--allow-large"],
            capture_output=True, text=True, timeout=50,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: out of memory; a smaller n needs less\n"


@pytest.mark.parametrize(
    "argv",
    [
        "count --method enum --n 11",  # walked, not built: one of the end-to-end runs
        "count --n 14",
        "count --n 14 --class s --method gf",
        "verify --equation EQ_B --n-max 12 --order 5",
    ],
)
def test_runs_within_the_guard_need_no_opt_in(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == "", err
    if "enum" in argv:
        assert int(out) == count_kings(11) == 5_296_790


def test_catalog_census_through_ten_is_pinned(capsys, monkeypatch):
    # every catalog pattern over all kings through n = 10, with two workers,
    # pinned from the output of the streaming census that preceded the walk
    monkeypatch.delenv("KINGMESH_JOBS", raising=False)
    argv = "dist --all --n-max 10 --jobs 2 --format json".split()
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert len(out.encode()) == 13_572
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ca842242cdbf3d2ec4ab3db68e2f0eee82ef0e07d75aaa83e2af85929da09723"
    )


@pytest.mark.parametrize(
    "pattern, king_class, digest",
    [
        ("nr:X", "sl", "3555fb879dc9f66f370c05f8e218f980d6c2c340df017825c812d6ab0aa70b9e"),
        ("nr:X'", "ls", "be8d32ba5009ce95797321bce16aad765446130f2eff0a27de86f751ae5a76fd"),
    ],
)
def test_strong_point_census_through_ten_is_pinned(
    capsys, monkeypatch, pattern, king_class, digest
):
    # the strong points over their classes through n = 10, with two workers,
    # pinned from the output of the walk that called the kernel at every node
    monkeypatch.delenv("KINGMESH_JOBS", raising=False)
    argv = f"dist --pattern {pattern} --class {king_class} --n-max 10 --jobs 2 --format json"
    code, out, err = run(capsys, *argv.split())
    assert code == 0, err
    assert len(out.encode()) == 352
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "count", "--n", "4", "--frob")[0] == 2

    def test_no_args(self, capsys):
        assert run(capsys)[0] == 2

    # an order above sys.maxsize cannot be a length, so each of these is
    # refused before anything is built; every counting route takes the bound
    # of the gf route, where it would raise OverflowError or never end
    @pytest.mark.parametrize("argv", [
        "series --name A --order {}",
        "verify --equation EQ_B --order {}",
        "verify --all --order {}",
        "count --n {} --method gf",
        "count --n {} --method rec",
        "count --n {} --method explicit",
        "count --n {} --method enum --allow-large",
    ])
    def test_an_order_no_series_can_hold_is_a_usage_error(self, capsys, argv):
        for order in (sys.maxsize + 1, 10**20):
            code, out, err = run(capsys, *argv.format(order).split())
            assert code == 2 and out == ""
            assert err == f"error: order {order} is above the largest series order, {sys.maxsize - 1}\n"


# Exit code and sha256 of stdout for commands covering every subcommand in both
# formats, pinned from the output of the if-chain CLI that preceded the parser
# table: the table must not change a byte.
CONTRACT = [
    ("count --n 6", 0, "4393447bd3c1d55ea7f97417ecb1b36a691ccaacaaf2ebd21c59a5acf825fb7b"),
    ("count --n 6 --format json", 0, "c0b92dd2588e9ef341359b2a5a600852e3099a7a2b3ff484c3ed61bc3b2d2f2d"),
    ("count --n 7 --class sl --method gf", 0, "792376c209f338959be4cf00c54dbf82662b90516082e23106faec4c43c69e49"),
    ("count --n 7 --class ls --format json", 0, "6a3d44932fbd824061975999a821ab2f28d70e74642f331ec529c2cc9a0366b2"),
    ("count --n 5 --class s --method rec", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("list --n 6", 0, "3ceb278e77f122b0a6e8a520f14fa15de2635dd0373b9446c4c13970ac592b5f"),
    ("list --n 6 --class ls --format json", 0, "9fd3696f588097b652735f7e35ef8eaaa9218843b05518b4fa4660640aff515f"),
    ("dist --pattern nr:16 --n-max 6", 0, "8a9e16f070889b257adcdb7dc6ed9d1411703c06beba56cd7367f5d40c71a610"),
    ("dist --pattern nr:63 --n-max 6 --format json", 0, "18726aa5d98edaeffb0812678cad9fa42b5684faf28a999cc1720cbf162754eb"),
    ("dist --all --n-max 5", 0, "3c27e1f30751eae1344207e571ada10e5984ae8ca06dfa3ca85bbc584e82efe1"),
    ("series --name Ctu --order 8", 0, "a0562598a0ac8fe0d0263451d6e33fcdc19faf22f256f66ceea371f3634cc7b7"),
    ("series --name E:16 --order 8 --format json", 0, "99acfa9020a62158d73160fffee7866dee121f1e3b10c23150a9b969f80059e7"),
    ("verify --all --order 8 --n-max 4", 0, "41a5f7f4a9ef80ce5d9051fbcd5abd028223e3b03dcfc9987992d286dbcf89e4"),
    ("verify --theorem 16 --order 8 --n-max 5 --format json", 0, "55f3ae758c437bc42ab4c9872885806924d54273b234c4e20781e02254ff2645"),
]


@pytest.mark.parametrize("argv, code, digest", CONTRACT, ids=[c[0] for c in CONTRACT])
def test_contract_output_is_pinned(capsys, monkeypatch, argv, code, digest):
    monkeypatch.delenv("KINGMESH_JOBS", raising=False)
    got, out, err = run(capsys, *argv.split())
    assert got == code, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "command, options",
    [
        ("count", ["--n", "--class", "--method", "--format"]),
        ("list", ["--n", "--class", "--format"]),
        ("dist", ["--pattern", "--all", "--n-max", "--class", "--jobs", "--allow-large", "--format"]),
        ("series", ["--name", "--order", "--format"]),
        ("verify", ["--theorem", "--equation", "--all", "--order", "--n-max", "--jobs", "--format"]),
    ],
)
def test_subcommand_help_lists_its_options(capsys, command, options):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    usage = out.split("\n\n")[0]
    # every option appears in the usage line, in this order
    positions = [re.search(re.escape(option) + r"(?![\w-])", usage).start() for option in options]
    assert positions == sorted(positions), usage
