"""Class sizes and the rows of singles by state counting, against the census,
the closed forms and the pinned rows."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kingmesh import oracle, transfer
from kingmesh.gfs import strong_point_series
from kingmesh.kings import KingClass, class_total, count_kings, tally_subtree
from kingmesh.mesh import MeshPattern, catalog_pattern
from kingmesh.oracle import census, distribution_table
from kingmesh.series import UPoly
from kingmesh.transfer import class_sizes, single_rows, type_counts
from kingmesh.verify import reference_rows


def test_state_counts_are_the_census_tallies_by_endpoint_type():
    kings = census((), 9)
    for n in range(10):
        assert type_counts(n) == kings.tallies[n], n
    sizes = class_sizes(9)
    for kc in KingClass:
        assert list(sizes[kc]) == [class_total(kings.tallies[n], kc) for n in range(10)], kc


def test_one_packed_pass_counts_what_the_walk_counts_below_each_first_value():
    # the kinds of first entry share one int per state; the walk counts the
    # kings below one first value at a time
    assert type_counts(0) == {0: 1}
    for n in range(1, 10):
        walked: dict[int, int] = {}
        for first in range(1, n + 1):
            for t, kings in tally_subtree(n, first).items():
                walked[t] = walked.get(t, 0) + kings
        assert type_counts(n) == walked, n


def test_state_counts_sum_to_the_king_counts_through_thirteen():
    for n in range(14):
        assert sum(type_counts(n).values()) == count_kings(n), n


@pytest.mark.parametrize("kc, key", [("s", "B"), ("l", "B"), ("sl", "C"), ("ls", "C")])
def test_class_sizes_follow_the_pinned_rows(kc, key):
    pinned = [row.evaluate(0) for row in reference_rows(key)]
    assert list(class_sizes(len(pinned) - 1)[KingClass(kc)]) == pinned


def test_a_negative_length_is_refused():
    with pytest.raises(ValueError, match="n must be nonnegative"):
        type_counts(-1)
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        single_rows(frozenset(), -1)
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        class_sizes(-1)


# every mesh pattern of length 1: the 16 sets of its four boxes
SINGLES = [MeshPattern((1,), frozenset(box for bit, box in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)])
                                       if mask >> bit & 1)) for mask in range(16)]


def test_every_single_splits_the_kings_of_each_type():
    # each single's rows by type sum to the kings of that type, through n = 11
    for n in range(12):
        tally = type_counts(n)
        for p in SINGLES:
            rows = transfer._type_rows(p.shaded, n)
            assert {t: sum(row) for t, row in rows.items()} == tally, (n, p)


def test_the_single_of_every_box_never_hits_a_king_past_one():
    # type_counts reads its rows, so every king of n >= 2 must sit at hits 0
    assert transfer._type_rows(SINGLES[15].shaded, 1) == {15: [0, 1]}
    for n in range(2, 12):
        for t, row in transfer._type_rows(SINGLES[15].shaded, n).items():
            assert row[1:] == [0] * n, (n, t)


@pytest.mark.parametrize("kc", list(KingClass))
def test_the_rows_of_every_single_are_the_census_rows(kc):
    tables = census(SINGLES, 9, kc).tables(kc)
    for p, table in zip(SINGLES, tables):
        assert tuple(map(UPoly, single_rows(p.shaded, 9, kc))) == table.rows, p


@pytest.mark.parametrize("ident, kc", [("X", "all"), ("X", "s"), ("X", "sl"), ("X'", "ls")])
def test_the_strong_points_follow_the_closed_forms_past_the_census(ident, kc):
    # n = 11 to 13 lie past what the census walks in the suite
    rows = single_rows(catalog_pattern(ident).shaded, 13, kc)
    assert tuple(map(UPoly, rows)) == strong_point_series(KingClass(kc), 13).coeffs


def test_the_oracle_counts_only_a_batch_of_singles_by_state(monkeypatch):
    x, p16 = catalog_pattern("X"), catalog_pattern("16")
    assert distribution_table(x, 6, KingClass.SL).rows == census([x], 6, "sl").table(x, "sl").rows
    # the route is chosen from the patterns themselves, so an iterator of them is read once
    assert oracle.distribution_tables(iter([p16, x]), 6, "sl") == census([p16, x], 6, "sl").tables("sl")
    # a batch that holds a pair takes the census, whose tables agree
    monkeypatch.setattr(transfer, "single_rows", None)
    tables = oracle.distribution_tables([x, p16], 6, KingClass.SL)
    assert tables == census([x, p16], 6, "sl").tables("sl")


def test_the_route_reads_only_the_class_rule_of_kings():
    # independent of the oracle and the closed forms: no import of theirs, and
    # its own adjacency test rather than the walks' table
    tree = ast.parse(Path(transfer.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert {(node.level, node.module) for node in imports} == {(0, "__future__"), (1, "kings")}
    # the class rule alone: the walk starts from every first value, so where a
    # class's members begin (first_values) is not read here
    names = {alias.name for node in imports if node.module == "kings" for alias in node.names}
    assert names == {"CLASS_TYPES", "KingClass", "class_total", "endpoint_flags"}


def test_only_the_counts_checks_load_the_route():
    # only a command that reads a class size or the rows of a single imports
    # the route; the battery reads its singles from the census
    code = (
        "import contextlib, io, sys\nfrom kingmesh import cli\nloaded = []\n"
        "for argv in (['dist', '--pattern', 'nr:16', '--n-max', '4'], ['series', '--name', 'A', '--order', '5'],\n"
        "             ['verify', '--equation', 'EQ_B'], ['verify', '--theorem', 'X', '--n-max', '4'],\n"
        "             ['dist', '--pattern', 'nr:X', '--n-max', '4'],\n"
        "             ['verify', '--all', '--order', '8', '--n-max', '4']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    loaded.append((code, 'kingmesh.transfer' in sys.modules))\n"
        "print(loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=50, check=True)
    assert done.stdout == "[(0, False), (0, False), (0, False), (0, False), (0, True), (0, True)]\n"
