"""CLI behavior: exit codes, output determinism, config round-trips."""

import json
import os
import re
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

from dualcount import affine, cli, lattice, mckay, refined, series, suites
from dualcount.cli import (MAX_N, MAX_ORACLE_N, MAX_RANDOM_DRAWS, UsageError,
                           parse_args)
from dualcount.bounds import MAX_ORDER, MAX_RANK
from dualcount.grouprep import MAX_GROUP_PARAM


def invoke(argv, capsys):
    status = cli.main(argv)
    out, err = capsys.readouterr()
    return status, out, err


def _last_line(code: str, env=None) -> str:
    """The last line that `python -c code` prints, run in env (by default
    this process's environment); it must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


# Code for a child process: ran(name) says whether the body of the module
# name ran.  Every module of dualcount.LAZY is in sys.modules from the start,
# but loads lazily: reading its __dict__ through object.__getattribute__ does
# not load it, and a module whose body ran holds the __builtins__ that exec
# put there.
RAN = ("import sys\n"
       "def ran(name):\n"
       "    return name in sys.modules and '__builtins__' in"
       " object.__getattribute__(sys.modules[name], '__dict__')\n")


def refused(argv, capsys) -> str:
    """stderr of a command line that is refused: exit 1, nothing on stdout."""
    status, out, err = invoke(argv, capsys)
    assert (status, out) == (1, "")
    return err


# -- exit codes -------------------------------------------------------------


@pytest.mark.parametrize("argv,expected", [
    (["count", "--gamma", "Ohat", "--target", "Sp", "--n", "1"], 4),
    (["count", "--gamma", "Z:3", "--target", "SO_odd", "--n", "1"], 2),
    (["count", "--gamma", "That", "--target", "Sp", "--n", "0"], 1),
])
def test_count_examples(argv, expected, capsys):
    status, out, _ = invoke(argv, capsys)
    assert status == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1 and rows[0]["count"] == expected


def test_count_range(capsys):
    argv = ["count", "--gamma", "Z:5", "--target", "Sp", "--n-range", "0:4"]
    status, out, _ = invoke(argv, capsys)
    assert status == 0
    assert [r["count"] for r in json.loads(out)["rows"]] == [1, 3, 6, 10, 15]


@pytest.mark.parametrize("argv", [
    ["count", "--gamma", "Z:3", "--target", "Sp"],                    # no n
    ["count", "--gamma", "Z:3", "--target", "Sp", "--n", "1",
     "--n-range", "0:2"],                                             # both
    ["count", "--gamma", "Z:3", "--target", "Sp", "--n-range", "2:0"],
    ["count", "--gamma", "Z:3", "--target", "Sp", "--n-range", "x"],
    ["count", "--gamma", "Z:3", "--target", "Bogus", "--n", "1"],
    ["count", "--gamma", "Q:3", "--target", "Sp", "--n", "1"],
    ["count", "--gamma", "Z:3", "--target", "Sp", "--n", "1", "--junk"],
    ["frobnicate"],
    ["verify", "nonsense"],
    ["verify", "duality", "--pair", "bogus"],
    ["verify", "identities", "--prop", "KF1"],                        # no params
    ["verify", "smatrix", "--type", "A1", "--max-n", "0"],            # no level
    ["verify", "zn-lattice", "--max-n", "0"],                         # no modulus
    ["smatrix", "--type", "A1", "--level", "0"],
    ["verify", "zn-lattice", "--max-rank", "0"],                      # no pair
    ["verify", "identities", "--random", "0", "--seed", "5"],         # no draw
])
def test_usage_errors_exit_1(argv, capsys):
    assert refused(argv, capsys).strip()


@pytest.mark.parametrize("argv,flag", [
    (["verify", "smatrix", "--type", "A1", "--max-n", "0"], "--max-n"),
    (["verify", "zn-lattice", "--max-n", "0"], "--max-n"),
    (["smatrix", "--type", "A1", "--level", "0"], "--level"),
    (["verify", "zn-lattice", "--max-rank", "0"], "--max-rank"),
    (["verify", "identities", "--random", "0", "--seed", "5"], "--random"),
])
def test_a_zero_level_or_modulus_is_refused_by_the_parser(argv, flag):
    # a sweep to level, modulus or rank 0 would make no check and still pass;
    # zero random draws would run the fixed identities in their place
    with pytest.raises(UsageError, match=f"{flag}: 0 is below 1"):
        parse_args(argv)


@pytest.mark.parametrize("argv,flag", [
    # --params is read only together with --prop
    (["verify", "identities", "--params", "1;1;0;"], "--params"),
    # --prop runs the one named identity, so no draw would be made
    (["verify", "identities", "--prop", "PropX", "--random", "3"], "--random"),
], ids=["params-without-prop", "prop-with-random"])
def test_identity_flags_that_would_be_ignored_are_refused(argv, flag, capsys):
    with pytest.raises(UsageError):
        parse_args(argv)
    assert flag in refused(argv, capsys)


@pytest.mark.parametrize("argv,flag", [
    (["verify", "oracle", "--max-n", "1", "--random", "5", "--max-rank", "3",
      "--type", "A2", "--pair", "sp-so"], "--pair"),
    (["verify", "oracle", "--gamma", "Z:3"], "--gamma"),
    (["verify", "smatrix", "--max-n", "5"], "--type"),
    (["verify", "smatrix", "--type", "A1", "--seed", "3"], "--seed"),
    (["verify", "zn-lattice", "--pair", "Sp(2)/SO(5)", "--max-rank", "9"],
     "--max-rank"),
    (["verify", "zn-lattice", "--gamma", "Z:3"], "--gamma"),
    (["verify", "duality", "--max-rank", "3"], "--max-rank"),
    (["verify", "duality", "--type", "A2"], "--type"),
    (["verify", "refined", "--pair", "sp-so"], "--pair"),
    (["verify", "identities", "--max-n", "3"], "--max-n"),
    (["verify", "identities", "--seed", "4"], "--seed"),
    (["verify", "identities", "--prop", "PropX", "--seed", "4"], "--seed"),
])
def test_verify_flags_the_suite_does_not_read_are_refused(argv, flag, capsys):
    with pytest.raises(UsageError):
        parse_args(argv)
    assert flag in refused(argv, capsys)


def _cfg_fields_read(tree, name, seen):
    """The parsed options that function name of tree reads from cfg, directly
    or through the functions of tree it passes cfg to."""
    import ast

    seen.add(name)
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == name)
    fields = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "cfg"):
            fields.add(node.attr)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id not in seen
                and any(isinstance(a, ast.Name) and a.id == "cfg"
                        for a in node.args)):
            fields |= _cfg_fields_read(tree, node.func.id, seen)
    return fields


def _suite_parsers():
    """The argparse subparser of each verify suite, by suite name."""
    import argparse

    def subparsers(parser):
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    return subparsers(subparsers(cli.build_parser())["verify"])


def test_suite_flag_map_is_what_each_suite_reads():
    # each suite declares exactly the options its runner reads, so
    # argparse refuses every flag the suite would ignore
    import ast

    # the runners live in suites and call helpers of cli, such as _zn_sweep
    tree = ast.Module(body=[stmt for module in (cli, suites) for stmt in
                            ast.parse(Path(module.__file__).read_text()).body],
                      type_ignores=[])
    parsers = _suite_parsers()
    assert set(parsers) == set(suites._SUITE_RUNNERS)
    for suite, runner in suites._SUITE_RUNNERS.items():
        read = _cfg_fields_read(tree, runner.__name__, set())
        declared = {a.dest for a in parsers[suite]._actions} - {"help", "fmt"}
        assert declared == read, suite


@pytest.mark.parametrize("argv", [
    ["verify", "--max-n", "2", "duality"],
    ["verify", "--format", "csv", "duality"],
    ["verify", "--gamma", "Ohat", "refined"],
    ["verify", "--type", "A1", "smatrix"],
])
def test_verify_flags_before_the_suite_name_are_refused(argv, capsys):
    # flags follow the suite name; one written before it is never dropped
    # or overwritten by the suite's default
    assert refused(argv, capsys).strip()


@pytest.mark.parametrize("suite", sorted(suites._SUITE_RUNNERS))
def test_suite_help_lists_only_its_own_flags(suite, capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(["verify", suite, "--help"])
    assert exited.value.code == 0
    out = capsys.readouterr().out
    listed = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", out))
    declared = {flag for action in _suite_parsers()[suite]._actions
                for flag in action.option_strings if flag.startswith("--")}
    assert listed == declared
    assert "--format" in listed


def test_benchmark_verify_commands_stay_accepted():
    reference = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json")
        .read_text())
    commands = [key.split() for key in reference if key.startswith("verify ")]
    assert len(commands) == 10
    for argv in commands:
        parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["count", "--gamma", "Dhat:3", "--target", "PSp", "--n", "2"],
    ["sectors", "--gamma", "That", "--family", "Sp", "--n", "1"],
    ["count", "--gamma", "Dhat:5", "--target", "Spin_odd", "--n", "2"],
    ["sectors", "--gamma", "Ihat", "--family", "Spin_odd", "--n", "1"],
    ["genfun", "--gamma", "Z:3", "--token", "refined:0,1:Sp"],
    ["genfun", "--gamma", "Ohat", "--token", "Bogus"],
])
def test_not_covered_exit_3(argv, capsys):
    status, _, err = invoke(argv, capsys)
    assert status == 3
    assert "not covered" in err


@pytest.mark.parametrize("argv, checks", [
    (["verify", "smatrix", "--type", "E7", "--max-n", "3"], 3),
    (["verify", "smatrix", "--type", "E8", "--max-n", "3"], 3),
    (["verify", "smatrix", "--type", "A12"], 2),
    (["verify", "smatrix", "--type", "D12"], 2),
])
def test_smatrix_suite_reaches_e7_e8_and_rank_12(argv, checks, capsys):
    status, out, _ = invoke(argv, capsys)
    assert status == 0
    assert json.loads(out)["checks"] == checks


def test_e7_and_e8_smatrix_commands_run(capsys):
    status, out, _ = invoke(["smatrix", "--type", "E8", "--level", "1"], capsys)
    assert status == 0
    assert json.loads(out)["entries"] == [[[1.0, 0.0]]]
    status, out, _ = invoke(["smatrix", "--type", "E7", "--level", "1"], capsys)
    assert status == 0
    h = 0.707106781187
    assert json.loads(out)["entries"] == [[[h, 0.0], [h, 0.0]], [[h, 0.0], [-h, 0.0]]]
    status, _, err = invoke(["smatrix", "--type", "E7", "--level", "1",
                             "--enable-e7-smatrix"], capsys)
    assert status == 1


@pytest.mark.parametrize("argv", [
    ["count", "--gamma", "Z:2", "--target", "SU", "--n", str(MAX_N + 1)],
    ["count", "--gamma", "Z:2", "--target", "SU", "--n-range",
     f"0:{MAX_N + 1}"],
    ["sectors", "--family", "Sp", "--n", str(MAX_N + 1)],
    ["verify", "duality", "--max-n", str(MAX_N + 1)],
    ["verify", "refined", "--max-n", str(MAX_N + 1)],
])
def test_sizes_over_the_bound_are_refused(argv, capsys):
    assert str(MAX_N) in refused(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["count", "--gamma", "Z:2", "--target", "SU", "--n-range",
     f"{MAX_N}:{MAX_N}"],
    ["sectors", "--family", "Sp", "--n", str(MAX_N)],
    ["verify", "duality", "--max-n", str(MAX_N)],
    ["verify", "refined", "--max-n", str(MAX_N)],
])
def test_sizes_at_the_bound_are_accepted(argv):
    parse_args(argv)


def test_count_at_the_bound_runs(capsys):
    # Z_2 into SU(n): a + b = n with b even
    argv = ["count", "--gamma", "Z:2", "--target", "SU", "--n", str(MAX_N)]
    status, out, _ = invoke(argv, capsys)
    assert status == 0
    assert json.loads(out)["rows"][0]["count"] == MAX_N // 2 + 1


def _internal_error(setup: str, argv) -> str:
    """stderr of cli.main(argv) run under python -O after the setup lines,
    which plant a defect: it must exit 4 with nothing on stdout, even with
    asserts stripped."""
    code = f"import sys\nfrom dualcount import cli\n{setup}\nsys.exit(cli.main({argv!r}))\n"
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    return proc.stderr


def test_invariant_failure_exits_4_under_optimize():
    # a Burnside sum that is not a multiple of the group order must stop the
    # run, never print a floored count
    err = _internal_error(
        "from dualcount import counting\n"
        "counting.onedim_permutations = lambda g: {(0,): (0, 1)}",
        ["count", "--gamma", "Z:2", "--target", "PU", "--n", "2"])
    assert "internal error" in err


def test_broken_weyl_group_check_exits_4_under_optimize():
    # E-type cosets whose count disagrees with the known Weyl group orders
    # must stop an S-matrix run
    err = _internal_error(
        "from dualcount import affine\n"
        "affine._weyl_order = lambda letter, rank: 7",
        ["smatrix", "--type", "E6", "--level", "1"])
    assert "internal error" in err


def test_corrupted_diagram_symmetry_exits_4_under_optimize():
    # a wrong cached symmetry of the extended C2 diagram leaves a Burnside
    # sum that is not a multiple of |P/Q|; the run must stop, never floor it
    err = _internal_error(
        "from dualcount import lattice\n"
        "lattice._kac_data('C', 2)[1][(1,)] = (0, 2, 1)",
        ["count", "--gamma", "Z:2", "--target", "PSp", "--n", "2"])
    assert "internal error" in err


@pytest.mark.parametrize("argv", [
    ["mckay", "--gamma", "Ohat"],
    ["smatrix", "--type", "E7", "--level", "1"],
])
def test_wrong_node_map_exits_4_under_optimize(argv):
    # Ohat's irreps 2 and 3 swapped in the McKay node map: the graph read
    # through it breaks the dimension identity, which is a defect in the
    # data, never a graph or a matrix to print
    err = _internal_error(
        "from dualcount import mckay\n"
        "mckay._EXCEPTIONAL_KAC_NODES[mckay.OCTAHEDRAL] = (0, 3, 1, 4, 5, 6, 7, 2)",
        argv)
    assert "internal error: the McKay graph of Ohat violates" in err


@pytest.mark.parametrize("argv", [
    ["sectors", "--family", "Sp", "--n", "3"],
    ["count", "--gamma", "Ohat", "--target", "PSp", "--n", "3"],
])
def test_unpaired_moved_classes_exit_4_under_optimize(argv):
    # Ohat's 1' corrupted to a 3-cycle on the nodes 0 -> 1 -> 5 is no
    # involution, so the classes it moves need not pair up; that is a defect
    # in the data, not bad input
    err = _internal_error(
        "from dualcount import grouprep\n"
        "grouprep._EXCEPTIONAL_GENERATOR_PERMS[grouprep.OCTAHEDRAL] = "
        "((1, 5, 2, 3, 4, 0, 6, 7),)", argv)
    assert "internal error: moved classes must pair up" in err


def test_odd_slot_left_by_the_spin_sector_avoidance_exits_4_under_optimize():
    # the Ohat Spin sectors count no solutions that avoid 2'', 1, 3, 1' and
    # 3', because every slot left then has even weight; an odd-weight slot
    # among those breaks that, and must stop the run
    err = _internal_error(
        "from dualcount import refined\n"
        "from dualcount.counting import _Slot\n"
        "slots = refined._orthogonal_slots\n"
        "refined._orthogonal_slots = lambda g: slots(g) + (_Slot(('4',), 1, 5),)",
        ["sectors", "--family", "Spin_odd", "--n", "3"])
    assert "internal error: the Ohat orthogonal slots" in err


@pytest.mark.parametrize("gamma, setup", [
    # the unitary kernel table: one more solution at the last determinant
    ("Z:4", "from dualcount import refined\n"
            "rows = refined.composition_rows\n"
            "refined.composition_rows = lambda *args: [\n"
            "    row[:-1] + [row[-1] + 1] for row in rows(*args)]"),
    # the Weyl-orbit counts: one more orbit at the last grade of Z.  Cyclic
    # Sp and Spin are graded by Z_2, which has nontrivial nZ-cosets only at
    # odd n, so an odd modulus reaches the check
    ("Z:3", "from dualcount import lattice\n"
            "orbits = lattice._fixed_orbits\n"
            "def bumped(*args):\n"
            "    counts = orbits(*args)\n"
            "    return {**counts, (1,): counts[(1,)] + 1}\n"
            "lattice._fixed_orbits = bumped"),
], ids=["unitary", "weyl-orbits"])
def test_grade_counts_off_their_cosets_exit_4_under_optimize(gamma, setup):
    # the counts of an n-torsion table repeat along the nA-cosets; a grade
    # that breaks that is a defect in a kernel, never a table to compare
    err = _internal_error(setup, ["verify", "refined", "--gamma", gamma])
    assert "internal error: the grade counts must repeat along nA-cosets" in err


@pytest.mark.parametrize("argv", [
    ["genfun", "--gamma", "Z:2"],
    ["verify", "oracle", "--max-n", "2"],
])
def test_non_integer_series_exits_4_under_optimize(argv):
    # a built-in counting series with a coefficient 1/2 is a defect in the
    # series, not bad input
    err = _internal_error(
        "from dualcount import series\n"
        "series._genx_sp = lambda g: series.scalar(1, 2)", argv)
    assert "internal error: series has non-integer coefficients" in err


def test_corrupted_character_table_exits_4_under_optimize():
    # irreducible data whose dimensions do not square to the group order
    # must stop the run
    err = _internal_error(
        "from dualcount import grouprep\n"
        "rows = grouprep._EXCEPTIONAL_IRREPS\n"
        "rows[grouprep.TETRAHEDRAL] = tuple(\n"
        "    (name, 1, *more) for name, _, *more in rows[grouprep.TETRAHEDRAL])",
        ["irreps", "--gamma", "That"])
    assert "internal error" in err


def test_unmatched_derived_character_exits_4_under_optimize():
    # determinant characters are data, never user input: one that matches
    # no 1-dim irreducible is a defect (exit 4), not a usage error (exit 1)
    err = _internal_error(
        "from dualcount import grouprep\n"
        "rows = grouprep._EXCEPTIONAL_IRREPS\n"
        "rows[grouprep.OCTAHEDRAL] = tuple(\n"
        "    row[:4] + ('2',) for row in rows[grouprep.OCTAHEDRAL])",
        ["count", "--gamma", "Ohat", "--target", "SU", "--n", "2"])
    assert "internal error" in err


def test_closed_form_families_build_no_character_table():
    # Z:m and Dhat:m take their irreducibles, tensoring permutations and
    # McKay graphs from closed forms; only That, Ohat and Ihat have tables
    code = (
        "import contextlib, io, json, sys\n"
        "from dualcount import cli, grouprep\n"
        "table = grouprep.character_table\n"
        "def exceptional_only(g):\n"
        "    if g.family in (grouprep.CYCLIC, grouprep.DIHEDRAL):\n"
        "        raise RuntimeError('character table of ' + g.label)\n"
        "    return table(g)\n"
        "grouprep.character_table = exceptional_only\n"
        "statuses = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        statuses.append(cli.main(argv))\n"
        "print(json.dumps(statuses))\n")
    runs = [["count", "--gamma", "Z:12", "--target", target, "--n", "3"]
            for target in ("SU", "PU", "Sp", "SO_odd")]
    runs += [
        ["verify", "duality", "--gamma", "Dhat:6", "--max-n", "3"],
        ["verify", "refined", "--gamma", "Z:12", "--max-n", "4"],
        ["irreps", "--gamma", "Dhat:5"],
        ["mckay", "--gamma", "Z:7"],
        ["smatrix", "--type", "D5", "--level", "1"],
    ]
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(runs), proc.stderr


# -- lattice and series sizes ---------------------------------------------------


ORACLE_MAX_N = MAX_ORACLE_N


@pytest.mark.parametrize("argv,bound", [
    (["count", "--gamma", "Z:2", "--target", "PSp", "--n",
      str(MAX_RANK + 1)], MAX_RANK),
    (["count", "--gamma", "Z:3", "--target", "Spin_odd", "--n-range",
      f"{MAX_RANK + 1}:{MAX_RANK + 1}"], MAX_RANK),
    (["verify", "zn-lattice", "--max-rank", str(MAX_RANK + 1)],
     MAX_RANK),
    (["verify", "zn-lattice", "--max-n", str(MAX_N + 1)], MAX_N),
    (["genfun", "--gamma", "Z:1", "--order", str(MAX_ORDER + 1)], MAX_ORDER),
    (["verify", "oracle", "--max-n", str(ORACLE_MAX_N + 1)], ORACLE_MAX_N),
])
def test_lattice_and_series_sizes_over_the_bound_are_refused(argv, bound, capsys):
    assert str(bound) in refused(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["verify", "zn-lattice", "--max-rank", str(MAX_RANK)],
    ["verify", "zn-lattice", "--max-n", str(MAX_N)],
    ["genfun", "--gamma", "Z:1", "--order", str(MAX_ORDER)],
    ["verify", "oracle", "--max-n", str(ORACLE_MAX_N)],
])
def test_lattice_and_series_sizes_at_the_bound_are_accepted(argv):
    parse_args(argv)


def test_cyclic_psp_count_at_the_rank_bound_runs(capsys):
    # Z_2 into PSp(n): the level-2 Kac points of C_n up to the flip of the
    # diagram, n // 2 + 2 of them
    argv = ["count", "--gamma", "Z:2", "--target", "PSp", "--n",
            str(MAX_RANK)]
    status, out, _ = invoke(argv, capsys)
    assert status == 0
    assert json.loads(out)["rows"][0]["count"] == MAX_RANK // 2 + 2


def _cyclic_sweeps(top):
    """Runs that count a cyclic group into PSp or Spin up to rank top."""
    return [
        ["verify", "refined", "--gamma", "Z:12", "--max-n", str(top)],
        ["verify", "duality", "--gamma", "Z:3", "--max-n", str(top)],
        ["verify", "duality", "--gamma", "Z:3", "--pair", "all",
         "--max-n", str(top)],
        ["verify", "duality", "--gamma", "Z:3", "--pair", "psp-spin",
         "--max-n", str(top)],
        ["count", "--gamma", "Z:5", "--target", "PSp", "--n-range",
         f"90:{top}"],
        ["count", "--gamma", "Z:5", "--target", "Spin_odd", "--n", str(top)],
    ]


@pytest.mark.parametrize("argv", _cyclic_sweeps(MAX_RANK + 1))
def test_cyclic_psp_spin_sweeps_over_the_rank_bound_are_refused(argv, capsys):
    with pytest.raises(UsageError):
        parse_args(argv)
    assert str(MAX_RANK) in refused(argv, capsys)


@pytest.mark.parametrize("argv", _cyclic_sweeps(MAX_RANK) + [
    # the other pairs and non-cyclic groups never reach the lattice route
    ["verify", "duality", "--gamma", "Z:3", "--pair", "sp-so",
     "--max-n", str(MAX_RANK + 1)],
    ["verify", "duality", "--gamma", "Ohat", "--max-n",
     str(MAX_RANK + 1)],
    ["count", "--gamma", "Z:5", "--target", "Sp", "--n",
     str(MAX_RANK + 1)],
])
def test_cyclic_psp_spin_sweeps_at_the_rank_bound_are_accepted(argv):
    parse_args(argv)


def test_genfun_at_the_order_bound_runs(capsys):
    # Z_1 into Sp(n): one class, the trivial one, at every even order
    argv = ["genfun", "--gamma", "Z:1", "--order", str(MAX_ORDER)]
    status, out, _ = invoke(argv, capsys)
    assert status == 0
    coeffs = json.loads(out)["coefficients"]
    assert len(coeffs) == MAX_ORDER + 1
    assert coeffs[MAX_ORDER] == 1


def test_dualcount_max_order_changes_no_result(monkeypatch, capsys):
    # no command reads the variable: genfun keeps its default order, and no
    # value of it, however malformed or large, is checked or refused
    commands = [
        ["count", "--gamma", "Z:2", "--target", "SU", "--n", "1"],
        ["sectors", "--family", "Sp", "--n", "1"],
        ["irreps", "--gamma", "Z:3"],
        ["mckay", "--gamma", "Dhat:2"],
        ["genfun", "--gamma", "Ohat"],
        ["smatrix", "--type", "A1", "--level", "1"],
        ["verify", "identities", "--prop", "PropY"],
        ["verify", "smatrix", "--type", "A1", "--max-n", "1"],
    ]
    monkeypatch.delenv("DUALCOUNT_MAX_ORDER", raising=False)
    unset = [invoke(argv, capsys) for argv in commands]
    assert [status for status, _, _ in unset] == [0] * len(commands)
    assert json.loads(unset[4][1])["order"] == cli.GENFUN_ORDER
    for value in ("6", "abc", "-1", str(MAX_ORDER + 1)):
        monkeypatch.setenv("DUALCOUNT_MAX_ORDER", value)
        assert [invoke(argv, capsys) for argv in commands] == unset, value


def test_random_draws_over_the_bound_are_refused(capsys):
    argv = ["verify", "identities", "--random", str(MAX_RANDOM_DRAWS + 1)]
    assert str(MAX_RANDOM_DRAWS) in refused(argv, capsys)


def test_random_draws_at_the_bound_are_accepted():
    cfg = parse_args(["verify", "identities", "--random", str(MAX_RANDOM_DRAWS)])
    assert cfg.random_draws == MAX_RANDOM_DRAWS


@pytest.mark.parametrize("argv,message", [
    # the name is checked before the parameters it would need
    (["--prop", "Bogus"], "error: unknown identity 'Bogus'; choose from ("),
    (["--prop", "KF1", "--params", "x;1;1;1"], "error: could not parse s from 'x'"),
])
def test_identity_parameter_errors_name_what_is_wrong(argv, message, capsys):
    err = refused(["verify", "identities", *argv], capsys)
    assert message in err
    assert "invalid literal" not in err


def test_identity_over_the_work_bound_is_refused(capsys):
    # KF1 with one k = 500000 clears to degree 3e6 in 2.7e7 steps
    argv = ["verify", "identities", "--prop", "KF1", "--params", "1;500000;0;"]
    err = refused(argv, capsys)
    assert "takes 26999973 steps" in err
    assert str(series.MAX_CLEARED_WORK) in err


def test_identity_work_bound_is_exact(monkeypatch, capsys):
    argv = ["verify", "identities", "--prop", "KF4", "--params", "1,2;1;2"]
    monkeypatch.setattr(series, "MAX_CLEARED_WORK", 0)
    _, _, err = invoke(argv, capsys)
    work = int(re.search(r"takes (\d+) steps", err).group(1))
    monkeypatch.setattr(series, "MAX_CLEARED_WORK", work)
    status, out, _ = invoke(argv, capsys)
    assert status == 0
    assert json.loads(out)["checks"] == 1
    monkeypatch.setattr(series, "MAX_CLEARED_WORK", work - 1)
    assert str(work) in refused(argv, capsys)


def _identity_values(identity, count):
    """verify identities for identity with one k and count - 1 v values: for
    KF1 the v values 1..count-1, for KF3 that many ones in four lists."""
    j = lambda xs: ",".join(map(str, xs))
    if identity == "KF1":
        params = f"1;1;{count - 1};{j(range(1, count))}"
    else:
        vs = [[1] * ((count - 1 + r) // 4) for r in range(4)]
        params = f"1;{j(map(len, vs))};" + ";".join(map(j, vs))
    return ["verify", "identities", "--prop", identity, "--params", params]


@pytest.mark.parametrize("identity", ["KF1", "KF3"])
def test_identity_at_the_value_bound_runs(identity, capsys):
    argv = _identity_values(identity, series.MAX_IDENTITY_VALUES)
    status, out, _ = invoke(argv, capsys)
    assert status == 0
    assert json.loads(out)["failures"] == []


@pytest.mark.parametrize("identity,count", [
    ("KF1", series.MAX_IDENTITY_VALUES + 1),
    ("KF3", series.MAX_IDENTITY_VALUES + 1),
    ("KF3", 20001),  # as many as four lists 1..5000, which ran 5 s unbounded
])
def test_identity_over_the_value_bound_is_refused_before_any_term(
        identity, count, monkeypatch, capsys):
    def no_terms(*factors):
        raise AssertionError("a term was built")

    monkeypatch.setattr(series, "product", no_terms)
    start = time.perf_counter()
    err = refused(_identity_values(identity, count), capsys)
    assert time.perf_counter() - start < 0.5
    assert f"at most {series.MAX_IDENTITY_VALUES} k and v values" in err


def test_refined_cyclic_tables_reach_z12(capsys):
    status, out, _ = invoke(["verify", "refined", "--gamma", "Z:12",
                             "--max-n", "8"], capsys)
    assert status == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert report["checks"] == 16


def test_cli_import_loads_no_scipy():
    code = ("import sys\nimport dualcount.cli\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert _last_line(code) == "[]"


@pytest.mark.parametrize("argv", [
    [],
    ["count", "--gamma", "Ihat", "--target", "PU", "--n", "3"],
    ["count", "--gamma", "Ohat", "--target", "Spin_odd", "--n", "3"],
    ["verify", "duality", "--max-n", "2"],
])
def test_cli_import_and_count_load_no_numpy(argv):
    # only dualcount.affine imports numpy, at its top, so only the S-matrix
    # commands pay for it: dualcount.affine is registered in sys.modules
    # (dualcount.LAZY), but its body does not run.  The records on the count path
    # are plain classes, cyclotomic runs only for the exact character tables
    # of grouprep.character_table, and every group's irreducibles are closed
    # forms or literal data, so no count imports dataclasses, runs cyclotomic
    # or builds a character table; the bare import loads no fractions either
    unwanted = ["dataclasses"] + ([] if argv else ["fractions"])
    code = (RAN + "import contextlib, io, json\nfrom dualcount import cli, grouprep\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = cli.main({argv!r}) if {argv!r} else 0\n"
            "print(json.dumps([status, 'dualcount.affine' in sys.modules,"
            " [m for m in sys.modules if m.split('.')[0] == 'numpy'"
            f" or m in {unwanted!r}], ran('dualcount.cyclotomic'),"
            " grouprep.character_table.cache_info().misses]))")
    assert json.loads(_last_line(code)) == [0, True, [], False, 0]


def test_smatrix_command_still_loads_numpy():
    code = ("import sys\nfrom dualcount import cli\n"
            "status = cli.main(['smatrix', '--type', 'A1', '--level', '1'])\n"
            "print(status, 'numpy' in sys.modules)")
    assert _last_line(code) == "0 True"


def test_main_sets_one_blas_thread_unless_the_user_set_one(monkeypatch, capsys):
    argv = ["count", "--gamma", "Z:2", "--target", "Sp", "--n", "1"]
    settings = lambda: [os.environ.get(v) for v in cli.BLAS_THREAD_VARIABLES]
    for name in cli.BLAS_THREAD_VARIABLES:
        # setenv records the name, so that the teardown removes what main sets
        monkeypatch.setenv(name, "")
        monkeypatch.delenv(name)
    assert invoke(argv, capsys)[0] == 0
    assert settings() == ["1", "1", "1"]
    for name in cli.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert invoke(argv, capsys)[0] == 0
    assert settings() == ["3", None, None]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="counts threads in /proc/self/task (Linux)")
@pytest.mark.parametrize("openblas,threads", [(None, 1), ("2", 2)])
def test_smatrix_command_runs_numpy_on_one_blas_thread(openblas, threads):
    if threads > (os.cpu_count() or 1):
        pytest.skip("OpenBLAS starts at most one thread per CPU")
    # the child's environment is explicit, so that a setting of the pytest
    # process (tests/conftest.py makes one) cannot make this pass
    env = {k: v for k, v in os.environ.items()
           if k not in cli.BLAS_THREAD_VARIABLES}
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    code = ("import os\nfrom dualcount import cli\n"
            "status = cli.main(['smatrix', '--type', 'A1', '--level', '1'])\n"
            "print(status, len(os.listdir('/proc/self/task')))")
    assert _last_line(code, env) == f"0 {threads}"


def assert_runs_only(argv, ran):
    """The modules of dualcount.LAZY whose bodies the command ran, each also
    a package attribute, then csv and numpy when they were imported."""
    code = (RAN + "import contextlib, io\nimport dualcount\nfrom dualcount import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = cli.main({argv!r}) if {argv!r} else 0\n"
            "print(status, all(getattr(dualcount, m) is sys.modules['dualcount.' + m]"
            " for m in dualcount.LAZY),"
            " [m for m in dualcount.LAZY if ran('dualcount.' + m)]"
            " + [m for m in ('csv', 'numpy') if m in sys.modules])")
    assert _last_line(code) == f"0 True {ran!r}"


# The two tables below make the same check; the three counts are in both
@pytest.mark.parametrize("argv,ran", [
    ([], []),
    (["count", "--gamma", "Ihat", "--target", "PU", "--n", "3"], []),
    (["count", "--gamma", "Ohat", "--target", "Spin_odd", "--n", "3"],
     ["refined"]),
    (["count", "--gamma", "Z:5", "--target", "PSp", "--n", "4"], ["lattice"]),
    (["genfun", "--gamma", "Ohat"], ["series"]),
    (["verify", "identities"], ["series", "suites"]),
    (["verify", "zn-lattice"], ["lattice", "suites"]),
    # the S-matrices read their root data from rootdata, not lattice
    (["verify", "smatrix"], ["affine", "mckay", "suites", "numpy"]),
    (["smatrix", "--type", "E6", "--level", "1"], ["affine", "mckay", "numpy"]),
])
def test_each_command_runs_only_the_layer_modules_it_uses(argv, ran):
    assert_runs_only(argv, ran)


@pytest.mark.parametrize("argv,ran", [
    (["count", "--gamma", "Ihat", "--target", "PU", "--n", "3"], []),
    (["irreps", "--gamma", "Ihat"], []),
    (["count", "--gamma", "Z:5", "--target", "PSp", "--n", "4"], ["lattice"]),
    (["verify", "duality", "--pair", "sp-so", "--max-n", "2"], ["suites"]),
    # the default sweep counts Ohat into PSp and Spin, which read its sectors
    (["verify", "duality", "--max-n", "2"], ["refined", "suites"]),
    (["count", "--gamma", "Ohat", "--target", "Spin_odd", "--n", "3"],
     ["refined"]),
    (["sectors", "--family", "Sp", "--n", "3"], ["refined"]),
    (["verify", "refined"], ["refined", "suites"]),
    (["count", "--gamma", "Ihat", "--target", "PU", "--n", "3",
      "--format", "csv"], ["csv"]),
    (["mckay", "--gamma", "Ihat"], ["mckay"]),
])
def test_each_command_imports_only_the_code_it_runs(argv, ran):
    assert_runs_only(argv, ran)


@pytest.mark.parametrize("argv,unused", [
    (["verify", "identities"], "dataclasses"),
    (["verify", "zn-lattice"], "fractions"),
    (["count", "--gamma", "Z:5", "--target", "PSp", "--n", "3"], "fractions"),
    *[(argv, unused)
      for argv in (["verify", "smatrix"], ["smatrix", "--type", "E6", "--level", "1"])
      for unused in ("dataclasses", "dualcount.cyclotomic", "fractions")],
    *[(argv, unused)
      for argv in (["verify", "refined"], ["verify", "identities"],
                   ["genfun", "--gamma", "Ohat"], ["verify", "oracle"])
      for unused in ("dualcount.cyclotomic", "fractions")],
])
def test_series_and_lattice_runs_skip_the_modules_they_do_not_use(argv, unused):
    # the series, affine and mckay records are plain classes, matrices are
    # inverted over the integers, the S-matrix checks read their roots of
    # unity from a table by exact index, the refined tables hold integer
    # coordinates and the series integers over one scale
    code = (RAN + "import contextlib, io\nfrom dualcount import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = cli.main({argv!r})\n"
            f"print(status, ran({unused!r}))")
    assert _last_line(code) == "0 False"


@pytest.mark.parametrize("argv,checks", [
    # every pair of the default rank-4 catalogue at each modulus 1..MAX_N
    (["verify", "zn-lattice", "--max-n", str(MAX_N)],
     len(lattice.dual_pairs(4)) * MAX_N),
    # Ohat's Sp/Spin rows at n = 0..2000 and its SU/PU rows at n = 1..2000
    (["verify", "refined", "--max-n", "2000"], 4001),
])
def test_zn_and_refined_sweeps_at_scale_finish(argv, checks):
    # about 2 s and 0.5 s on a 2-CPU machine; a sweep that counted one n at
    # a time would run for hours
    proc = subprocess.run([sys.executable, "-m", "dualcount", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["checks"], report["failures"]) == (checks, [])


def test_perfbench_tracer_wraps_the_lazy_layers():
    # perfbench/child.py imports dualcount.cli, looks up every traced function
    # through sys.modules and rebinds each module attribute bound to it; the
    # lazy layers must resolve there, and their callers must reach the wrappers
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    code = ("import importlib.util, sys\n"
            "spec = importlib.util.spec_from_file_location("
            f"'child', {str(child)!r})\n"
            "child = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(child)\n"
            "from dualcount import cli\n"
            "print(all(callable(getattr(sys.modules['dualcount.' + m], f))"
            " for m, f, _ in child.TRACED))\n"
            "tracer = child.Tracer()\n"
            "tracer.install()\n"
            "status = [cli.main(['verify', s]) for s in"
            " ('identities', 'zn-lattice')]\n"
            "spans = [s[0] for s in tracer.spans]\n"
            "print(status, spans.count('series.prove_identity'),"
            " spans.count('lattice.weyl_orbit_count') > 0)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    traced, wrapped = lines[0], lines[-1]
    assert traced == "True"
    assert wrapped == f"[0, 0] {len(suites.identity_runs())} True"


# -- negative sizes, the group parameter and the zn-lattice sweep -----------------


@pytest.mark.parametrize("argv,flag", [
    (["count", "--gamma", "Z:3", "--target", "Sp", "--n", "-1"], "--n"),
    (["count", "--gamma", "Z:3", "--target", "Sp", "--n-range=-1:2"], "range"),
    (["verify", "duality", "--max-n", "-1"], "--max-n"),
    (["genfun", "--gamma", "Z:1", "--order", "-1"], "--order"),
    (["verify", "zn-lattice", "--max-rank", "-1"], "--max-rank"),
    (["verify", "identities", "--random", "-3"], "--random"),
    (["smatrix", "--type", "A1", "--level", "-1"], "--level"),
])
def test_negative_sizes_are_refused(argv, flag, capsys):
    assert flag in refused(argv, capsys)


@pytest.mark.parametrize("label", [f"Z:{MAX_GROUP_PARAM + 1}",
                                   f"Dhat:{MAX_GROUP_PARAM + 1}",
                                   "Z:100000"])
def test_group_parameter_over_the_bound_is_refused(label, capsys):
    argv = ["count", "--gamma", label, "--target", "SU", "--n", "2"]
    assert str(MAX_GROUP_PARAM) in refused(argv, capsys)


@pytest.mark.parametrize("label", ["Z:\u0663", "Dhat:\uff10\uff14", "Z:\u00b2"])
def test_group_parameter_takes_ascii_digits_only(label, capsys):
    # Arabic-Indic three, fullwidth 04 and superscript two all pass
    # str.isdigit; none of them is a group label
    argv = ["count", "--gamma", label, "--target", "SU", "--n", "2"]
    assert "unrecognized group label" in refused(argv, capsys)


@pytest.mark.parametrize("label", [f"Z:{MAX_GROUP_PARAM}",
                                   f"Dhat:{MAX_GROUP_PARAM}"])
def test_group_parameter_at_the_bound_is_accepted(label):
    assert parse_args(["count", "--gamma", label, "--target", "SU",
                       "--n", "2"]).gamma == label


def test_count_at_the_group_parameter_bound_runs(capsys):
    # Z_m into SU(2): the pairs {a, -a}, a in Z_m, so m // 2 + 1 classes
    status, out, _ = invoke(["count", "--gamma", f"Z:{MAX_GROUP_PARAM}",
                             "--target", "SU", "--n", "2"], capsys)
    assert status == 0
    assert json.loads(out)["rows"][0]["count"] == MAX_GROUP_PARAM // 2 + 1


@pytest.mark.parametrize("argv", [
    ["verify", "zn-lattice", "--max-rank", str(MAX_RANK),
     "--max-n", str(MAX_N)],
    ["verify", "zn-lattice", "--max-rank", str(MAX_RANK),
     "--max-n", "144"],
    ["verify", "zn-lattice", "--pair", f"SU({MAX_RANK + 1})/"
     f"PU({MAX_RANK + 1})", "--max-n", str(MAX_N)],
])
def test_zn_lattice_sweep_over_the_work_bound_is_refused(argv, capsys):
    assert str(lattice.MAX_ZN_CELLS) in refused(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["verify", "zn-lattice"],
    ["verify", "zn-lattice", "--max-rank", "7", "--max-n", "5"],
    ["verify", "zn-lattice", "--max-rank", str(MAX_RANK),
     "--max-n", "143"],
])
def test_zn_lattice_sweep_at_the_work_bound_is_accepted(argv):
    parse_args(argv)


def test_zn_sweep_cells_counts_rank_squares():
    # SU(3)/PU(3) has rank 2, so 9 cells per unit of n, both sides, n = 1..4
    assert lattice.zn_sweep_cells(["SU(3)/PU(3)"], 4) == 9 * 4 * 5
    assert (lattice.zn_sweep_cells(lattice.dual_pairs(100), 143)
            <= lattice.MAX_ZN_CELLS
            < lattice.zn_sweep_cells(lattice.dual_pairs(100), 144))


# -- S-matrix sizes ---------------------------------------------------------


def test_smatrix_at_level_63_runs_and_is_unitary(capsys):
    # the seed's orbit encoding overflowed here
    status, out, _ = invoke(["smatrix", "--type", "A1", "--level", "63"], capsys)
    assert status == 0
    entries = json.loads(out)["entries"]
    s = np.asarray([[complex(*z) for z in row] for row in entries])
    assert s.shape == (64, 64)
    # twelve printed digits bound the unitarity error of the printed matrix
    assert np.abs(s @ s.conj().T - np.eye(64)).max() < 1e-9


def _largest(accepted):
    n = 1
    while accepted(n + 1):
        n += 1
    return n


# A1 at level n: n + 1 weights, and 2 x 2 determinants, far below MAX_WORK
A1_LEVEL = _largest(lambda n: n + 1 <= affine.MAX_WEIGHTS)
# a sweep over A1 levels 1..n holds sum(k + 1) weights
A1_SWEEP = _largest(lambda n: n * (n + 3) // 2 <= affine.MAX_WEIGHTS)
# A2 at level n has (n + 2)(n + 1)/2 weights
A2_LEVEL = _largest(lambda n: (n + 2) * (n + 1) // 2 <= affine.MAX_WEIGHTS)
# E8 at level n: L weights make L (L + 1) / 2 entries, each 2160 cosets of
# 7 x 7 determinants
E8_LEVEL = _largest(lambda n: (lambda L: L * (L + 1) // 2 * 2160 * 7 ** 3)(
    affine.level_weights("E8", n).count) <= affine.MAX_WORK)


@pytest.mark.parametrize("argv, bound", [
    (["smatrix", "--type", "A1", "--level", str(A1_LEVEL + 1)],
     affine.MAX_WEIGHTS),
    (["smatrix", "--type", "A2", "--level", str(A2_LEVEL + 1)],
     affine.MAX_WEIGHTS),
    (["smatrix", "--type", "A1", "--level", str(10 ** 9)], affine.MAX_WEIGHTS),
    (["verify", "smatrix", "--type", "A1", "--max-n", str(A1_SWEEP + 1)],
     affine.MAX_WEIGHTS),
    (["verify", "smatrix", "--type", "A2", "--max-n", "70"], affine.MAX_WEIGHTS),
    (["verify", "smatrix", "--type", "A1", "--max-n", str(10 ** 9)],
     affine.MAX_WEIGHTS),
    (["smatrix", "--type", "E8", "--level", str(E8_LEVEL + 1)], affine.MAX_WORK),
    (["verify", "smatrix", "--type", "E8", "--max-n", str(E8_LEVEL)],
     affine.MAX_WORK),
])
def test_smatrix_sizes_over_the_bound_are_refused(argv, bound, capsys):
    assert re.search(rf"\b{bound}\b", refused(argv, capsys))


@pytest.mark.parametrize("ade_type", ["A48", "D51", "A101"])
def test_smatrix_rank_past_the_partner_group_bound_is_refused(ade_type, capsys):
    # A_r and D_r need the McKay partners Z:(r + 1) and Dhat:(r - 2), and
    # no group label is accepted past grouprep.MAX_GROUP_PARAM
    argv = ["smatrix", "--type", ade_type, "--level", "1"]
    assert str(MAX_GROUP_PARAM) in refused(argv, capsys)


def test_smatrix_sizes_are_refused_before_any_character_table(monkeypatch):
    def no_table(g):
        raise AssertionError("a McKay graph was built")
    monkeypatch.setattr(mckay, "mckay_graph", no_table)
    with pytest.raises(ValueError, match=str(affine.MAX_WEIGHTS)):
        affine.check_levels("A47", [2])
    with pytest.raises(ValueError, match=str(affine.MAX_WORK)):
        affine.check_levels("E8", [E8_LEVEL + 1])


@pytest.mark.parametrize("ade_type, levels", [
    ("A1", [A1_LEVEL]),
    ("A2", [A2_LEVEL]),
    ("A1", range(1, A1_SWEEP + 1)),
    ("E8", [E8_LEVEL]),
])
def test_smatrix_sizes_at_the_bound_are_accepted(ade_type, levels):
    affine.check_levels(ade_type, levels)


def test_readme_lists_every_exit_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = {int(c) for c in re.findall(r"^\| (\d) +\|", readme, re.M)}
    assert documented == {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_FAIL,
                          cli.EXIT_UNSUPPORTED, cli.EXIT_INTERNAL}


def test_help_exits_zero():
    proc = subprocess.run([sys.executable, "-m", "dualcount", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify" in proc.stdout


# -- verification suites -------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["verify", "duality", "--pair", "sp-so", "--max-n", "4"],
    ["verify", "duality", "--pair", "su-pu", "--max-n", "3"],
    ["verify", "duality", "--pair", "psp-spin", "--max-n", "4"],
    ["verify", "duality", "--gamma", "Dhat:4", "--max-n", "3"],
    ["verify", "refined", "--max-n", "4"],
    ["verify", "refined", "--gamma", "Z:4", "--max-n", "3"],
    ["verify", "identities", "--prop", "PropA"],
    ["verify", "identities", "--prop", "KF2", "--params", "2;1;1,1;2;1"],
    ["verify", "identities", "--random", "1", "--seed", "3"],
    ["verify", "zn-lattice", "--max-rank", "3", "--max-n", "3"],
    ["verify", "zn-lattice", "--pair", "Sp(2)/SO(5)", "--max-n", "5"],
    ["verify", "smatrix", "--type", "A2", "--max-n", "2"],
    ["verify", "oracle", "--max-n", "4"],
])
def test_suites_pass(argv, capsys):
    status, out, _ = invoke(argv, capsys)
    assert status == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert report["checks"] > 0


def test_random_identities_counts_all_families(capsys):
    status, out, _ = invoke(["verify", "identities", "--random", "2",
                             "--seed", "11"], capsys)
    assert status == 0
    assert json.loads(out)["checks"] == 8


def test_dihedral_psp_count_range_stops_at_the_first_uncovered_size(capsys):
    # n = 0 is counted, n = 1 is not covered, so the range exits 3
    status, out, err = invoke(["count", "--gamma", "Dhat:3", "--target", "PSp",
                               "--n-range", "0:2"], capsys)
    assert status == 3
    assert out == ""
    assert err == ("not covered: PSp counts for Dhat:3 need the dihedral "
                   "refinement, which is out of scope\n")


def test_corrupted_tensoring_stops_the_duality_sweep_under_optimize():
    # the PU table checks its Burnside sums at every size; a tensoring
    # permutation that is no group action leaves one indivisible, and the
    # sweep must stop with asserts stripped, never floor the sum
    err = _internal_error(
        "from dualcount import counting\n"
        "real = counting.onedim_permutations\n"
        "def corrupted(g):\n"
        "    perms = dict(real(g))\n"
        "    if g.label == 'Z:4':\n"
        "        perms[(2,)] = (1, 0, 2, 3)\n"
        "    return perms\n"
        "counting.onedim_permutations = corrupted",
        ["verify", "duality", "--pair", "su-pu"])
    assert "internal error" in err


def test_duality_sweep_builds_one_kernel_table_per_group_and_family(
        monkeypatch, capsys):
    # the work of a sweep is one table per (group, family), whatever max-n:
    # counted in kernel calls, not timed
    from dualcount import counting

    calls = []
    kernel = counting.composition_rows

    def counted(*args):
        calls.append(args[2])
        return kernel(*args)

    monkeypatch.setattr(counting, "composition_rows", counted)
    work = {}
    for max_n in (7, 14):
        calls.clear()
        status, _, _ = invoke(["verify", "duality", "--max-n", str(max_n)],
                              capsys)
        assert status == 0
        work[max_n] = len(calls)
    assert work[7] == work[14] > 0


@pytest.mark.parametrize("argv", [
    ["verify", "zn-lattice"],
    *(["verify", "refined", "--gamma", g] for g in ("Ohat", "Ihat", "Dhat:4", "Z:6")),
])
def test_zn_and_refined_sweeps_build_each_kernel_table_once(
        argv, monkeypatch, capsys):
    # each side's kernel tables are made once per sweep, to its largest
    # size, so the kernel calls do not grow with max-n.  A cyclic group's
    # refined Sp/Spin rows are Weyl orbits of rank n, still counted per n:
    # refined leaves out the calls made under lattice
    from dualcount import counting

    calls = []
    kernel = counting.composition_rows

    def under_lattice():
        frame = sys._getframe(2)
        while frame and frame.f_globals["__name__"] != "dualcount.lattice":
            frame = frame.f_back
        return frame is not None

    def counted(*args):
        if argv[1] == "zn-lattice" or not under_lattice():
            calls.append(args[2])
        return kernel(*args)

    # refined binds the kernel by name, as counting does
    monkeypatch.setattr(counting, "composition_rows", counted)
    monkeypatch.setattr(refined, "composition_rows", counted)
    monkeypatch.setattr(lattice, "_ORBIT_COUNTS", {})
    work = {}
    for max_n in (7, 14):
        calls.clear()
        lattice._ORBIT_COUNTS.clear()
        status, _, _ = invoke([*argv, "--max-n", str(max_n)], capsys)
        assert status == 0
        work[max_n] = len(calls)
    assert work[7] == work[14] > 0


def test_spin_sectors_build_their_kernel_tables_once(monkeypatch, capsys):
    # both rows of `sectors --family Spin_odd` come from one build of the
    # three inclusion-exclusion tables, each to the orthogonal dimension 2n + 1
    calls = []
    kernel = refined.composition_rows

    def counted(*args):
        calls.append(args[2])
        return kernel(*args)

    monkeypatch.setattr(refined, "composition_rows", counted)
    status, out, _ = invoke(["sectors", "--family", "Spin_odd", "--n", "7"],
                            capsys)
    assert status == 0
    assert [row["w"] for row in json.loads(out)["rows"]] == [0, 1]
    assert calls == [15] * 3


def test_dihedral_psp_rows_are_skipped_not_failed(capsys):
    argv = ["verify", "duality", "--pair", "psp-spin", "--gamma", "Dhat:3",
            "--max-n", "2"]
    status, out, _ = invoke(argv, capsys)
    assert status == 0
    report = json.loads(out)
    # the rank-zero target is trivially covered; everything beyond skips
    assert report["checks"] == 1
    assert report["skipped"] == 2


def test_verification_failure_exits_2(monkeypatch, capsys):
    bad_row = {"suite": "oracle", "gamma": "Z:1", "n": 0,
               "expected": 1, "got": 0}
    monkeypatch.setitem(suites._SUITE_RUNNERS, "oracle",
                        lambda cfg: iter([(False, bad_row)]))
    status, out, err = invoke(["verify", "oracle"], capsys)
    assert status == 2
    report = json.loads(out)
    assert report["failures"] == [bad_row]
    assert (report["checks"], report["skipped"]) == (1, 0)

    status, _, err = invoke(["verify", "oracle", "--format", "text"], capsys)
    assert status == 2
    # non-json formats still surface the failing rows as JSON on stderr
    assert json.loads(err) == [bad_row]


# -- output shape -------------------------------------------------------------


def test_json_runs_are_byte_identical(capsys):
    argv = ["smatrix", "--type", "D4", "--level", "2"]
    _, first, _ = invoke(argv, capsys)
    _, second, _ = invoke(argv, capsys)
    assert first == second
    parsed = json.loads(first)
    assert json.dumps(parsed, sort_keys=True) + "\n" == first


def test_benchmark_reference_outputs_are_reproduced(capsys):
    # every command the benchmark can run, replayed in process: each must
    # exit 0 with exactly the stdout bytes stored in its reference file
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                            / "reference.json").read_text())
    assert len(reference) >= 300
    differing = []
    for command, expected in sorted(reference.items()):
        status, out, _ = invoke(command.split(), capsys)
        if (status, out) != (0, expected):
            differing.append(command)
    assert differing == []


def test_genfun_known_coefficients(capsys):
    status, out, _ = invoke(["genfun", "--gamma", "Ohat", "--order", "6"],
                            capsys)
    assert status == 0
    assert json.loads(out)["coefficients"] == [1, 0, 4, 0, 12, 0, 30]
    status, out, _ = invoke(["genfun", "--gamma", "Z:3", "--token", "SO_odd",
                             "--order", "7"], capsys)
    assert json.loads(out)["coefficients"] == [0, 1, 0, 2, 0, 3, 0, 4]


def test_sectors_rows(capsys):
    status, out, _ = invoke(["sectors", "--family", "Sp", "--n", "1"], capsys)
    assert status == 0
    rows = json.loads(out)["rows"]
    assert [r["w"] for r in rows] == [0, 1]
    assert [(r["fixed"], r["moved"]) for r in rows] == [(0, 4), (2, 0)]


def test_smatrix_frozen_entries(capsys):
    status, out, _ = invoke(["smatrix", "--type", "A1", "--level", "1"], capsys)
    assert status == 0
    report = json.loads(out)
    h = 0.707106781187
    assert report["entries"] == [[[h, 0.0], [h, 0.0]], [[h, 0.0], [-h, 0.0]]]
    assert report["nodes"] == ["0", "1"]


def test_rounding_keeps_a_rounded_payload_and_rounds_the_rest():
    # an S-matrix payload comes rounded to --digits, so the output step
    # neither rounds its L**2 entries again nor copies them
    report, _ = cli.run(parse_args(["smatrix", "--type", "A2", "--level", "3",
                                    "--digits", "3"]))
    entries = report["entries"]
    assert cli._round_floats(entries) is entries
    assert entries == affine.smatrix_json(affine.s_matrix("A2", 3), 3)["entries"]
    rounded = cli._round_floats([0.1 + 0.2, -0.0, (1, True, "x", 0.25),
                                 {"a": [-1e-13]}])
    assert json.dumps(rounded) == '[0.3, 0.0, [1, true, "x", 0.25], {"a": [0.0]}]'


@pytest.mark.parametrize("digits", ["1", "5", "12"])
def test_smatrix_digits_round_each_entry_once(digits, capsys):
    status, out, _ = invoke(["smatrix", "--type", "A2", "--level", "3",
                             "--digits", digits], capsys)
    assert status == 0
    sm = affine.s_matrix("A2", 3)
    want = [[[round(z.real, int(digits)) + 0.0, round(z.imag, int(digits)) + 0.0]
             for z in row] for row in sm.array().tolist()]
    assert json.loads(out)["entries"] == want


def test_smatrix_default_digits_are_twelve(capsys):
    _, default, _ = invoke(["smatrix", "--type", "D4", "--level", "2"], capsys)
    _, twelve, _ = invoke(["smatrix", "--type", "D4", "--level", "2",
                           "--digits", "12"], capsys)
    assert default == twelve


@pytest.mark.parametrize("digits", ["-3", "0", "13", "15"])
def test_smatrix_digits_outside_1_to_12_are_refused(digits, capsys):
    assert "--digits" in refused(["smatrix", "--type", "A2", "--level", "3",
                                  "--digits", digits], capsys)


def test_csv_format(capsys):
    argv = ["count", "--gamma", "Ohat", "--target", "Sp", "--n-range", "0:2",
            "--format", "csv"]
    status, out, _ = invoke(argv, capsys)
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "count,gamma,n,target"
    assert lines[1:] == ["1,Ohat,0,Sp", "4,Ohat,1,Sp", "12,Ohat,2,Sp"]


@pytest.mark.parametrize("argv", [
    ["irreps", "--gamma", "Z:3"],
    ["mckay", "--gamma", "Z:3"],
    ["genfun", "--gamma", "Z:2"],
    ["smatrix", "--type", "A1", "--level", "1"],
], ids=lambda argv: argv[0])
def test_csv_of_a_report_without_rows_is_refused(argv, monkeypatch, capsys):
    # refused before any work: the S-matrix is never computed
    def boom(*_):
        raise AssertionError("computed before the format was checked")

    monkeypatch.setattr(affine, "s_matrix", boom)
    assert "csv" in refused(argv + ["--format", "csv"], capsys)
    monkeypatch.undo()
    assert invoke(argv + ["--format", "text"], capsys)[0] == 0


def test_text_format(capsys):
    argv = ["count", "--gamma", "Z:2", "--target", "SU", "--n", "2",
            "--format", "text"]
    status, out, _ = invoke(argv, capsys)
    assert status == 0
    assert "count=2" in out and "gamma=Z:2" in out


def test_irreps_and_mckay_dumps(capsys):
    status, out, _ = invoke(["irreps", "--gamma", "Ohat"], capsys)
    assert status == 0
    table = json.loads(out)
    assert table["order"] == 48
    assert sorted(i["dim"] for i in table["irreps"]) == [1, 1, 2, 2, 2, 3, 3, 4]

    status, out, _ = invoke(["mckay", "--gamma", "Ohat"], capsys)
    assert status == 0
    assert json.loads(out)["ade_type"] == "E7"


# -- config round-trips -------------------------------------------------------------


# each command line with the namespace it parses to: its command, format,
# suite, and the dest of every flag its subparser declares
ROUND_TRIP_CONFIGS = [
    ("count --gamma Z:7 --target Sp --n 3",
     Namespace(command="count", fmt="json", gamma="Z:7", target="Sp", n=3,
               n_range=None)),
    ("count --gamma Dhat:5 --target SO_odd --n-range 0:12 --format csv",
     Namespace(command="count", fmt="csv", gamma="Dhat:5", target="SO_odd",
               n=None, n_range=(0, 12))),
    ("sectors --gamma Ohat --n 2 --family Spin_odd",
     Namespace(command="sectors", fmt="json", gamma="Ohat", family="Spin_odd",
               n=2)),
    ("irreps --gamma Ihat --format text",
     Namespace(command="irreps", fmt="text", gamma="Ihat")),
    ("mckay --gamma That", Namespace(command="mckay", fmt="json", gamma="That")),
    ("genfun --gamma Ohat --token refined:0,1:Sp --order 10",
     Namespace(command="genfun", fmt="json", gamma="Ohat",
               token="refined:0,1:Sp", order=10)),
    ("genfun --gamma Z:3",
     Namespace(command="genfun", fmt="json", gamma="Z:3", token="Sp",
               order=cli.GENFUN_ORDER)),
    ("smatrix --type E6 --level 2 --digits 8",
     Namespace(command="smatrix", fmt="json", ade_type="E6", level=2, digits=8)),
    ("smatrix --type E7 --level 1 --digits 12",
     Namespace(command="smatrix", fmt="json", ade_type="E7", level=1,
               digits=12)),
    ("verify duality --pair sp-so --max-n 12",
     Namespace(command="verify", suite="duality", fmt="json", gamma=None,
               pair="sp-so", max_n=12)),
    ("verify identities --prop KF1 --params 1;1;3;1,1,1",
     Namespace(command="verify", suite="identities", fmt="json", prop="KF1",
               params="1;1;3;1,1,1", random_draws=None, seed=None)),
    ("verify identities --random 5 --seed 42",
     Namespace(command="verify", suite="identities", fmt="json", prop=None,
               params=None, random_draws=5, seed=42)),
    ("verify zn-lattice --max-n 6 --max-rank 8",
     Namespace(command="verify", suite="zn-lattice", fmt="json", pair=None,
               max_rank=8, max_n=6)),
    ("verify smatrix --type A3 --max-n 4",
     Namespace(command="verify", suite="smatrix", fmt="json", ade_type="A3",
               max_n=4)),
    ("verify oracle --max-n 8 --format text",
     Namespace(command="verify", suite="oracle", fmt="text", max_n=8)),
]


@pytest.mark.parametrize("line,cfg", ROUND_TRIP_CONFIGS,
                         ids=[line for line, _ in ROUND_TRIP_CONFIGS])
def test_round_trip(line, cfg):
    assert parse_args(line.split()) == cfg


@pytest.mark.parametrize("argv,cfg", [
    (["count", "--gamma", "Ohat", "--target", "PU", "--n", "4",
      "--format", "text"],
     Namespace(command="count", fmt="text", gamma="Ohat", target="PU", n=4,
               n_range=None)),
    (["verify", "refined", "--gamma", "Z:6", "--max-n", "3"],
     Namespace(command="verify", suite="refined", fmt="json", gamma="Z:6",
               max_n=3)),
    (["verify", "identities", "--random", "2", "--seed", "7"],
     Namespace(command="verify", suite="identities", fmt="json", prop=None,
               params=None, random_draws=2, seed=7)),
], ids=["argv0", "argv1", "argv2"])
def test_parse_then_rebuild_is_stable(argv, cfg):
    # parsing leaves argv as it was, so a second parse gives the same config
    assert parse_args(argv) == cfg
    assert parse_args(argv) == cfg


# -- the installed entry point -------------------------------------------------------------


def test_module_invocation_matches_in_process(capsys):
    argv = ["count", "--gamma", "Ihat", "--target", "Sp", "--n", "2"]
    _, expected, _ = invoke(argv, capsys)
    proc = subprocess.run([sys.executable, "-m", "dualcount"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == expected
