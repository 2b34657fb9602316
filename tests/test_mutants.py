"""Checked-in mutants of the oracle walk, its kernel, the Gale bounds, the
necklace, decorated permutation and Le-diagram pipe rules, and the CLI's
on-demand binding and oracle exit code.

Each row of MUTANTS names a file under src/positroids, a piece of its text
that occurs there exactly once, the text that replaces it, and the tests
that must catch the change.  The row copies src/, tests/ and
pyproject.toml to a temporary directory, applies the edit there, runs the
named tests in a subprocess and passes when every one of them fails.  A
test that stops catching its mutant, or an edit whose text no longer
occurs once, fails the row.  The rows are opt-in and take about 20 s
on 2 CPUs:

    POSITROIDS_MUTANTS=1 python -m pytest -q tests/test_mutants.py
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    not os.environ.get("POSITROIDS_MUTANTS"),
    reason="opt-in: set POSITROIDS_MUTANTS=1")

NECKLACE = "tests/test_necklace.py::"
KERNEL = NECKLACE + "TestSchubertKernel::"
ORACLE = "tests/test_cli.py::TestOracle::"

MUTANTS = [
    pytest.param(
        "necklace.py",
        "                if not (ok or state):\n",
        "                if not (ok or state) or i == n - 4:\n",
        [NECKLACE + "TestEnumeration::test_counts_match_census",
         NECKLACE + "TestFusedWalk::test_every_type[6]",
         ORACLE + "test_discrepancy_replays_through_check_sp"],
        id="replay-at-a-live-node"),
    pytest.param(
        "necklace.py",
        "    for first, _ in lex_subsets(n, kernel.k):\n"
        "        pools = [first | full >> i << i for i in range(n)]\n"
        "        memo = {}\n",
        "    memo = {}\n"
        "    for first, _ in lex_subsets(n, kernel.k):\n"
        "        pools = [first | full >> i << i for i in range(n)]\n",
        ["tests/test_trusted.py::TestAllNecklaces::"
         "test_same_sequence_as_recursive_walk[6]",
         KERNEL + "test_walk_replays_dead_subtrees[3-7-5111-521-5082]"],
        id="memo-shared-across-first-entries"),
    pytest.param(
        "necklace.py",
        "            nonbases, ok, state = acc[i - 1], sparse[i - 1], "
        "census[i - 1]\n",
        "            nonbases = acc[i - 1]\n",
        [NECKLACE + "TestEnumeration::test_counts_match_census",
         NECKLACE + "TestFusedWalk::test_every_type[5]"],
        id="no-flag-or-census-restore-on-resume"),
    pytest.param(
        "necklace.py",
        "                if not (ok or state):\n",
        "                if not ok:\n",
        [ORACLE + "test_census_side_discrepancies_replay_through_check_sp",
         ORACLE + "test_discrepancy_replays_through_check_sp"],
        id="prune-on-the-flag-alone"),
    pytest.param(
        "necklace.py",
        "                if not (ok or state):\n",
        "                if not state:\n",
        [KERNEL + "test_verdict_every_necklace[5]",
         NECKLACE + "TestFusedWalk::test_every_type[5]"],
        id="prune-on-the-census-state-alone"),
    pytest.param(
        "necklace.py",
        "over[b] = over[b + 1] | by[b + 1]",
        "over[b] = over[b + 1] | by[b]",
        [KERNEL + "test_rows_and_near_entries_match_the_eager_build[5]",
         KERNEL + "test_drawn_row_and_near_entry"],
        id="over-counts-its-own-bound"),
    pytest.param(
        "necklace.py",
        "for into in members_of(((1 << self.n) - 1) ^ mask))",
        "for into in members_of(((1 << self.n) - 1) ^ mask)[1:])",
        [KERNEL + "test_rows_and_near_entries_match_the_eager_build[5]",
         KERNEL + "test_drawn_row_and_near_entry"],
        id="near-row-missing-a-swap"),
    pytest.param(
        "necklace.py",
        "                state = state and cur in marks[i]\n",
        "                state = cur in marks[i]\n",
        [NECKLACE + "TestFusedWalk::test_census_state_alone[6]",
         ORACLE + "test_matroid_side_discrepancies_replay_through_check_sp"],
        id="census-state-forgets-the-prefix"),
    pytest.param(
        "necklace.py",
        "        if count < m:\n",
        "        if count < m - 1:\n",
        [NECKLACE + "TestGaleOrder::test_matches_brute_force[4]",
         NECKLACE + "TestGaleOrder::test_bounds_of_intervals",
         KERNEL + "test_rows_and_near_entries_match_the_eager_build[5]"],
        id="gale-bounds-drop-the-last-full-prefix"),
    pytest.param(
        "necklace.py",
        "        return not (cur ^ bit) & ~nxt\n",
        "        return cur == nxt\n",
        ["tests/test_cli.py::TestValidate::test_valid_necklace",
         "tests/test_acceptance.py::"
         "test_c4_cross_representation_consistency"],
        id="necklace-step-always-equal"),
    pytest.param(
        "decorated.py",
        "for i, c in dp.colors if c == -1))",
        "for i, c in dp.colors if c == 1))",
        ["tests/test_decorated.py::TestDecpermToNecklace::test_loop_example",
         "tests/test_cli.py::TestByteReplay::test_digest"],
        id="fixed-point-mark-flipped"),
    pytest.param(
        "le_diagram.py",
        "                row[r], col[c] = col[c], row[r]\n",
        "                row[r] = col[c]\n",
        ["tests/test_le_diagram.py::TestPipes::test_full_box_is_the_shift",
         "tests/test_le_diagram.py::TestPipes::test_every_diagram[5]",
         "tests/test_enumeration.py::TestCensus::"
         "test_pipes_give_the_census_permutation[6]"],
        id="le-pipes-copy-instead-of-swap"),
    pytest.param(
        "cli.py",
        "    return 0 if discrepancies == 0 else 2\n",
        "    return 0\n",
        [ORACLE + "test_discrepancy_replays_through_check_sp",
         ORACLE + "test_matroid_side_discrepancies_replay_through_check_sp"],
        id="oracle-exits-0-on-a-discrepancy"),
    pytest.param(
        "cli.py",
        "            if scope.get(name) is _bound.get(name):\n",
        "            if name not in scope:\n",
        ["tests/test_perfbench_hooks.py::"
         "test_cli_reads_a_name_from_its_module_unless_set_on_cli"],
        id="cli-keeps-a-stale-binding"),
]


@pytest.mark.parametrize("name,old,new,tests", MUTANTS)
def test_mutant_is_caught(name, old, new, tests):
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__",
                                                          ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "positroids" / name
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1, "the mutant's text no longer occurs once"
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *tests], cwd=copy, env=env, capture_output=True, text=True,
            timeout=300)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    caught = rf"{len(tests)} failed(, \d+ warnings?)? in "
    assert proc.returncode == 1 and re.match(caught, summary), \
        proc.stdout + proc.stderr
