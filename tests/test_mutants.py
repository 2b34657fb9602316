"""Checked-in mutants of the oracle walk and its kernel.

Each row of MUTANTS names a file under src/positroids, a piece of its text
that occurs there exactly once, the text that replaces it, and the tests
that must catch the change.  The row copies src/, tests/ and
pyproject.toml to a temporary directory, applies the edit there, runs the
named tests in a subprocess and passes when every one of them fails.  A
test that stops catching its mutant, or an edit whose text no longer
occurs once, fails the row.  The rows are opt-in and take about 15 s
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
         NECKLACE + "TestFusedWalk::"
         "test_census_state_rejects_bumped_neighbours[1-3]"],
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
