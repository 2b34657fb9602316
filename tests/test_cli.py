import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from positroids import census_text, cli, decorated, le_diagram, necklace
from positroids import (
    Matroid,
    NonAdjacentSet,
    SparsePavingPositroid,
    cyclic_interval,
    enumerate_sparse_paving,
    le_from_removals,
    members_of,
    necklace_from_nonadjacent,
    nonadjacent_mask_ok,
    nonadjacent_subsets,
)

from oracles import (
    all_decorated_permutations,
    all_families,
    all_le_diagrams,
    brute_bases_verdict,
    census_matroid,
    determined_rank,
    uniform,
)


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env():
    """The environment for a `python -m positroids.cli` child that imports
    this checkout's package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src,
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


# cli_env() passes on the caller's PYTHONUNBUFFERED; with it set, sys.stdout
# writes each line through to the pipe, and without it, in blocks.
STDOUT_MODES = {"unbuffered": "1", "buffered": None}


def stdout_env(mode: str) -> dict:
    """cli_env() with PYTHONUNBUFFERED set for mode "unbuffered" and unset
    for mode "buffered"."""
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if STDOUT_MODES[mode] is not None:
        env["PYTHONUNBUFFERED"] = STDOUT_MODES[mode]
    return env


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def interval_necklace_dict(k, n):
    return {"n": n, "k": k,
            "entries": [list(members_of(cyclic_interval(k, n, i)))
                        for i in range(1, n + 1)]}


# The commands that read an le payload.
LE_COMMANDS = [
    pytest.param(["validate", "--kind", "le"], id="validate"),
    pytest.param(["convert", "--from", "le", "--to", "decperm"],
                 id="convert"),
    pytest.param(["check-sp", "--kind", "le"], id="check-sp"),
    pytest.param(["render-le"], id="render-le"),
]


class TestValidate:
    def test_valid_necklace(self, tmp_path, capsys):
        path = write_json(tmp_path, "neck.json", interval_necklace_dict(3, 6))
        code, out, err = run(capsys, ["validate", "--kind", "necklace", path])
        assert code == 0
        assert out == "valid\n"

    def test_invalid_necklace_names_the_index(self, tmp_path, capsys):
        payload = {"n": 4, "k": 2,
                   "entries": [[1, 3], [2, 4], [1, 3], [2, 4]]}
        path = write_json(tmp_path, "neck.json", payload)
        code, out, err = run(capsys, ["validate", "--kind", "necklace", path])
        assert code == 1
        assert "i=1" in err

    @pytest.mark.parametrize("argv", LE_COMMANDS)
    def test_invalid_le_names_the_cell(self, argv, tmp_path, capsys):
        payload = {"k": 2, "n": 4, "shape": [2, 2],
                   "filling": [[0, 1], [1, 0]]}
        path = write_json(tmp_path, "le.json", payload)
        code, out, err = run(capsys, [*argv, path])
        assert (code, out, err) == (
            1, "", "invalid: Le condition fails at cell (2, 2)\n")

    @pytest.mark.parametrize("argv", LE_COMMANDS)
    def test_le_payload_is_checked_once(self, argv, tmp_path, capsys,
                                        monkeypatch):
        """Every command that reads an le payload decides the Le condition
        once, in the LeDiagram constructor, and never again downstream."""
        calls = []
        check = le_diagram._require_le

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(le_diagram, "_require_le", counted)
        path = write_json(tmp_path, "le.json",
                          le_from_removals({3}, 3, 6).to_dict())
        code, _, err = run(capsys, [*argv, path])
        assert (code, err) == (0, "")
        assert len(calls) == 1

    def test_bases_exchange_failure(self, tmp_path, capsys):
        payload = {"n": 4, "k": 2, "bases": [[1, 2], [3, 4]]}
        path = write_json(tmp_path, "bases.json", payload)
        code, out, err = run(capsys, ["validate", "--kind", "bases", path])
        assert code == 1
        assert "exchange" in err

    def test_one_basis_at_large_n(self, tmp_path):
        """The round trip reads each Gale bound off the basis's one member,
        not all n positions; in a child, so a cubic walk fails on the
        timeout instead of hanging the suite."""
        path = write_json(tmp_path, "bases.json",
                          {"n": 6000, "k": 1, "bases": [[1]]})
        proc = subprocess.run(
            [sys.executable, "-m", "positroids.cli", "validate", "--kind",
             "bases", path], capture_output=True, text=True, env=cli_env(),
            timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, "valid\n", "")

    def test_parse_error_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{\"n\": 4,")
        code, out, err = run(capsys, ["validate", "--kind", "necklace",
                                      str(path)])
        assert code == 1
        assert "line" in err and "column" in err

    def test_decperm_color_keys_are_decimal_strings(self, tmp_path, capsys):
        payload = {"n": 3, "perm": [3, 2, 1], "colors": {"2": -1}}
        path = write_json(tmp_path, "perm.json", payload)
        code, out, err = run(capsys, ["validate", "--kind", "decperm", path])
        assert code == 0
        assert out == "valid\n"

    def test_reads_stdin(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["validate", "--kind", "nonadjacent"],
                             stdin=json.dumps({"n": 5, "members": [1, 3]}),
                             monkeypatch=monkeypatch)
        assert code == 0
        assert out == "valid\n"


class TestStrictPayloads:
    """Integers must be JSON integers and lists must be JSON lists: booleans,
    floats and strings are rejected with status 1, never coerced."""

    @pytest.mark.parametrize("argv,payload", [
        pytest.param(["check-sp", "--kind", "nonadjacent", "--k", "3"],
                     {"n": 6, "members": [3.7]}, id="float-member"),
        pytest.param(["validate", "--kind", "nonadjacent"],
                     {"n": True, "members": [1]}, id="bool-n"),
        pytest.param(["convert", "--from", "decperm", "--to", "necklace",
                      "--k", "3"],
                     {"n": 6, "perm": "456123"}, id="string-perm"),
        pytest.param(["validate", "--kind", "nonadjacent"],
                     {"n": 6, "members": [3, 3]}, id="repeated-member"),
        pytest.param(["validate", "--kind", "bases"],
                     {"n": 4, "k": 2, "bases": [[1, 2], [1, 2], [3, 4], [1, 3],
                                                [1, 4], [2, 3], [2, 4]]},
                     id="repeated-basis"),
        pytest.param(["convert", "--from", "bases", "--to", "necklace"],
                     {"n": 4, "k": 2, "bases": [[1, 2], [2, 1], [3, 4], [1, 3],
                                                [1, 4], [2, 3], [2, 4]]},
                     id="repeated-basis-reordered"),
        pytest.param(["validate", "--kind", "nonadjacent"],
                     {"n": 6, "members": ["3"]}, id="string-member"),
        pytest.param(["validate", "--kind", "necklace"],
                     {"n": 4, "k": 2.0,
                      "entries": [[1, 2], [2, 3], [3, 4], [4, 1]]},
                     id="float-k"),
        pytest.param(["validate", "--kind", "necklace"],
                     {"n": 4, "k": 2, "entries": ["12", "23", "34", "41"]},
                     id="string-entries"),
        pytest.param(["validate", "--kind", "bases"],
                     {"n": 4, "k": 2, "bases": [[1, "2"]]},
                     id="string-basis-element"),
        pytest.param(["validate", "--kind", "bases"],
                     {"n": 4, "k": 1, "bases": "12"}, id="string-bases"),
        pytest.param(["validate", "--kind", "le"],
                     {"k": 2, "n": 4, "shape": [2, True],
                      "filling": [[1, 1], [1]]}, id="bool-shape"),
        pytest.param(["validate", "--kind", "le"],
                     {"k": 2, "n": 4, "shape": [2, 2],
                      "filling": [[1, 1], [1, 2]]}, id="filling-cell-2"),
        pytest.param(["validate", "--kind", "decperm"],
                     {"n": 3, "perm": [3, 2, 1], "colors": {"2": True}},
                     id="bool-color"),
        pytest.param(["validate", "--kind", "decperm"],
                     {"n": 3, "perm": [3, 2, 1], "colors": {"+2": -1}},
                     id="signed-color-key"),
        pytest.param(["validate", "--kind", "decperm"],
                     {"n": 3, "perm": [3, 2, 1], "colors": {"02": -1}},
                     id="leading-zero-color-key"),
        pytest.param(["convert", "--from", "decperm", "--to", "necklace",
                      "--k", "1"],
                     {"n": 3, "perm": [3, 2, 1], "colors": {"2": -1, "02": 1}},
                     id="duplicate-color-key"),
    ])
    def test_rejected(self, argv, payload, tmp_path, capsys):
        path = write_json(tmp_path, "payload.json", payload)
        code, out, err = run(capsys, argv + [path])
        assert code == 1
        assert out == ""
        assert err.startswith("invalid:")

    # Each integer is checked once, by the constructor that reads it, and
    # the message names what that constructor calls it.
    @pytest.mark.parametrize("kind,payload,message", [
        pytest.param("bases", {"n": 4, "k": 2, "bases": [[1, True]]},
                     "element must be an integer, got bool",
                     id="bool-basis-element"),
        pytest.param("nonadjacent", {"n": 6, "members": [True]},
                     "element must be an integer, got bool",
                     id="bool-member"),
        pytest.param("nonadjacent", {"n": 6, "members": [1, 3.0]},
                     "element must be an integer, got float",
                     id="float-member"),
        pytest.param("le", {"k": 2, "n": 4, "shape": [2, True],
                            "filling": [[1, 1], [1]]},
                     "shape width must be an integer, got bool",
                     id="bool-shape"),
        pytest.param("le", {"k": 2, "n": 4, "shape": [2, 1],
                            "filling": [[1, True], [1]]},
                     "filling row entry must be an integer, got bool",
                     id="bool-filling-cell"),
        pytest.param("decperm", {"n": 3, "perm": [3, True, 1]},
                     "perm entry must be an integer, got bool",
                     id="bool-perm-entry"),
    ])
    def test_message(self, kind, payload, message, tmp_path, capsys):
        path = write_json(tmp_path, "payload.json", payload)
        assert run(capsys, ["validate", "--kind", kind, path]) == \
            (1, "", f"invalid: {message}\n")

    # A repeated key would otherwise keep only its last value.
    @pytest.mark.parametrize("argv,text,key", [
        pytest.param(["convert", "--from", "decperm", "--to", "necklace",
                      "--k", "1"],
                     '{"n":3,"perm":[3,2,1],"colors":{"2":-1,"2":1}}', "2",
                     id="decperm"),
        pytest.param(["validate", "--kind", "nonadjacent"],
                     '{"n":4,"k":2,"n":5,"members":[1]}', "n",
                     id="nonadjacent"),
        pytest.param(["validate", "--kind", "necklace"],
                     '{"n":2,"k":1,"entries":[[1],[2]],"k":1}', "k",
                     id="necklace"),
        pytest.param(["validate", "--kind", "bases"],
                     '{"n":2,"k":1,"bases":[[1]],"bases":[[1],[2]]}',
                     "bases", id="bases"),
        pytest.param(["validate", "--kind", "le"],
                     '{"k":1,"n":2,"shape":[1],"filling":[[1]],'
                     '"filling":[[0]]}', "filling", id="le"),
    ])
    def test_duplicate_key(self, argv, text, key, tmp_path, capsys):
        path = tmp_path / "payload.json"
        path.write_text(text)
        assert run(capsys, argv + [str(path)]) == \
            (1, "", f'invalid: duplicate key "{key}"\n')


HUGE = "1" + "0" * 100
# 2**62 bits can never be mapped, so building 1 << n fails at once with
# MemoryError and nothing is allocated.
UNMAPPABLE = 2 ** 62


class TestHostilePayloads:
    """Payloads that once escaped as a traceback: nesting deeper than the
    JSON decoder's recursion limit, and a ground size too large for a
    machine-sized shift or list length, or for memory.  Each runs in its
    own process so the check covers what the shell sees."""

    @pytest.mark.parametrize("argv,text", [
        pytest.param(["validate", "--kind", "necklace"], "[" * 50000,
                     id="deep-nesting"),
        pytest.param(["validate", "--kind", "nonadjacent"],
                     f'{{"n":{HUGE},"members":[1]}}', id="huge-n-nonadjacent"),
        pytest.param(["validate", "--kind", "bases"],
                     f'{{"n":{HUGE},"k":1,"bases":[[1]]}}', id="huge-n-bases"),
        pytest.param(["validate", "--kind", "le"],
                     f'{{"k":1,"n":{HUGE},"shape":[],"filling":[]}}',
                     id="huge-n-le"),
        pytest.param(["validate", "--kind", "nonadjacent"],
                     f'{{"n":{UNMAPPABLE},"members":[]}}',
                     id="unmappable-n-validate-nonadjacent"),
        pytest.param(["validate", "--kind", "bases"],
                     f'{{"n":{UNMAPPABLE},"k":1,"bases":[[1]]}}',
                     id="unmappable-n-validate-bases"),
        pytest.param(["convert", "--from", "nonadjacent", "--to", "necklace",
                      "--k", "2"], f'{{"n":{UNMAPPABLE},"members":[]}}',
                     id="unmappable-n-convert-nonadjacent"),
    ])
    def test_exits_one_without_traceback(self, argv, text, tmp_path):
        path = tmp_path / "payload.json"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "positroids.cli", *argv, str(path)],
            capture_output=True, text=True, timeout=60, env=cli_env())
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("invalid:")
        assert "Traceback" not in proc.stderr


class TestMalformedNecklace:
    """Each way a necklace payload can be wrong gets its own one-line
    message on stderr, with status 1 and nothing on stdout."""

    @pytest.mark.parametrize("entries,k,message", [
        pytest.param([[1, 2], [2, 3], [3, 4]], 2,
                     "entry count must equal the ground size", id="count"),
        pytest.param([[1, 2], [2, 3], [3, 4], [4]], 2,
                     "entry size differs from k", id="size"),
        pytest.param([[1, 2], [2, 3], [3, 4], [4, 5]], 2,
                     "element 5 outside ground set [1, 4]", id="range"),
        pytest.param([[1, 2], [2, 3], [3, 4], [4, 4]], 2,
                     "repeated element 4", id="repeat"),
        pytest.param([[1, 2], [2, 3], [3, 4], [4, 1]], 3,
                     "declared k differs from the entry size",
                     id="declared-k"),
        pytest.param([], 2, "no entries", id="empty"),
        pytest.param([[1, 3], [2, 4], [1, 3], [2, 4]], 2,
                     "necklace axiom fails at i=1: the next entry must "
                     "contain the current one minus {1}", id="axiom"),
        pytest.param([[1, 2], [2, 3], [3, 4], [True, 4]], 2,
                     "element must be an integer, got bool", id="bool"),
    ])
    def test_message(self, entries, k, message, tmp_path, capsys):
        path = write_json(tmp_path, "neck.json",
                          {"n": 4, "k": k, "entries": entries})
        code, out, err = run(capsys, ["validate", "--kind", "necklace", path])
        assert (code, out, err) == (1, "", f"invalid: {message}\n")


class TestMalformedPayload:
    """A payload of the wrong JSON type, or one missing its fields, exits 1
    with a message that names the kind and the loader's complaint: for an
    object, the first field it reads."""

    @pytest.mark.parametrize("kind,text,detail", [
        *((kind, "[]", "list indices must be integers or slices, not str")
          for kind in cli.KINDS),
        ("necklace", "{}", "'n'"),
        ("decperm", "{}", "'perm'"),
        ("le", "{}", "'filling'"),
        ("bases", "{}", "'n'"),
        ("nonadjacent", "{}", "'n'"),
    ])
    def test_message(self, kind, text, detail, capsys, monkeypatch):
        assert run(capsys, ["validate", "--kind", kind], text,
                   monkeypatch) == (
            1, "", f"invalid: malformed {kind} payload: {detail}\n")


class TestConvert:
    def test_necklace_to_decperm(self, tmp_path, capsys):
        path = write_json(tmp_path, "neck.json", interval_necklace_dict(3, 6))
        code, out, err = run(capsys, ["convert", "--from", "necklace",
                                      "--to", "decperm", path])
        assert code == 0
        assert json.loads(out) == {"n": 6, "perm": [4, 5, 6, 1, 2, 3],
                                   "colors": {}}

    def test_nonadjacent_to_le(self, tmp_path, capsys):
        path = write_json(tmp_path, "a.json", {"n": 6, "members": [3]})
        code, out, err = run(capsys, ["convert", "--from", "nonadjacent",
                                      "--to", "le", "--k", "3", path])
        assert code == 0
        assert json.loads(out) == le_from_removals({3}, 3, 6).to_dict()

    def test_bases_rejects_non_positroid(self, tmp_path, capsys):
        payload = {"n": 4, "k": 2,
                   "bases": [[1, 2], [1, 4], [2, 3], [2, 4], [3, 4]]}
        path = write_json(tmp_path, "bases.json", payload)
        code, out, err = run(capsys, ["convert", "--from", "bases",
                                      "--to", "necklace", path])
        assert code == 2
        assert "not a positroid" in err

    def test_non_sparse_paving_cannot_reach_nonadjacent(self, tmp_path,
                                                        capsys):
        payload = {"n": 4, "k": 2, "bases": [[1, 2], [1, 3], [2, 3]]}
        path = write_json(tmp_path, "bases.json", payload)
        code, out, err = run(capsys, ["convert", "--from", "bases",
                                      "--to", "nonadjacent", path])
        assert code == 2
        assert "not sparse paving" in err

    def test_decperm_requires_k(self, tmp_path, capsys):
        payload = {"n": 6, "perm": [4, 5, 6, 1, 2, 3], "colors": {}}
        path = write_json(tmp_path, "perm.json", payload)
        code, out, err = run(capsys, ["convert", "--from", "decperm",
                                      "--to", "necklace", path])
        assert code == 1
        assert "--k" in err

    def test_le_ascii_output(self, tmp_path, capsys):
        path = write_json(tmp_path, "a.json", {"n": 4, "members": []})
        code, out, err = run(capsys, ["convert", "--from", "nonadjacent",
                                      "--to", "le", "--k", "2",
                                      "--format", "ascii", path])
        assert code == 0
        assert out == "* * 1\n* * 2\n4 3\n"

    def test_ascii_needs_le_target(self, tmp_path, capsys):
        path = write_json(tmp_path, "le.json",
                          le_from_removals({3}, 3, 6).to_dict())
        code, out, err = run(capsys, ["convert", "--from", "le",
                                      "--to", "necklace",
                                      "--format", "ascii", path])
        assert code == 1
        assert out == ""
        assert err.startswith("invalid:") and "--to le" in err


class TestBoundedLeWork:
    """An `le` payload reaches the necklace through its pipes, in time
    polynomial in n, so the (40, 20) box answers at once.  Each request runs
    in a child, so a route that walks the C(40, 20) k-subsets fails on the
    timeout instead of hanging the suite.  The negative check-sp witness
    and `--to bases` list k-subsets by nature and are left out."""

    EMPTY = {"k": 20, "n": 40, "shape": [], "filling": []}
    FULL = {"k": 20, "n": 40, "shape": [20] * 20,
            "filling": [[1] * 20] * 20}

    def child(self, tmp_path, payload, *argv):
        path = write_json(tmp_path, "le.json", payload)
        return subprocess.run(
            [sys.executable, "-m", "positroids.cli", *argv, path],
            capture_output=True, text=True, env=cli_env(), timeout=10)

    @pytest.mark.parametrize("dst,code", [
        ("necklace", 0), ("decperm", 0), ("le", 2), ("nonadjacent", 2)])
    def test_empty_shape(self, tmp_path, dst, code):
        proc = self.child(tmp_path, self.EMPTY,
                          "convert", "--from", "le", "--to", dst)
        assert proc.returncode == code, proc.stderr
        if dst == "decperm":
            # Sinks 1..20 and sources 21..40, each a marked fixed point.
            assert json.loads(proc.stdout) == {
                "n": 40, "perm": list(range(1, 41)),
                "colors": {str(i): 1 if i <= 20 else -1
                           for i in range(1, 41)}}

    @pytest.mark.parametrize("dst", ["necklace", "decperm", "le",
                                     "nonadjacent"])
    def test_full_box(self, tmp_path, dst):
        proc = self.child(tmp_path, self.FULL,
                          "convert", "--from", "le", "--to", dst)
        assert proc.returncode == 0, proc.stderr
        if dst == "le":
            assert json.loads(proc.stdout) == self.FULL

    def test_full_box_check_sp(self, tmp_path):
        proc = self.child(tmp_path, self.FULL, "check-sp", "--kind", "le")
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, "sparse-paving A={}\ncircuit-hyperplanes: []\n", "")

    def test_pipes_mark_in_linear_time(self):
        # The empty (60000, 30000) shape: 60000 marked fixed points, each
        # marked where its pipe's end is read.  Finding a fixed point's side
        # by a search of the k source labels took 26 s on a 2-CPU host.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys\n"
             "from positroids import LeDiagram, le_to_decperm\n"
             "dp = le_to_decperm(LeDiagram(30000, 60000, (), ()))\n"
             "json.dump([dp.perm, dp.colors], sys.stdout)"],
            capture_output=True, text=True, env=cli_env(), timeout=10)
        assert proc.returncode == 0, proc.stderr
        perm, colors = json.loads(proc.stdout)
        # Sinks 1..30000 and sources 30001..60000.
        assert perm == list(range(1, 60001))
        assert colors == [[i, 1 if i <= 30000 else -1]
                          for i in range(1, 60001)]


class TestCheckSp:
    def test_necklace_witness(self, tmp_path, capsys):
        neck = necklace_from_nonadjacent({1}, 2, 4)
        path = write_json(tmp_path, "neck.json", neck.to_dict())
        code, out, err = run(capsys, ["check-sp", "--kind", "necklace", path])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sparse-paving A={1}"
        assert lines[1] == "circuit-hyperplanes: [[1,2]]"

    def test_loop_necklace_negative(self, tmp_path, capsys):
        payload = {"n": 4, "k": 2,
                   "entries": [[1, 2], [2, 3], [1, 3], [1, 2]]}
        path = write_json(tmp_path, "neck.json", payload)
        code, out, err = run(capsys, ["check-sp", "--kind", "necklace", path])
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "not sparse-paving"
        assert lines[1] == "witness: [1,4] [2,4]"

    def test_decperm_witness(self, tmp_path, capsys):
        payload = {"n": 6, "perm": [4, 6, 5, 1, 2, 3], "colors": {}}
        path = write_json(tmp_path, "perm.json", payload)
        code, out, err = run(capsys, ["check-sp", "--kind", "decperm",
                                      "--k", "3", path])
        assert code == 0
        assert out.splitlines()[0] == "sparse-paving A={3}"

    def test_out_of_range_rank(self, tmp_path, capsys):
        path = write_json(tmp_path, "a.json", {"n": 4, "members": [1]})
        code, out, err = run(capsys, ["check-sp", "--kind", "nonadjacent",
                                      "--k", "1", path])
        assert code == 1

    def test_bases_must_be_a_positroid(self, tmp_path, capsys):
        payload = {"n": 4, "k": 2,
                   "bases": [[1, 2], [1, 4], [2, 3], [2, 4], [3, 4]]}
        path = write_json(tmp_path, "bases.json", payload)
        code, out, err = run(capsys, ["check-sp", "--kind", "bases", path])
        assert code == 2
        assert "not a positroid" in err

    def test_adjacent_removals_fail_via_le(self, tmp_path, capsys):
        payload = le_from_removals({1, 2}, 2, 5).to_dict()
        path = write_json(tmp_path, "le.json", payload)
        code, out, err = run(capsys, ["check-sp", "--kind", "le", path])
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "not sparse-paving"
        assert lines[1] == "witness: [1,2] [2,3]"

    def test_verdicts_agree_across_representations(self, tmp_path, capsys):
        for entry in enumerate_sparse_paving(2, 5):
            payloads = {
                "necklace": entry.necklace.to_dict(),
                "decperm": entry.perm.to_dict(),
                "le": entry.diagram.to_dict(),
                "bases": census_matroid(entry).to_dict(),
            }
            outputs = set()
            for kind, payload in payloads.items():
                path = write_json(tmp_path, f"{kind}.json", payload)
                argv = ["check-sp", "--kind", kind, path]
                if kind == "decperm":
                    argv += ["--k", "2"]
                code, out, err = run(capsys, argv)
                assert code == 0
                outputs.add(out)
            assert len(outputs) == 1


def bases_without(n, k, missing):
    return {"n": n, "k": k,
            "bases": [list(c)
                      for c in itertools.combinations(range(1, n + 1), k)
                      if c not in missing]}


SP_OUT = ("sparse-paving A={1,4}\n"
          "circuit-hyperplanes: [[1,2,3],[4,5,6]]\n")
NOT_SP_OUT = "not sparse-paving\nwitness: [1,2,3] [2,3,4]\n"
SP_NECKLACE = {"n": 6, "k": 3,
               "entries": [[1, 2, 4], [2, 3, 4], [3, 4, 5], [1, 4, 5],
                           [1, 5, 6], [1, 2, 6]]}
NOT_SP_NECKLACE = {"n": 6, "k": 3,
                   "entries": [[1, 2, 4], [2, 4, 5], [3, 4, 5], [4, 5, 6],
                               [1, 5, 6], [1, 2, 6]]}


class TestCheckSpKinds:
    """Every --kind goes through one necklace dispatch.  A positive payload
    (the positroid indexed by A = {1, 4} at n = 6, k = 3) and a negative one
    (Le-diagram removals {1, 2}) per kind; the expected bytes were recorded
    before the dispatch was shared."""

    @pytest.mark.parametrize("kind,payload,code,out,err", [
        ("necklace", SP_NECKLACE, 0, SP_OUT, ""),
        ("necklace", NOT_SP_NECKLACE, 2, NOT_SP_OUT, ""),
        ("decperm", {"n": 6, "perm": [3, 5, 1, 6, 2, 4], "colors": {}},
         0, SP_OUT, ""),
        ("decperm", {"n": 6, "perm": [5, 3, 6, 1, 2, 4], "colors": {}},
         2, NOT_SP_OUT, ""),
        ("le", {"k": 3, "n": 6, "shape": [3, 3, 2],
                "filling": [[0, 1, 1], [1, 1, 1], [1, 1]]},
         0, SP_OUT, ""),
        ("le", {"k": 3, "n": 6, "shape": [3, 3, 2],
                "filling": [[1, 1, 0], [1, 1, 1], [1, 1]]},
         2, NOT_SP_OUT, ""),
        ("bases", bases_without(6, 3, {(1, 2, 3), (4, 5, 6)}),
         0, SP_OUT, ""),
        ("bases", bases_without(6, 3, {(1, 2, 3), (2, 3, 4), (2, 3, 5),
                                       (2, 3, 6)}),
         2, NOT_SP_OUT, ""),
        ("nonadjacent", {"n": 6, "members": [1, 4]}, 0, SP_OUT, ""),
        ("nonadjacent", {"n": 6, "members": [1, 2]}, 1, "",
         "invalid: set contains cyclically adjacent elements\n"),
    ])
    def test_bytes(self, kind, payload, code, out, err, tmp_path, capsys):
        path = write_json(tmp_path, "payload.json", payload)
        argv = ["check-sp", "--kind", kind, path]
        if kind in ("decperm", "nonadjacent"):
            argv += ["--k", "3"]
        assert run(capsys, argv) == (code, out, err)


EXCHANGE_ERR = "invalid: bases do not satisfy the exchange axiom\n"
NOT_MATROID = {"n": 4, "k": 2, "bases": [[1, 2], [3, 4]]}
NOT_POSITROID = {"n": 4, "k": 2,
                 "bases": [[1, 2], [1, 4], [2, 3], [2, 4], [3, 4]]}
POSITROID = bases_without(5, 2, {(3, 4)})
VALIDATE = ["validate", "--kind", "bases"]
CONVERT = ["convert", "--from", "bases", "--to", "necklace"]
CHECK_SP = ["check-sp", "--kind", "bases"]


class TestBasesBytes:
    """A non-matroid, a matroid that is not a positroid, and a positroid
    through every command that loads bases.  The expected bytes were
    recorded while the exchange axiom still ran before the necklace round
    trip."""

    @pytest.mark.parametrize("argv,payload,expected", [
        pytest.param(VALIDATE, NOT_MATROID, (1, "", EXCHANGE_ERR),
                     id="validate-not-matroid"),
        pytest.param(CONVERT, NOT_MATROID, (1, "", EXCHANGE_ERR),
                     id="convert-not-matroid"),
        pytest.param(CHECK_SP, NOT_MATROID, (1, "", EXCHANGE_ERR),
                     id="check-sp-not-matroid"),
        pytest.param(VALIDATE, NOT_POSITROID, (0, "valid\n", ""),
                     id="validate-not-positroid"),
        pytest.param(CONVERT, NOT_POSITROID, (2, "", "not a positroid\n"),
                     id="convert-not-positroid"),
        pytest.param(CHECK_SP, NOT_POSITROID, (2, "", "not a positroid\n"),
                     id="check-sp-not-positroid"),
        pytest.param(VALIDATE, POSITROID, (0, "valid\n", ""),
                     id="validate-positroid"),
        pytest.param(CONVERT, POSITROID,
                     (0, '{"entries":[[1,2],[2,3],[3,5],[4,5],[1,5]],'
                         '"k":2,"n":5}\n', ""),
                     id="convert-positroid"),
        pytest.param(CHECK_SP, POSITROID,
                     (0, "sparse-paving A={3}\n"
                         "circuit-hyperplanes: [[3,4]]\n", ""),
                     id="check-sp-positroid"),
    ])
    def test_bytes(self, argv, payload, expected, tmp_path, capsys):
        path = write_json(tmp_path, "bases.json", payload)
        assert run(capsys, argv + [path]) == expected


def scrambled(kind, payload):
    """The payload with the members of every basis or entry reversed and,
    for bases, the family reversed."""
    key = "bases" if kind == "bases" else "entries"
    rows = [row[::-1] for row in payload[key]]
    if kind == "bases":
        rows = rows[::-1]
    return dict(payload, **{key: rows})


class TestMemberOrder:
    """The bases and necklace loaders take members, and the bases loader
    takes bases, in any order: a scrambled payload gives the stdout and exit
    code of its sorted form on convert and check-sp.  A repeated basis is
    refused (TestStrictPayloads)."""

    @pytest.mark.parametrize("kind,payload", [
        ("bases", bases_without(6, 3, {(1, 2, 3), (4, 5, 6)})),
        ("bases", bases_without(6, 3, {(1, 2, 3), (2, 3, 4), (2, 3, 5),
                                       (2, 3, 6)})),
        ("necklace", SP_NECKLACE),
        ("necklace", NOT_SP_NECKLACE),
    ])
    @pytest.mark.parametrize("command", ["convert", "check-sp"])
    def test_same_bytes(self, kind, payload, command, tmp_path, capsys):
        if command == "convert":
            target = "necklace" if kind == "bases" else "bases"
            argv = ["convert", "--from", kind, "--to", target]
        else:
            argv = ["check-sp", "--kind", kind]
        sorted_path = write_json(tmp_path, "sorted.json", payload)
        other = scrambled(kind, payload)
        assert other != payload
        other_path = write_json(tmp_path, "scrambled.json", other)
        assert run(capsys, argv + [other_path]) == \
            run(capsys, argv + [sorted_path])


def bases_verdict(n, k, family):
    """Exit code and stderr line of a `bases` payload through the loader and
    the `bases` row's route to the necklace, worded as `cli.main` reports
    them."""
    payload = {"n": n, "k": k, "bases": [sorted(b) for b in family]}
    try:
        cli._ROWS["bases"][1](cli._load("bases", payload), k)
    except (cli.CliError, ValueError) as exc:
        return 1, f"invalid: {exc}"
    except cli.NegativeVerdict as verdict:
        return 2, str(verdict)
    return 0, ""


def assert_bases_order(n, k):
    """Every nonempty family of k-subsets of [n] gets, from the loader's
    round-trip-first order, the verdict of the exchange-first order as the
    brute-force oracles compute it.  Returns the number of families."""
    count = 0
    for fam in all_families(n, k):
        assert bases_verdict(n, k, fam) == brute_bases_verdict(n, k, fam), \
            sorted(map(sorted, fam))
        count += 1
    return count


class TestBasesOrder:
    def test_every_family_up_to_five(self):
        total = sum(assert_bases_order(n, k)
                    for n in range(1, 6) for k in range(0, n + 1))
        assert total == 2228


def watch_matroid_builds(monkeypatch) -> list:
    """The list that every Matroid built from now on is appended to.  A
    Matroid comes from the validating constructor, which runs
    __post_init__, or from the trusted one, which skips it; both are
    watched."""
    built = []
    monkeypatch.setattr(Matroid, "__post_init__",
                        lambda self: built.append(self))
    monkeypatch.setattr(Matroid, "_trusted",
                        classmethod(lambda cls, *fields:
                                    built.append(fields)))
    return built


def assert_lines_are_views(out: str, k: int, n: int) -> list:
    """Assert that the census output holds one line per entry, each the
    sorted compact JSON of the entry's five to_dict views with the bases
    from census_matroid, and return the entries."""
    lines = out.splitlines()
    entries = list(enumerate_sparse_paving(k, n))
    assert len(lines) == len(entries)
    for line, entry in zip(lines, entries):
        assert line == views_line(entry)
    return entries


def views_line(entry) -> str:
    """The census line of an entry, without its newline, as the sorted
    compact JSON of its five to_dict views, the bases from census_matroid."""
    views = {
        "A": list(entry.nonadjacent.members),
        "necklace": entry.necklace.to_dict(),
        "perm": entry.perm.to_dict(),
        "le": entry.diagram.to_dict(),
        "bases": census_matroid(entry).to_dict(),
    }
    return json.dumps(views, sort_keys=True, separators=(",", ":"))


class TestSharedEncoder:
    """cli._dumps is one encoder built at import and shared by every
    command; it must print what json.dumps with the same options prints."""

    SAMPLES = [
        {"z": {"b": [1, {"y": None, "x": True}], "a": []}, "a": [[[]], {}],
         "m": {"2": 2, "10": 10, "1": 1.5}},
        ["Möbius", "Plücker–Grassmann", "\u2603", "\U0001d4dd",
         {"ü": "é", "e": "\x00\n\""}],
        [10 ** 40, -(2 ** 100), 3 ** 600, {"n": -(10 ** 300) + 1}],
    ]

    @staticmethod
    def expected(obj) -> str:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("obj", SAMPLES)
    def test_matches_json_dumps(self, obj):
        assert cli._dumps(obj) == self.expected(obj)

    def test_recovers_after_a_circular_list(self):
        loop = [1]
        loop.append(loop)
        with pytest.raises(ValueError):
            cli._dumps(loop)
        loop.pop()
        assert cli._dumps(loop) == "[1]"
        for obj in self.SAMPLES:
            assert cli._dumps(obj) == self.expected(obj)


# Line count and stdout sha256 of the census of each type, keyed (n, k).
GOLDEN_CENSUS = {
    (8, 4): (47, "8de37483555c3912c51034ea7d1de2ca"
                 "01d85fb5eb5c0edc4e48d1b0ced60da9"),
    (9, 4): (76, "849c4f88227da211e428af7a01eee6b0"
                 "9cb7e58f11793d2305182334df8799d8"),
    (10, 5): (123, "625dc92ce69b35354040d156c14c36f5"
                   "f0e68002193487773cf231c699dafe0f"),
    (12, 6): (322, "e47dfb7bef9db75d9cbb8eb26e7d8193"
                   "eaea2c4d30184c49b44247eaa1c7923b"),
    (9, 2): (76, "8f93ada4605c4d37d2a357973d72854c"
                 "2e2042c745bea135ace9268f828507a4"),
    (9, 7): (76, "78c377fa99c4726ebcb40304c2979bf0"
                 "66e91392ceaeb0072c76abb9e6a3e1ea"),
    (14, 7): (843, "67cd39e583f693eccf60f96a64647836"
                   "1e28d31d72d859fbbc470531c3b6ee51"),
    # Past n = 15 with k <= 3, where A's list, the view fragments and the
    # bases each read several windows of the witness mask.
    (16, 3): (2207, "40394cf351cdc0dcf2735674682f1717"
                    "d65bf6272c2fffe7a0031cf120bfb3ac"),
    (17, 2): (3571, "0dae1a071dddb675cb57081d75d34d58"
                    "28c8e6b5125124114c638a27af630607"),
}


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, err = run(capsys, ["enumerate", "--n", "6", "--k", "3",
                                      "--count-only"])
        assert code == 0
        assert out == "18\n"

    def test_rank_one_count(self, capsys):
        code, out, err = run(capsys, ["enumerate", "--n", "5", "--k", "1",
                                      "--count-only"])
        assert code == 0
        assert out == "6\n"

    def test_count_only_at_the_budget(self, capsys):
        code, out, err = run(capsys, ["enumerate", "--n", "20000", "--k", "3",
                                      "--count-only"])
        assert code == 0
        assert len(out) == 4181 and out.endswith("\n")

    @pytest.mark.parametrize("n", [21000, 10**9])
    def test_count_only_beyond_the_budget(self, n):
        """Refused at once, in a child so that a count that never returns
        fails on the timeout instead of hanging the suite."""
        proc = subprocess.run(
            [sys.executable, "-m", "positroids.cli", "enumerate", "--n",
             str(n), "--k", "3", "--count-only"],
            capture_output=True, env=cli_env(), timeout=10)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr == \
            f"invalid: n={n} exceeds the count budget 20000\n".encode()

    def test_census_lines(self, capsys):
        code, out, err = run(capsys, ["enumerate", "--n", "4", "--k", "2"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        first = json.loads(lines[0])
        assert set(first) == {"A", "necklace", "perm", "le", "bases"}
        assert first["A"] == []
        assert first["bases"] == uniform(2, 4).to_dict()

    def test_census_rejects_extreme_rank(self, capsys):
        code, out, err = run(capsys, ["enumerate", "--n", "5", "--k", "1"])
        assert (code, out, err) == (1, "", "invalid: classification needs "
                                    "2 <= k <= n-2, got k=1, n=5\n")

    def test_closed_stdout_exits_quietly(self):
        # In both stdout modes: the census fails its write on the first
        # line after the close when unbuffered, on a later block otherwise.
        for mode in STDOUT_MODES:
            proc = subprocess.Popen(
                [sys.executable, "-m", "positroids.cli",
                 "enumerate", "--n", "10", "--k", "5"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=stdout_env(mode))
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
            assert json.loads(first)["A"] == [], mode
            assert (proc.returncode, err) == (0, b""), mode

    @pytest.mark.parametrize("mode", STDOUT_MODES)
    def test_golden_census_bytes_through_a_pipe(self, mode):
        """The (12,6) census that the benchmark times, written by a child
        process to a pipe, with stdout unbuffered and buffered."""
        proc = subprocess.run(
            [sys.executable, "-m", "positroids.cli",
             "enumerate", "--n", "12", "--k", "6"],
            capture_output=True, env=stdout_env(mode), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.count(b"\n") == 322
        assert hashlib.sha256(proc.stdout).hexdigest() == \
            GOLDEN_CENSUS[12, 6][1]

    @pytest.mark.parametrize("n,k,lines,digest", [
        (n, k, lines, digest)
        for (n, k), (lines, digest) in GOLDEN_CENSUS.items()])
    def test_golden_census_bytes(self, n, k, lines, digest, capsys):
        code, out, err = run(capsys, ["enumerate", "--n", str(n),
                                      "--k", str(k)])
        assert code == 0
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", range(4, 11))
    def test_lines_equal_dumps_of_the_views(self, n, capsys):
        """Each census line, spliced from the pre-rendered basis list, is
        the sorted compact JSON of the five to_dict views.  That includes
        the lines whose A holds n - k + 1, which cut out the last k-subset
        in lexicographic order, {n-k+1, ..., n}, and with it the last
        fragment of the list."""
        for k in range(2, n - 1):
            code, out, err = run(capsys, ["enumerate", "--n", str(n),
                                          "--k", str(k)])
            assert code == 0
            entries = assert_lines_are_views(out, k, n)
            assert any(n - k + 1 in entry.nonadjacent for entry in entries)

    @settings(max_examples=3, deadline=None)
    @given(st.integers(11, 13).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(2, n - 2))))
    @example((12, 2))
    @example((13, 2))
    @example((13, 3))
    def test_lines_equal_dumps_past_ten(self, nk):
        """The same past n = 10, where labels take two digits in the bases,
        the necklace and the permutation, including the lines whose A holds
        1, n - k + 1 or n.  The fixed examples have Le-diagram rows of
        two-digit width, 10 at (12,2) and (13,3) and 11 at (13,2); when A
        holds 1 the last row is trimmed to 9, one digit fewer, or to 10."""
        n, k = nk
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["enumerate", "--n", str(n), "--k", str(k)]) == 0
        entries = assert_lines_are_views(out.getvalue(), k, n)
        for label in (1, n - k + 1, n):
            assert any(label in entry.nonadjacent for entry in entries)

    def test_census_builds_views_once_per_type(self, monkeypatch, capsys):
        """The views are built for the empty witness and the n singletons
        only, never per line: at (9,4), 76 lines, each builder and the
        encoder run at most n + 1 = 10 times, wherever a positroids module
        holds them."""
        real = {
            "necklace_from_nonadjacent": necklace.necklace_from_nonadjacent,
            "necklace_to_decperm": decorated.necklace_to_decperm,
            "le_from_removals": le_diagram.le_from_removals,
            "_dumps": cli._dumps,
        }
        calls = dict.fromkeys(real, 0)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "positroids":
                continue
            for label, fn in real.items():
                if getattr(module, label, None) is fn:
                    def counting(*args, _fn=fn, _label=label):
                        calls[_label] += 1
                        return _fn(*args)

                    monkeypatch.setattr(module, label, counting)
        code, out, _ = run(capsys, ["enumerate", "--n", "9", "--k", "4"])
        assert (code, out.count("\n")) == (0, 76)
        assert all(count <= 10 for count in calls.values()), calls
        assert calls["necklace_from_nonadjacent"] and \
            calls["le_from_removals"] and calls["_dumps"], calls

    def test_census_skips_the_schubert_intersection(self, monkeypatch,
                                                    capsys):
        real = necklace.necklace_to_positroid
        calls = []

        def counting(neck):
            calls.append(neck)
            return real(neck)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "positroids" and \
                    getattr(module, "necklace_to_positroid", None) is real:
                monkeypatch.setattr(module, "necklace_to_positroid", counting)
        assert run(capsys, ["enumerate", "--n", "8", "--k", "4"])[0] == 0
        assert calls == []
        assert run(capsys, ["convert", "--from", "necklace", "--to", "bases"],
                   stdin=json.dumps(necklace_from_nonadjacent(
                       {1}, 2, 4).to_dict()), monkeypatch=monkeypatch)[0] == 0
        assert len(calls) == 1

    def test_census_builds_no_matroid(self, monkeypatch, capsys):
        # Each line's bases come from cutting the intervals at A out of the
        # rendered k-subsets, never from a basis family.
        built = watch_matroid_builds(monkeypatch)
        code, out, _ = run(capsys, ["enumerate", "--n", "9", "--k", "4"])
        assert (code, out.count("\n")) == (0, 76)
        assert built == []

    def test_byte_determinism(self, capsys):
        argv = ["enumerate", "--n", "5", "--k", "2"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2


def census_text_lines(k: int, n: int, masks: list, caps=None) -> list:
    """census_lines for the witnesses with these masks.  With caps, the
    window caps (_VIEW_BITS, _BASES_BITS) are set to them for the call."""
    entries = [SparsePavingPositroid(k, n, NonAdjacentSet(n, mask))
               for mask in masks]
    with pytest.MonkeyPatch.context() as patch:
        if caps is not None:
            patch.setattr(census_text, "_VIEW_BITS", caps[0])
            patch.setattr(census_text, "_BASES_BITS", caps[1])
        return list(census_text.census_lines(k, n, entries, cli._dumps))


def line_units(k: int, n: int) -> tuple[list, list]:
    """The pieces that census_lines merges into the bases' tables and into
    the view fragments' tables, for the type (k, n)."""
    witnesses = [SparsePavingPositroid(k, n, NonAdjacentSet(n, mask))
                 for mask in [0] + [1 << i for i in range(n)]]
    head, views = census_text._tail(witnesses, cli._dumps)
    return census_text._bases(witnesses, head), views


class TestCensusTables:
    """census_lines merges runs of units, next to each other in the line,
    into tables read through windows of up to _VIEW_BITS or _BASES_BITS
    bits, some of which cross from bit n - 1 to bit n, the wrap copy of
    position 1.  With both caps 0 every unit keeps a table and a window of
    its own.  Both ways must print the same lines."""

    @pytest.mark.parametrize("n", range(4, 15))
    def test_merged_tables_print_what_single_units_print(self, n):
        masks = [a.mask for a in nonadjacent_subsets(n)]
        for k in range(2, n - 1):
            assert census_text_lines(k, n, masks) == \
                census_text_lines(k, n, masks, (0, 0)), (k, n)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 40).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(2, min(3, n - 2)),
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))))
    @example((40, 3, [1 | 1 << 38, 1 << 39, 1 << 39 | 1 << 1]))
    @example((40, 2, [0, 1, 1 << 39]))
    @example((31, 3, [(1 << 31) - 1]))
    def test_merged_tables_past_the_wrap(self, case):
        """Random witnesses up to n = 40 with k <= 3, where most tables
        merge six units and several windows read bit n.  Each drawn mask
        keeps the positions whose lower cyclic neighbour it lacks, so it
        is non-adjacent."""
        n, k, drawn = case
        full = (1 << n) - 1
        masks = [m & ~((m << 1 | m >> (n - 1)) & full) for m in drawn]
        lines = census_text_lines(k, n, masks)
        assert lines == census_text_lines(k, n, masks, (0, 0))
        entries = [SparsePavingPositroid(k, n, NonAdjacentSet(n, mask))
                   for mask in masks]
        assert lines == [views_line(entry) + "\n" for entry in entries]

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 6), (6, 12), (7, 14),
                                     (3, 40)])
    def test_windows_merge_within_their_caps(self, k, n):
        """Merging cuts the number of tables; every window holds at most
        its cap of bits and fewer than n; some cross the wrap; exactly the
        window values that no witness shows have no text."""
        bases, views = line_units(k, n)
        for pieces, cap in [(bases, census_text._BASES_BITS),
                            (views, census_text._VIEW_BITS)]:
            units = census_text._tables(pieces, cap, n)
            assert len(units) < len(pieces) // 2
            assert all(mask.bit_length() <= min(cap, n - 1)
                       for _, mask, _ in units)
            assert any(lo + mask.bit_length() > n for lo, mask, _ in units)
            for lo, mask, table in units:
                assert len(table) == mask + 1
                shown = [nonadjacent_mask_ok(sum(
                    1 << (lo + j) % n for j in range(mask.bit_length())
                    if value >> j & 1), n) for value in range(mask + 1)]
                assert [text is not None for text in table] == shown


class TestOracle:
    def test_small_run(self, capsys):
        code, out, err = run(capsys, ["oracle", "--n", "4", "--k", "2"])
        assert code == 0
        lines = out.splitlines()
        assert "necklaces: 33" in lines[0]
        assert "sparse paving found: 7" in lines[1]
        assert "discrepancies: 0" in lines[2]

    def test_budget_refusal(self, capsys):
        assert run(capsys, ["oracle", "--n", "10", "--k", "2"]) == (
            1, "", "invalid: n=10 exceeds the oracle budget 9; pass a "
                   "larger --budget to run it anyway\n")
        assert run(capsys, ["oracle", "--n", "7", "--k", "3",
                            "--budget", "-1"]) == (
            1, "", "invalid: n=7 exceeds the oracle budget -1; pass a "
                   "larger --budget to run it anyway\n")

    def test_eight_four(self, capsys):
        assert run(capsys, ["oracle", "--n", "8", "--k", "4",
                            "--budget", "8"]) == (
            0, "necklaces: 44929\nsparse paving found: 47\n"
               "discrepancies: 0\n", "")

    @pytest.mark.parametrize("n,k,necklaces,found", [
        (9, 4, 344551, 76),
        (10, 5, 3730251, 123),
        pytest.param(11, 5, 35739419, 199, marks=pytest.mark.skipif(
            not os.environ.get("POSITROIDS_FULL_SCAN"),
            reason="opt-in: set POSITROIDS_FULL_SCAN=1")),
    ])
    def test_full_scan(self, n, k, necklaces, found, capsys):
        assert run(capsys, ["oracle", "--n", str(n), "--k", str(k),
                            "--budget", str(n)]) == (
            0, f"necklaces: {necklaces}\nsparse paving found: {found}\n"
               f"discrepancies: 0\n", "")

    def test_clean_run_builds_no_matroid(self, monkeypatch, capsys):
        built = watch_matroid_builds(monkeypatch)
        assert run(capsys, ["oracle", "--n", "6", "--k", "3"])[0] == 0
        assert built == []

    def test_discrepancy_replays_through_check_sp(self, monkeypatch,
                                                  tmp_path, capsys):
        """A discrepant necklace goes to stderr as one JSON line that
        check-sp reads unchanged; stdout keeps the matroid-level count.
        The kernel here marks one wrong cyclic interval at index 1, {2, 4},
        which lets exactly one necklace outside the census through: the
        census necklace of A = {2, 5} with I_1 = {2, 4}."""
        class WrongInterval(necklace.SchubertKernel):
            def __init__(self, k, n):
                super().__init__(k, n)
                self._census = (
                    {**self._census[0], 0b01010: 1},) + self._census[1:]

        monkeypatch.setattr(cli, "SchubertKernel", WrongInterval)
        code, out, err = run(capsys, ["oracle", "--n", "5", "--k", "2"])
        assert (code, out) == (2, "necklaces: 131\nsparse paving found: 11\n"
                                  "discrepancies: 1\n")
        entries = necklace_from_nonadjacent({2, 5}, 2, 5).entries
        flipped = necklace.GrassmannNecklace(5, 2, (0b01010,) + entries[1:])
        assert err == json.dumps(flipped.to_dict(), sort_keys=True,
                                 separators=(",", ":")) + "\n"
        path = tmp_path / "discrepancy.json"
        path.write_text(err)
        assert run(capsys, ["check-sp", "--kind", "necklace",
                            str(path)])[0] == 2

    def test_matroid_side_discrepancies_replay_through_check_sp(
            self, monkeypatch, tmp_path, capsys):
        """With a near table that answers 0 for every k-subset, no two
        nonbases are ever neighbours, so every necklace passes the matroid
        side and each one outside the census is a discrepancy: a stderr
        line that check-sp reads unchanged and calls not sparse paving.
        The census state falls on all 120 of them while their flag stays
        up, so the walk must not prune on the census state alone."""
        class NoNeighbours(necklace.SchubertKernel):
            def __init__(self, k, n):
                super().__init__(k, n)
                self._near = defaultdict(int)

        monkeypatch.setattr(cli, "SchubertKernel", NoNeighbours)
        code, out, err = run(capsys, ["oracle", "--n", "5", "--k", "2"])
        assert (code, out) == (2, "necklaces: 131\n"
                                  "sparse paving found: 131\n"
                                  "discrepancies: 120\n")
        lines = err.splitlines()
        assert len(set(lines)) == len(lines) == 120
        path = tmp_path / "discrepancy.json"
        for line in lines:
            path.write_text(line + "\n")
            assert run(capsys, ["check-sp", "--kind", "necklace",
                                str(path)])[0] == 2, line

    def test_census_side_discrepancies_replay_through_check_sp(
            self, monkeypatch, tmp_path, capsys):
        """With a near table that answers every k-subset for every other,
        the matroid-level flag falls at the first nonbasis, so only the
        uniform necklace passes the matroid side and the 10 other census
        necklaces are discrepancies, each a stderr line that check-sp
        calls sparse paving.  Their flag falls while the census state
        stays up, so the walk must not prune on the flag alone."""
        class EveryNeighbour(necklace.SchubertKernel):
            def __init__(self, k, n):
                super().__init__(k, n)
                self._near = defaultdict(lambda: -1)

        monkeypatch.setattr(cli, "SchubertKernel", EveryNeighbour)
        code, out, err = run(capsys, ["oracle", "--n", "5", "--k", "2"])
        assert (code, out) == (2, "necklaces: 131\n"
                                  "sparse paving found: 1\n"
                                  "discrepancies: 10\n")
        census = {cli._dumps(necklace_from_nonadjacent(a, 2, 5).to_dict())
                  for a in nonadjacent_subsets(5) if a.mask}
        assert set(err.splitlines()) == census
        path = tmp_path / "discrepancy.json"
        for line in census:
            path.write_text(line + "\n")
            assert run(capsys, ["check-sp", "--kind", "necklace",
                                str(path)])[0] == 0, line

    def test_budget_override(self, capsys):
        code, out, err = run(capsys, ["oracle", "--n", "5", "--k", "3",
                                      "--budget", "5"])
        assert code == 0
        assert "sparse paving found: 11" in out


class TestMiddleRank:
    """The census and the oracle refuse an extreme rank with the one
    classification message."""

    @pytest.mark.parametrize("argv,k", [
        (["oracle", "--n", "5", "--k", "1"], 1),
        (["enumerate", "--n", "5", "--k", "4"], 4),
    ])
    def test_rejects_extreme_rank(self, argv, k, capsys):
        assert run(capsys, argv) == (
            1, "", f"invalid: classification needs 2 <= k <= n-2, "
                   f"got k={k}, n=5\n")


class TestRenderLe:
    def test_full_square(self, tmp_path, capsys):
        path = write_json(tmp_path, "le.json",
                          le_from_removals((), 2, 4).to_dict())
        code, out, err = run(capsys, ["render-le", path])
        assert code == 0
        assert out == "* * 1\n* * 2\n4 3\n"

    def test_wide_figure(self, tmp_path, capsys):
        path = write_json(tmp_path, "le.json",
                          le_from_removals({6}, 4, 12).to_dict())
        code, out, err = run(capsys, ["render-le", path])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split()[:8] == ["*", "*", "*", ".", "*", "*", "*", "*"]

    def test_json_echo(self, tmp_path, capsys):
        payload = le_from_removals({1, 3, 10}, 4, 10).to_dict()
        path = write_json(tmp_path, "le.json", payload)
        code, out, err = run(capsys, ["render-le", "--format", "json", path])
        assert code == 0
        assert json.loads(out) == payload

    def test_rejects_invalid(self, tmp_path, capsys):
        payload = {"k": 2, "n": 4, "shape": [2, 2],
                   "filling": [[0, 1], [1, 0]]}
        path = write_json(tmp_path, "le.json", payload)
        code, out, err = run(capsys, ["render-le", path])
        assert code == 1


class TestUsage:
    def test_unknown_kind(self, capsys):
        code, out, err = run(capsys, ["validate", "--kind", "bogus"])
        assert code == 1

    def test_unknown_kind_names_the_kinds_in_order(self, capsys):
        code, out, err = run(capsys, ["convert", "--from", "xyz", "--to",
                                      "le"])
        assert (code, out) == (1, "")
        assert err.startswith("invalid: ")
        named = [word for word in re.findall(r"[a-z]+", err)
                 if word in cli.KINDS]
        assert named == ["necklace", "decperm", "le", "bases", "nonadjacent"]
        assert cli.KINDS == tuple(named)

    def test_missing_subcommand(self, capsys):
        code, out, err = run(capsys, [])
        assert code == 1


class TestConversionClosure:
    """Round trips through every ordered pair of representations return the
    canonical form, across the whole census for n <= 6."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_round_trips(self, n, tmp_path, capsys):
        kinds = ("nonadjacent", "necklace", "decperm", "le", "bases")
        for k in range(2, n - 1):
            for entry in enumerate_sparse_paving(k, n):
                payloads = {
                    "nonadjacent": entry.nonadjacent.to_dict(),
                    "necklace": entry.necklace.to_dict(),
                    "decperm": entry.perm.to_dict(),
                    "le": entry.diagram.to_dict(),
                    "bases": census_matroid(entry).to_dict(),
                }
                for src, dst in itertools.product(kinds, repeat=2):
                    path = write_json(tmp_path, "payload.json", payloads[src])
                    argv = ["convert", "--from", src, "--to", dst,
                            "--k", str(k), path]
                    code, out, err = run(capsys, argv)
                    assert code == 0, (src, dst, err)
                    assert json.loads(out) == payloads[dst], (src, dst)


def replay_requests(top):
    """(argv, payload) for every Le-diagram and every decorated permutation
    with n <= top: each through `convert` to every kind and `check-sp`, a
    Le-diagram also through the ASCII picture of both commands that draw
    one, a decorated permutation at its rank and at one more."""
    for n in range(1, top + 1):
        for k in range(n + 1):
            for diag in all_le_diagrams(k, n):
                payload = json.dumps(diag.to_dict())
                for dst in cli.KINDS:
                    yield ["convert", "--from", "le", "--to", dst], payload
                yield (["convert", "--from", "le", "--to", "le", "--format",
                        "ascii"], payload)
                yield ["check-sp", "--kind", "le"], payload
                yield ["render-le"], payload
        for dp in all_decorated_permutations(n):
            payload = json.dumps(dp.to_dict())
            for k in (determined_rank(dp), determined_rank(dp) + 1):
                flag = ["--k", str(k)]
                for dst in cli.KINDS:
                    yield (["convert", "--from", "decperm", "--to", dst]
                           + flag, payload)
                yield ["check-sp", "--kind", "decperm"] + flag, payload


class TestByteReplay:
    """Every request of replay_requests(4), read from stdin, hashed with its
    exit code, stdout and stderr into one digest.  The digest was recorded
    before the Le network and the decorated permutation's necklace were
    rebuilt as single ordered passes; any change to a CLI byte on these
    inputs moves it."""

    DIGEST = ("495e355ff021edfe3612c39eb77cb4e6"
              "2c60d15a2d5c03a2a50eaf6804a06414")

    def test_digest(self, capsys, monkeypatch):
        digest = hashlib.sha256()
        count = 0
        for argv, payload in replay_requests(4):
            result = run(capsys, argv, stdin=payload, monkeypatch=monkeypatch)
            digest.update(json.dumps([argv, payload, *result]).encode())
            digest.update(b"\n")
            count += 1
        assert count == 1760
        assert digest.hexdigest() == self.DIGEST
