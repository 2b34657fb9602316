"""The benchmark under perfbench/ wraps package functions by name.

A layer that is renamed or deleted in the package would otherwise show up
only when a traced benchmark run fails, so these tests look the names up
the way the benchmark does.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from positroids import cli, necklace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    """perfbench/tracer.py as a module; it imports only the standard
    library, so loading it runs no benchmark."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = load_tracer()
    for layer, modname, attr, *_ in tracer.LAYERS:
        assert modname in tracer.MODULES, layer
        module = importlib.import_module(f"positroids.{modname}")
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            # The tracer reads the method from the class's own namespace.
            assert meth in vars(getattr(module, cls_name)), layer
        else:
            assert callable(getattr(module, attr, None)), layer


def test_generators_the_child_stamps_exist():
    # perfbench/run.py names these for the census and oracle workloads, and
    # perfbench/child.py replaces them on the cli module.
    for name in ("all_necklaces", "enumerate_sparse_paving"):
        assert callable(getattr(cli, name, None)), name


def test_cli_draws_items_from_the_stamped_generators(monkeypatch, capsys):
    # child.py times one census entry or oracle necklace per item it hands
    # out; a command that stopped drawing from these names would collapse
    # the benchmark's per-item latencies into a single item.
    handed = {"enumerate_sparse_paving": 0, "all_necklaces": 0}
    for name in handed:
        inner = getattr(cli, name)

        def counting(*args, _inner=inner, _name=name, **kwargs):
            for item in _inner(*args, **kwargs):
                handed[_name] += 1
                yield item

        monkeypatch.setattr(cli, name, counting)
    assert cli.main(["enumerate", "--n", "6", "--k", "3"]) == 0
    assert capsys.readouterr().out.count("\n") == 18
    assert cli.main(["oracle", "--n", "5", "--k", "2"]) == 0
    out = capsys.readouterr().out
    every = sum(1 for _ in necklace.all_necklaces(
        necklace.SchubertKernel(2, 5)))
    assert f"necklaces: {every}\n" in out
    assert handed == {"enumerate_sparse_paving": 18, "all_necklaces": every}


def test_cli_reads_a_name_from_its_module_unless_set_on_cli(
        monkeypatch, tmp_path, capsys):
    # The CLI imports the library on demand and binds each name it calls
    # into its own globals.  A rebinding in the defining module, and its
    # undoing, reach the next command; a name set on cli itself, as
    # child.py sets its stamped generators, stays.
    path = tmp_path / "a.json"
    path.write_text('{"members":[2],"n":5}')
    argv = ["check-sp", "--kind", "nonadjacent", "--k", "2", str(path)]
    calls = []

    def counting(neck, _real=necklace.sparse_paving_witness):
        calls.append(neck)
        return _real(neck)

    with monkeypatch.context() as patch:
        patch.setattr(necklace, "sparse_paving_witness", counting)
        assert cli.main(argv) == 0
    assert len(calls) == 1
    assert cli.main(argv) == 0
    assert len(calls) == 1
    assert cli.sparse_paving_witness is necklace.sparse_paving_witness
    monkeypatch.setattr(cli, "sparse_paving_witness", counting)
    assert cli.main(argv) == 0
    assert len(calls) == 2
    assert capsys.readouterr().out == 3 * (
        "sparse-paving A={2}\ncircuit-hyperplanes: [[2,3]]\n")


def count_rebound_calls(monkeypatch, layers) -> dict:
    """Rebind each traced function, named as in the tracer's LAYERS
    ("module.attr" or "module.Class.method"), the way the tracer does: the
    class attribute for a classmethod, and every module-level reference,
    also as a value of a module-level dict.  Returns the calls counted per
    name; a caller that holds the function some other way, such as inside
    a tuple, is not counted."""
    tracer = load_tracer()
    modules = [importlib.import_module(f"positroids.{name}")
               for name in tracer.MODULES]
    modules.append(importlib.import_module("positroids"))
    calls = dict.fromkeys(layers, 0)
    for name in layers:
        modname, _, attr = name.partition(".")
        owner = importlib.import_module(f"positroids.{modname}")
        cls_name, _, meth = attr.rpartition(".")
        target = (vars(getattr(owner, cls_name))[meth].__func__ if cls_name
                  else getattr(owner, attr))

        def counting(*args, _name=name, _target=target):
            calls[_name] += 1
            return _target(*args)

        new = counting
        if cls_name:
            cls = getattr(owner, cls_name)
            monkeypatch.setattr(cls, meth, classmethod(counting))
            new = getattr(cls, meth)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is target:
                    monkeypatch.setattr(module, key, new)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is target or getattr(v, "__func__", None) \
                                is target:
                            monkeypatch.setitem(value, k, new)
    return calls


def test_cli_reaches_the_exchange_check_through_rebindable_names(
        monkeypatch, tmp_path, capsys):
    # The tracer times `matroid.exchange_check` by pointing every
    # module-level reference to matroid._exchange_masks at its wrapper, so
    # the CLI must call the check through one of those references.  The
    # payload is a matroid that is not a positroid: the necklace round trip
    # fails and the exchange check runs once.
    calls = count_rebound_calls(monkeypatch, ["matroid._exchange_masks"])
    path = tmp_path / "bases.json"
    path.write_text(json.dumps(
        {"n": 4, "k": 2, "bases": [[1, 2], [1, 4], [2, 3], [2, 4], [3, 4]]}))
    assert cli.main(["validate", "--kind", "bases", str(path)]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert calls == {"matroid._exchange_masks": 1}


# The traced functions each kind's row calls: its loader and its route to
# the necklace, and its route from a necklace.
ROUTED = ("matroid.Matroid.from_dict", "decorated.decperm_to_necklace",
          "decorated.necklace_to_decperm", "necklace.necklace_to_positroid",
          "le_diagram.le_from_removals", "necklace.sparse_paving_witness",
          "necklace.is_positroid")
TO_NECKLACE = {
    "necklace": {},
    "decperm": {"decorated.decperm_to_necklace": 1},
    "le": {"decorated.decperm_to_necklace": 1},
    # The loader's round trip, is_positroid, builds the positroid of the
    # found necklace.
    "bases": {"matroid.Matroid.from_dict": 1, "necklace.is_positroid": 1,
              "necklace.necklace_to_positroid": 1},
    "nonadjacent": {},
}
FROM_NECKLACE = {
    "necklace": {},
    "decperm": {"decorated.necklace_to_decperm": 1},
    "le": {"necklace.sparse_paving_witness": 1,
           "le_diagram.le_from_removals": 1},
    "bases": {"necklace.necklace_to_positroid": 1},
    "nonadjacent": {"necklace.sparse_paving_witness": 1},
}


@pytest.mark.parametrize("side,kind", [
    *(("to", kind) for kind in cli.KINDS),
    *(("from", kind) for kind in cli.KINDS)])
def test_every_route_calls_the_library_through_rebindable_names(
        side, kind, monkeypatch, tmp_path, capsys):
    # A row that captured a function object would leave its layer at 0
    # calls in a traced benchmark run; here it fails the count instead.
    # The positroid is the sparse paving one of A = {2} at (5, 2); the
    # payload of each kind is converted from it before anything is counted.
    src, dst = (kind, "necklace") if side == "to" else ("necklace", kind)
    witness = tmp_path / "a.json"
    witness.write_text('{"members":[2],"n":5}')
    assert cli.main(["convert", "--from", "nonadjacent", "--to", src,
                     "--k", "2", str(witness)]) == 0
    path = tmp_path / "payload.json"
    path.write_text(capsys.readouterr().out)
    calls = count_rebound_calls(monkeypatch, ROUTED)
    assert cli.main(["convert", "--from", src, "--to", dst, "--k", "2",
                     str(path)]) == 0
    expected = (TO_NECKLACE if side == "to" else FROM_NECKLACE)[kind]
    assert {name: n for name, n in calls.items() if n} == expected
