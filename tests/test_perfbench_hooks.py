"""The benchmark under perfbench/ wraps package functions by name.

A layer that is renamed or deleted in the package would otherwise show up
only when a traced benchmark run fails, so these tests look the names up
the way the benchmark does.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from positroids import cli, matroid, necklace

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
    every = sum(1 for _ in necklace.all_necklaces(2, 5))
    assert f"necklaces: {every}\n" in out
    assert handed == {"enumerate_sparse_paving": 18, "all_necklaces": every}


def test_cli_reaches_the_exchange_check_through_rebindable_names(
        monkeypatch, tmp_path, capsys):
    # The tracer times `matroid.exchange_check` by pointing every
    # module-level reference to matroid._exchange_masks at its wrapper, so
    # the CLI must call the check through one of those references.  The
    # payload is a matroid that is not a positroid: the necklace round trip
    # fails and the exchange check runs once.
    tracer = load_tracer()
    target = matroid._exchange_masks
    calls = []

    def counting(masks):
        calls.append(masks)
        return target(masks)

    modules = [importlib.import_module(f"positroids.{name}")
               for name in tracer.MODULES]
    modules.append(importlib.import_module("positroids"))
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is target:
                monkeypatch.setattr(module, key, counting)
    path = tmp_path / "bases.json"
    path.write_text(json.dumps(
        {"n": 4, "k": 2, "bases": [[1, 2], [1, 4], [2, 3], [2, 4], [3, 4]]}))
    assert cli.main(["validate", "--kind", "bases", str(path)]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert len(calls) == 1
