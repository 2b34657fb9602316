"""The library imports nothing outside the standard library, and nothing
that slows down a CLI process's start-up: a CLI process imports only the
modules its command runs, and `import positroids` alone imports none."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "positroids").glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names, \
                f"{path.name}:{node.lineno} imports {name}"
            assert top != "dataclasses", \
                f"{path.name}:{node.lineno} imports dataclasses; derive " \
                f"value types from records.Record, which keeps the import " \
                f"and its start-up cost out of every CLI process"


def fresh(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter without site, importing this checkout's package,
    run with `args`."""
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parent.parent))
    return subprocess.run([sys.executable, "-S", *args], capture_output=True,
                          text=True, env=env, timeout=60, **kwargs)


def test_cli_start_up_skips_dataclasses_and_inspect():
    """A fresh CLI process loads neither dataclasses nor inspect, which
    together cost several milliseconds of every command's start-up."""
    loaded = fresh(
        "-c", "import sys, positroids.cli; "
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        check=True)
    assert loaded.stdout.split() == []


# A fresh process runs one command and prints to stderr, after the
# command's own output, the modules it then holds of the package and json.
PROBE = """import sys
from positroids import cli
code = cli.main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m == "json"
              or m.partition(".")[0] in ("positroids", "dataclasses",
                                         "inspect")), file=sys.stderr)
raise SystemExit(code)
"""
WATCHED = {"json", *(f"positroids.{p.stem}" for p in SOURCES
                     if p.name != "__init__.py")}
BASES = '{"n":4,"k":2,"bases":[[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]]}'
LE = '{"filling":[[1,1,0],[1,1,1]],"k":2,"n":5,"shape":[3,3]}'


@pytest.mark.parametrize("argv,payload,out,unloaded", [
    (["enumerate", "--n", "4", "--k", "2", "--count-only"], "", "7\n",
     WATCHED - {"positroids.cli", "positroids.counting"}),
    (["enumerate", "--n", "4", "--k", "2"], "", None,
     {"positroids.counting", "positroids.matroid", "positroids.necklace"}),
    (["oracle", "--n", "5", "--k", "2"], "", None,
     WATCHED - {"positroids.cli", "positroids.matroid",
                "positroids.necklace", "positroids.records"}),
    (["convert", "--from", "bases", "--to", "necklace"], BASES,
     '{"entries":[[1,2],[2,3],[3,4],[1,4]],"k":2,"n":4}\n',
     {"positroids.census_text", "positroids.counting",
      "positroids.decorated", "positroids.enumeration",
      "positroids.le_diagram"}),
    (["convert", "--from", "le", "--to", "bases"], LE, None,
     {"positroids.census_text", "positroids.counting",
      "positroids.enumeration"}),
], ids=["count-only", "census", "oracle", "bases-to-necklace",
        "le-to-bases"])
def test_command_loads_only_what_it_runs(argv, payload, out, unloaded):
    """Each command imports, and so compiles, only the package modules it
    runs, json only when it reads or writes JSON, and neither dataclasses
    nor inspect."""
    run = fresh("-c", PROBE, *argv, input=payload)
    assert run.returncode == 0, run.stderr
    if out is not None:
        assert run.stdout == out
    loaded = set(run.stderr.split())
    assert loaded & {"dataclasses", "inspect"} == set()
    assert WATCHED - loaded == unloaded


# The names the package exported while __init__.py imported every module;
# the lazy package keeps each of them.
PUBLIC = [
    "DecoratedPermutation", "GrassmannNecklace", "LeDiagram", "Matroid",
    "NonAdjacentSet", "SparsePavingPositroid", "all_necklaces",
    "boundary_labels", "build_network", "cell_numbering",
    "circuit_hyperplanes", "circuits", "count_nonadjacent",
    "count_sparse_paving", "cyclic_interval", "decperm_to_necklace",
    "enumerate_sparse_paving", "hyperplanes", "is_positroid",
    "is_sparse_paving", "le_from_removals", "le_to_decperm", "lex_subsets",
    "lucas", "mask_of", "members_of", "necklace_from_nonadjacent",
    "necklace_to_decperm", "necklace_to_positroid", "nonadjacent_mask_ok",
    "nonadjacent_subsets", "positroid_necklace", "realizable_sets", "relax",
    "render_le", "sparse_paving_witness",
]


class TestLazyPackage:
    def test_all_is_the_public_list(self):
        import positroids
        assert positroids.__all__ == PUBLIC

    def test_every_name_is_its_modules_object(self):
        import importlib
        import positroids
        homes = [importlib.import_module(f"positroids.{p.stem}")
                 for p in SOURCES if p.name != "__init__.py"]
        for name in PUBLIC:
            value = getattr(positroids, name)
            owners = [m for m in homes if vars(m).get(name) is value
                      and getattr(value, "__module__", m.__name__)
                      == m.__name__]
            assert len(owners) == 1, name

    def test_import_loads_no_submodule(self):
        loaded = fresh("-c", "import sys, positroids; print(*sorted(m for m "
                       "in sys.modules if m.startswith('positroids')))",
                       check=True)
        assert loaded.stdout.split() == ["positroids"]

    def test_star_import_binds_every_name(self):
        import positroids
        scope: dict = {}
        exec("from positroids import *", scope)
        assert {name: scope[name] for name in PUBLIC} == \
            {name: getattr(positroids, name) for name in PUBLIC}

    def test_unknown_name_is_an_attribute_error(self):
        import positroids
        with pytest.raises(AttributeError, match="no_such_name"):
            positroids.no_such_name


def public_definitions(tree):
    """(qualified name, node) for each public module-level function or class
    and each public method of a public class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    yield f"{node.name}.{sub.name}", sub


def reference(node):
    """The name a Name node reads, as "name", or the attribute an Attribute
    node reads, as ".attr"; None for any other node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return "." + node.attr
    return None


def test_every_public_definition_is_used():
    """Each public module-level function or class is referenced by name, and
    each public method of a public class by an attribute of the same name,
    somewhere in the package outside its own definition and __init__.py,
    unless the benchmark traces it by name."""
    from test_perfbench_hooks import load_tracer
    exempt = {name for _, _, attr, *_ in load_tracer().LAYERS
              for name in (attr, attr.partition(".")[0])}
    used, defined = set(), []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        own = set()  # a definition's references to its own name
        for qual, node in public_definitions(tree):
            cls, dot, name = qual.rpartition(".")
            wanted = dot + name
            defined.append((path.name, qual, wanted))
            own.update(id(sub) for sub in ast.walk(node)
                       if reference(sub) == wanted)
        used.update(reference(node) for node in ast.walk(tree)
                    if id(node) not in own)
    unused = [f"{file}:{qual}" for file, qual, wanted in defined
              if wanted not in used and qual not in exempt]
    assert unused == [], "no caller in the package: " + ", ".join(unused)
