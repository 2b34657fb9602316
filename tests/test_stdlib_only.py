"""The library imports nothing outside the standard library, and nothing
that slows down a CLI process's start-up."""

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
                f"value types from matroid.Record, which keeps the import " \
                f"and its start-up cost out of every CLI process"


def test_cli_start_up_skips_dataclasses_and_inspect():
    """A fresh CLI process loads neither dataclasses nor inspect, which
    together cost several milliseconds of every command's start-up."""
    src = SOURCES[0].parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, positroids.cli; "
         "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True, timeout=60)
    assert loaded.stdout.split() == []


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
