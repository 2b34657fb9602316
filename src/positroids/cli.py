"""Command line front end: validate, convert, classify, enumerate, verify.

Exit codes: 0 for success or an affirmative verdict, 1 for malformed input or
usage problems, 2 for a negative mathematical verdict (not a positroid, not
sparse paving, oracle discrepancy), so scripts can tell the cases apart.
When the reader closes stdout early (`positroids enumerate ... | head -1`),
the command stops quietly with status 0 and nothing on stderr.

A process imports, and so compiles, only the modules its command runs:
`enumerate --count-only` loads `counting` alone, the census loads `records`
and the modules that build its lines but neither `matroid` nor `necklace`,
`oracle` loads `matroid`, `necklace` and `records`, and the payload commands
load those their kinds need (see `_ROWS`) and `json`.  Before a command calls
into the library it binds the names it calls into this module's globals
(`_need`), and the functions here read those names at call time.  Each `_need`
reads a name afresh from its defining module, unless code outside set the name
on this module after `_need` last bound it; so a wrapper set here (the
benchmark child's stamps, a test's monkeypatch) or in the defining module (the
benchmark tracer's rebinding) is the one called.  Reading a library name as an
attribute of this module binds it as well (PEP 562).
"""

from __future__ import annotations

import argparse
import os
import sys

# The library names the commands call, by the module that defines them.
_IMPORTS = {
    "census_text": ("census_lines",),
    "counting": ("count_sparse_paving",),
    "decorated": ("DecoratedPermutation", "decperm_to_necklace",
                  "necklace_to_decperm"),
    "enumeration": ("enumerate_sparse_paving",),
    "le_diagram": ("LeDiagram", "le_from_removals", "le_to_decperm",
                   "render_le"),
    "matroid": ("Matroid", "_exchange_masks", "_violating_pair"),
    "necklace": ("SchubertKernel", "all_necklaces", "is_positroid",
                 "necklace_to_positroid", "sparse_paving_witness"),
    "records": ("GrassmannNecklace", "NonAdjacentSet",
                "_check_classification", "cyclic_interval", "members_of",
                "necklace_from_nonadjacent"),
}
_HOME = {name: module for module, names in _IMPORTS.items()
         for name in names} | {"_dumps": "json"}
_bound: dict = {}  # each name's value as `_need` last bound it


def _need(*modules: str) -> None:
    """Import each of `modules` and bind the names `_IMPORTS` lists for it,
    or `json` and `_dumps` for "json".  A name whose value here is no longer
    the one `_need` bound last was set from outside, and stays."""
    scope = globals()
    for module in modules:
        if module == "json":
            if "json" not in scope:
                import json
                scope["json"] = json
                # json.dumps with options builds a new encoder per call;
                # share one.
                scope["_dumps"] = json.JSONEncoder(
                    sort_keys=True, separators=(",", ":")).encode
            continue
        full = f"{__package__}.{module}"
        __import__(full)
        source = sys.modules[full]
        for name in _IMPORTS[module]:
            if scope.get(name) is _bound.get(name):
                scope[name] = _bound[name] = getattr(source, name)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    _need(_HOME[name])
    return globals()[name]


# `enumerate --count-only` prints the count in decimal, and CPython converts
# at most 4300 digits by default (sys.get_int_max_str_digits); the count at
# n = 20000 has 4180, and larger n is refused before any arithmetic runs.
_COUNT_BUDGET = 20000


class CliError(Exception):
    """Malformed input or bad usage; exits with status 1."""


class NegativeVerdict(Exception):
    """Valid input with a negative mathematical outcome; exits with 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _unique_keys(pairs: list) -> dict:
    """A JSON object; a repeated key is an error, never a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise CliError(f"duplicate key {json.dumps(key)}")
        obj[key] = value
    return obj


def _read_json(path: str | None):
    _need("json")
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise CliError(str(exc))
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise CliError(f"parse error at line {exc.lineno} column {exc.colno}: "
                       f"{exc.msg}")
    except RecursionError:
        raise CliError("parse error: arrays or objects nested too deeply")


def _bases(data) -> GrassmannNecklace | Matroid:
    """A positroid's necklace, or the matroid itself when it is not one.

    The necklace round trip runs first: a family it recovers is a positroid
    and so satisfies the exchange axiom.  The quadratic exchange check runs
    only on the families that fail the round trip.
    """
    m = Matroid.from_dict(data)
    neck = is_positroid(m)
    if neck is not None:
        return neck
    if not _exchange_masks(m.bases):
        raise CliError("bases do not satisfy the exchange axiom")
    return m


def _necklace(obj, k: int) -> GrassmannNecklace:
    if isinstance(obj, Matroid):
        raise NegativeVerdict("not a positroid")
    return obj


def _witness(neck: GrassmannNecklace) -> NonAdjacentSet:
    witness = sparse_paving_witness(neck)
    if witness is None:
        raise NegativeVerdict("not sparse paving")
    return witness


# One row per payload kind: loader, route to the necklace given k, route
# from a necklace, and the modules whose names the three call.  Library
# functions are module globals read at call time, so a profiler can rebind
# them.
_ROWS = {
    "necklace": (lambda d: GrassmannNecklace.from_dict(d), _necklace,
                 lambda neck: neck, ("records", "matroid")),
    "decperm": (lambda d: DecoratedPermutation.from_dict(d),
                lambda perm, k: decperm_to_necklace(perm, k),
                lambda neck: necklace_to_decperm(neck), ("decorated",)),
    "le": (lambda d: LeDiagram.from_dict(d),
           lambda diag, k: decperm_to_necklace(le_to_decperm(diag), k),
           lambda neck: le_from_removals(_witness(neck), neck.k, neck.n),
           ("decorated", "le_diagram", "necklace")),
    "bases": (_bases, _necklace, lambda neck: necklace_to_positroid(neck),
              ("matroid", "necklace")),
    "nonadjacent": (lambda d: NonAdjacentSet.from_dict(d),
                    lambda a, k: necklace_from_nonadjacent(a, k, a.n),
                    _witness, ("records", "necklace")),
}
KINDS = tuple(_ROWS)


def _load(kind: str, data) -> object:
    """The payload of `kind`, with the names of its row bound."""
    _need(*_ROWS[kind][3])
    try:
        return _ROWS[kind][0](data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise CliError(f"malformed {kind} payload: {exc}")


def _dims(kind: str, obj, flag_k: int | None) -> tuple[int, int]:
    """Resolve (n, k), insisting on --k where the payload cannot supply it."""
    n = obj.n
    k = getattr(obj, "k", None)
    if k is None:
        if flag_k is None:
            raise CliError(f"--k is required for {kind} input")
        k = flag_k
    elif flag_k is not None and flag_k != k:
        raise CliError(f"--k {flag_k} conflicts with the payload's k={k}")
    return n, k


def _print(out, fmt: str) -> None:
    if fmt == "ascii":
        print(render_le(out), end="")
    else:
        print(_dumps(out.to_dict()))


def cmd_validate(args) -> int:
    _load(args.kind, _read_json(args.input))
    print("valid")
    return 0


def cmd_convert(args) -> int:
    if args.format == "ascii" and args.dst != "le":
        raise CliError("--format ascii needs --to le")
    obj = _load(args.src, _read_json(args.input))
    _, k = _dims(args.src, obj, args.k)
    _need(*_ROWS[args.dst][3])
    _print(_ROWS[args.dst][2](_ROWS[args.src][1](obj, k)), args.format)
    return 0


def cmd_check_sp(args) -> int:
    obj = _load(args.kind, _read_json(args.input))
    n, k = _dims(args.kind, obj, args.k)
    _need("records", "matroid", "necklace")
    _check_classification(k, n)
    neck = _ROWS[args.kind][1](obj, k)
    witness = sparse_paving_witness(neck)
    if witness is not None:
        inner = ",".join(map(str, witness.members))
        print(f"sparse-paving A={{{inner}}}")
        chs = [list(members_of(cyclic_interval(k, n, i))) for i in witness]
        print(f"circuit-hyperplanes: {_dumps(chs)}")
        return 0
    first, second = _violating_pair(necklace_to_positroid(neck))
    print("not sparse-paving")
    print(f"witness: {_dumps(list(first))} {_dumps(list(second))}")
    return 2


def cmd_enumerate(args) -> int:
    if args.count_only:
        if args.n > _COUNT_BUDGET:
            raise CliError(f"n={args.n} exceeds the count budget "
                           f"{_COUNT_BUDGET}")
        _need("counting")
        print(count_sparse_paving(args.k, args.n))
        return 0
    _need("enumeration", "census_text", "json")
    n, k = args.n, args.k
    write = sys.stdout.write
    for line in census_lines(k, n, enumerate_sparse_paving(k, n), _dumps):
        write(line)
    return 0


def cmd_oracle(args) -> int:
    n, k = args.n, args.k
    if n > args.budget:
        raise CliError(f"n={n} exceeds the oracle budget {args.budget}; pass "
                       f"a larger --budget to run it anyway")
    _need("records", "necklace")
    _check_classification(k, n)
    # Both verdicts only fall down the walk, so below a node where both
    # have fallen every necklace gets two negative verdicts: the walk
    # stops there and replays the subtree instead of testing it.
    # A necklace record is built, and validated, only for a discrepancy.
    total = found = discrepancies = 0
    for entries, by_matroid, by_necklace in all_necklaces(
            SchubertKernel(k, n)):
        total += 1
        if by_matroid:
            found += 1
        if by_matroid != by_necklace:
            discrepancies += 1
            _need("json")
            print(_dumps(GrassmannNecklace(n, k, entries).to_dict()),
                  file=sys.stderr)
    print(f"necklaces: {total}")
    print(f"sparse paving found: {found}")
    print(f"discrepancies: {discrepancies}")
    return 0 if discrepancies == 0 else 2


def cmd_render_le(args) -> int:
    _print(_load("le", _read_json(args.input)), args.format)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="positroids",
                     description="Sparse paving positroid toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a payload against its "
                       "representation's invariants")
    p.add_argument("input", nargs="?", help="JSON file (stdin when omitted)")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("input", nargs="?")
    p.add_argument("--from", dest="src", required=True, choices=KINDS)
    p.add_argument("--to", dest="dst", required=True, choices=KINDS)
    p.add_argument("--k", type=int)
    p.add_argument("--format", choices=("json", "ascii"), default="json")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("check-sp", help="decide sparse paving with a witness")
    p.add_argument("input", nargs="?")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--k", type=int)
    p.set_defaults(func=cmd_check_sp)

    p = sub.add_parser("enumerate", help="stream or count the census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("oracle", help="brute-force agreement check between "
                       "the matroid-level and necklace-level classifiers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=10,
                   help="largest n the oracle will attempt (default 10)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("render-le", help="ASCII picture of a Le-diagram")
    p.add_argument("input", nargs="?")
    p.add_argument("--format", choices=("ascii", "json"), default="ascii")
    p.set_defaults(func=cmd_render_le)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush of the
        # unwritten buffer cannot raise a second time at shutdown.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except NegativeVerdict as verdict:
        print(str(verdict), file=sys.stderr)
        return 2
    except (CliError, ValueError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"invalid: number too large: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("invalid: input too large to hold in memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
