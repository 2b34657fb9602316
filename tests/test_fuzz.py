"""Hypothesis fuzz of the CLI's exit-code contract.

Every payload, whatever it holds, goes through validate, convert to each
kind and check-sp, read as each --kind.  Each command must exit 0, 1 or 2
and write no traceback, and each example must finish inside the deadline.
The payloads are arbitrary small JSON values, and valid payloads with
n <= 8 after a few random edits: a value replaced, a key or list element
dropped, a field added, or the text cut short.  The integers stay small,
so the fuzz reaches the validators and the conversions rather than the
work that grows without bound in n.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import (
    cli,
    necklace_to_decperm,
    necklace_to_positroid,
)

from test_necklace import decperm_necklaces

FIELDS = ("n", "k", "entries", "perm", "colors", "shape", "filling",
          "bases", "members")

SCALARS = (st.none() | st.booleans() | st.integers(-3, 10)
           | st.floats(-10, 10) | st.sampled_from(["", "1", "-1", "02"]))

JSON = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=6)
        | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3),
                          children, max_size=5)),
    max_leaves=16)

DEADLINE = timedelta(seconds=5)


def run(argv, text):
    """Exit code and stderr of one in-process CLI run on `text` as stdin;
    an exception that escapes main fails the test."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


def assert_contract(kind, text, k):
    flag = [] if k is None else ["--k", str(k)]
    commands = [["validate", "--kind", kind],
                ["check-sp", "--kind", kind, *flag]]
    commands += [["convert", "--from", kind, "--to", dst, *flag]
                 for dst in cli.KINDS]
    for argv in commands:
        code, err = run(argv, text)
        assert code in (0, 1, 2), (argv, text, code, err)
        assert "Traceback" not in err, (argv, text, err)


@st.composite
def valid_payloads(draw, kind):
    """A valid payload of the kind with n <= 8, and its rank: the views of
    a random positroid, a Le-diagram closed under the Le condition, or a
    subset."""
    if kind in ("necklace", "decperm", "bases"):
        neck = draw(decperm_necklaces(1, 8))
        view = {"necklace": neck, "decperm": necklace_to_decperm(neck),
                "bases": necklace_to_positroid(neck)}[kind]
        return view.to_dict(), neck.k
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, n))
    if kind == "nonadjacent":
        members = draw(st.sets(st.integers(1, n)))
        return {"n": n, "members": sorted(members)}, k
    shape, width = [], n - k
    for _ in range(k):
        width = draw(st.integers(0, width))
        if not width:
            break
        shape.append(width)
    filling = [[draw(st.integers(0, 1)) for _ in range(w)] for w in shape]
    # An empty cell with a bullet above it and a bullet to its left gets a
    # bullet; the cells after it in its row and column come later.
    for r, row in enumerate(filling):
        for c in range(len(row)):
            if (not row[c] and 1 in row[:c]
                    and any(filling[q][c] for q in range(r))):
                row[c] = 1
    return {"k": k, "n": n, "shape": shape, "filling": filling}, k


@st.composite
def edited(draw, value):
    """The value after one random edit somewhere inside it."""
    if isinstance(value, dict) and value and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(value)))
        how = draw(st.sampled_from(("drop", "edit", "add")))
        out = dict(value)
        if how == "drop":
            del out[key]
        elif how == "edit":
            out[key] = draw(edited(value[key]))
        else:
            out[draw(st.sampled_from(FIELDS))] = draw(JSON)
        return out
    if isinstance(value, list) and value and draw(st.booleans()):
        i = draw(st.integers(0, len(value) - 1))
        how = draw(st.sampled_from(("drop", "edit", "repeat")))
        out = list(value)
        if how == "drop":
            del out[i]
        elif how == "edit":
            out[i] = draw(edited(value[i]))
        else:
            out.insert(i, value[i])
        return out
    return draw(JSON)


K_FLAG = st.none() | st.integers(-1, 9)


@st.composite
def edited_payloads(draw, kind):
    """The text of a valid payload after up to three edits, sometimes cut
    short, and a --k flag that is often the payload's own rank."""
    value, k = draw(valid_payloads(kind))
    for _ in range(draw(st.integers(0, 3))):
        value = draw(edited(value))
    text = json.dumps(value)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text, draw(st.just(k) | K_FLAG)


@pytest.mark.parametrize("kind", cli.KINDS)
class TestFuzz:
    @settings(max_examples=40, deadline=DEADLINE)
    @given(value=JSON, k=K_FLAG)
    def test_arbitrary_json(self, kind, value, k):
        assert_contract(kind, json.dumps(value), k)

    @settings(max_examples=80, deadline=DEADLINE)
    @given(data=st.data())
    def test_edited_valid_payloads(self, kind, data):
        assert_contract(kind, *data.draw(edited_payloads(kind)))
