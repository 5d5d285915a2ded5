"""Fuzzed box files through the command line: a documented exit code, always.

Hypothesis writes text and JSON box files for d = 1..6 and up to 10 boxes:
sides of zero width and shared endpoints, bounds written as integers,
fractions, decimals and exponents, integers above the interpreter's 4300
digit limit and other bad tokens, blank or empty files, headers that do
not match the rows, and JSON box files with values of the wrong type.
For each file ``color`` must return 0, 2, 3, 4 or 5 and raise nothing,
``verify`` must accept every certificate ``color`` writes, and
``normalize`` must be idempotent on every family that loads.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from boxforest import load_boxes, normalize
from boxforest.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}

# few distinct values, so sides of zero width and shared endpoints are common
VALUES = st.builds(Fraction, st.integers(-4, 12), st.sampled_from([1, 1, 1, 2, 4]))
WIDTHS = st.one_of(
    st.builds(Fraction, st.integers(1, 8), st.sampled_from([1, 2, 4])), st.just(Fraction(0))
)
# tokens no box file may hold, and a few that load although they look odd
ODD_TOKENS = st.sampled_from([
    "9" * 4301,  # one digit above the interpreter's limit for int()
    "-" + "7" * 5000,
    "9" * 4300,
    "1e4300",
    "1e-4300",
    "1e4301",
    "1e99999999999",
    "inf",
    "nan",
    "1/0",
    "0x10",
    "1_000",
    "abc",
    "--1",
])


@st.composite
def text_token(draw, value: Fraction) -> str:
    """``value`` written one of the ways a box file may write it."""
    if value.denominator == 1:
        v = int(value)
        return draw(st.sampled_from([str(v), f"{v}.0", f"{2 * v}/2", f"{v}e0", f"{v * 10}e-1"]))
    # denominators 2 and 4 have exact two-place decimals
    return draw(st.sampled_from([f"{value.numerator}/{value.denominator}", f"{float(value):.2f}"]))


@st.composite
def rows(draw) -> tuple[int, list[list[Fraction]]]:
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 10))
    family = []
    for _ in range(n):
        row = []
        for _ in range(d):
            lo = draw(VALUES)
            row.extend((lo, lo + draw(WIDTHS)))
        family.append(row)
    if draw(st.integers(0, 7)) == 0:  # one side with lo above hi
        row = draw(st.sampled_from(family))
        a = 2 * draw(st.integers(0, d - 1))
        row[a], row[a + 1] = row[a + 1] + 1, row[a]
    return d, family


@st.composite
def text_files(draw) -> str:
    d, family = draw(rows())
    lines = [[draw(text_token(v)) for v in row] for row in family]
    n = len(family)
    header = f"{d} {n}"
    fault = draw(st.integers(0, 7))
    if fault == 1:  # one bad or odd token
        row = draw(st.integers(0, n - 1))
        lines[row][draw(st.integers(0, 2 * d - 1))] = draw(ODD_TOKENS)
    elif fault == 2:  # a header that does not match the rows
        header = draw(st.sampled_from([f"{d} {n + 1}", f"{d} {n - 1}", f"{d + 1} {n}", f"0 {n}",
                                       f"{d}", f"{d} {n} 1", "d n", f"{d} {n}.0"]))
    elif fault == 3:  # a row one bound short
        lines[draw(st.integers(0, n - 1))].pop()
    elif fault == 4:  # no rows, or no text at all
        return draw(st.sampled_from(["", "\n", "  \n\t\n", header, f"{header}\n\n"]))
    body = [" ".join(line) for line in lines]
    if draw(st.booleans()):  # blank lines anywhere
        spot = draw(st.integers(0, len(body)))
        body.insert(spot, draw(st.sampled_from(["", "   ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([header, *body]) + newline


def json_value(draw, value: Fraction):
    """``value`` as a JSON int, float or string."""
    kind = draw(st.sampled_from(["int", "float", "str"]))
    if kind == "int" and value.denominator == 1:
        return int(value)
    if kind == "float":
        return float(value)  # exact: the denominators are powers of two
    return draw(text_token(value))


@st.composite
def json_files(draw) -> str:
    d, family = draw(rows())
    boxes = [
        [[json_value(draw, row[2 * a]), json_value(draw, row[2 * a + 1])] for a in range(d)]
        for row in family
    ]
    fault = draw(st.integers(0, 12))
    i = draw(st.integers(0, len(boxes) - 1))
    a = draw(st.integers(0, d - 1))
    if fault == 1:
        boxes[i][a][draw(st.integers(0, 1))] = draw(
            st.sampled_from([True, None, [], {}, [1, 2], "x", "1e99999999999"])
        )
    elif fault == 2:
        boxes[i][a] = draw(st.sampled_from([[], [0], [0, 1, 2], 5, "0 1", {"lo": 0}]))
    elif fault == 3:
        boxes[i] = draw(st.sampled_from([[], 7, "box", {"0": [0, 1]}, None]))
    elif fault == 4:
        return draw(st.sampled_from([
            "[]", "{}", '{"boxes": []}', '{"boxes": {}}', '{"boxes": 3}',
            '{"boxes": null}', '{"box": [[[0, 1]]]}', "{", '{"boxes": [[[0, 1]]]',
        ]))
    elif fault == 5:  # JSON literals Python reads as floats, and huge integers
        boxes[i][a][0] = "@"
        token = draw(st.sampled_from(["Infinity", "-Infinity", "NaN", "9" * 4301, "1e400"]))
        return json.dumps({"boxes": boxes}).replace('"@"', token)
    return json.dumps({"boxes": boxes})


BOX_FILES = st.one_of(text_files(), json_files())


def _quiet(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=200, deadline=None)
@given(
    text=BOX_FILES,
    r=st.integers(0, 2),
    k=st.integers(1, 3),
    omega_bound=st.one_of(st.none(), st.integers(1, 4)),
)
def test_color_answers_every_box_file_and_its_certificates_verify(text, r, k, omega_bound):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "boxes")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        cert = os.path.join(root, "cert.json")
        argv = ["color", path, "--r", str(r), "--k", str(k), "--out", cert]
        if omega_bound is not None:
            argv += ["--omega-bound", str(omega_bound)]
        code = _quiet(argv)
        event(f"color exits {code}")
        assert code in EXIT_CODES
        if os.path.exists(cert):
            assert code in (0, 3)
            assert _quiet(["verify", path, "--certificate", cert]) == 0
        try:
            boxes = normalize(load_boxes(path))
        except ValueError:
            assert code == 2  # a family that does not load is an input error
            return
        assert normalize(boxes) == boxes
