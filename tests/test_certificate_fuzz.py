"""Tampered certificates get the verdict an independent checker gives.

Valid coloring and tree certificates are mutated field by field: keys
dropped or added, values swapped for other JSON types, entry arrays made
one too long or too short, entries set out of range, and r, k or the
palette set to zero, negative or huge values, some of them integers of
more digits than the reader accepts. ``verify`` must answer each with the
exit code that ``checker.verdict`` works out without the package: 0 (the
certificate still holds), 2 (input error) or 5 (refuted), never a
traceback.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxforest.cli import main
from checker import verdict

STAR = "2 4\n0 9 0 9\n1 2 1 2\n4 5 4 5\n7 8 7 8\n"

# (box file, color argv, exit code of color): two colorings, d = 2 and
# d = 1, and a tree
INSTANCES = {
    "coloring-2d": (None, ["--r", "1", "--k", "2"], 0),
    "coloring-1d": ("1 5\n0 3\n1 4\n2 5\n6 8\n7 9\n", ["--r", "1", "--k", "1"], 0),
    "tree": (STAR, ["--r", "1", "--k", "1"], 3),
}


def _quiet(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def certified(tmp_path_factory) -> dict[str, tuple[str, dict]]:
    """Each instance's box file path and its valid certificate, parsed."""
    root = tmp_path_factory.mktemp("fuzz")
    out = {}
    for name, (text, argv, code) in INSTANCES.items():
        path = root / f"{name}.txt"
        if text is None:
            assert _quiet(["gen", "--kind", "random", "--n", "8", "--d", "2", "--seed", "5",
                           "--out", str(path)]) == 0
        else:
            path.write_text(text)
        cert = root / f"{name}.json"
        assert _quiet(["color", str(path), *argv, "--out", str(cert)]) == code
        assert _quiet(["verify", str(path), "--certificate", str(cert)]) == 0
        assert verdict(path, cert) == 0
        out[name] = (str(path), json.loads(cert.read_text()))
    return out


HUGE = st.sampled_from([10**6, 2**64, 10**100, 10**4000])
# stands for an integer of 5000 digits, which JSON allows but the reader
# refuses; json.dumps writes no int that long, so it is put in the text
TOO_LONG = "<5000 digits>"
INTS = st.one_of(
    st.integers(-3, 12), st.integers(), HUGE, HUGE.map(int.__neg__), st.just(TOO_LONG)
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(["coloring", "induced_tree"]),
    INTS,
)
# any JSON value: lists and objects swap in for the other types
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)
FIELDS = ["kind", "r", "k", "palette", "colors", "map", "bound", ""]


@st.composite
def mutation(draw):
    """One change to a payload, as a function that applies it in place."""
    how = draw(
        st.sampled_from(["drop", "set", "number", "entry", "past", "grow", "shrink", "keyed"])
    )
    if how == "drop":
        key = draw(st.sampled_from(FIELDS))
        return lambda p: p.pop(key, None)
    if how == "set":
        key, value = draw(st.sampled_from(FIELDS)), draw(VALUES)
        return lambda p: p.__setitem__(key, value)
    if how == "number":  # r, k or the palette: zero, negative, huge or shifted
        key = draw(st.sampled_from(["r", "k", "palette"]))
        value = draw(st.one_of(st.sampled_from([0, -1, 1, 2]), HUGE, st.just(TOO_LONG)))
        shift = draw(st.booleans())

        def number(p):
            old = p.get(key)
            p[key] = old + value if shift and type(old) is type(value) is int else value

        return number
    at = draw(st.integers(0, 20))
    value = draw(st.one_of(INTS, SCALARS, st.lists(INTS, max_size=2)))
    past = draw(st.integers(-2, 2))

    def entries(p):
        for key in ("colors", "map"):
            array = p.get(key)
            if type(array) is not list:
                continue
            if how == "grow":
                array.append(value)
            elif how == "keyed":  # as an object keyed by decimal ids
                p[key] = {str(i): e for i, e in enumerate(array)}
            elif array and how == "shrink":
                array.pop(at % len(array))
            elif array and how == "entry":
                array[at % len(array)] = value
            elif array:  # near the palette, or near the number of entries
                top = p["palette"] if type(p.get("palette")) is int else len(array)
                array[at % len(array)] = top + past

    return entries


@pytest.mark.parametrize("name", INSTANCES)
@given(changes=st.lists(mutation(), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_tampered_certificates_get_a_documented_exit_code(
    certified, tmp_path_factory, name, changes
):
    path, good = certified[name]
    payload = copy.deepcopy(good)
    for change in changes:
        change(payload)
    cert = tmp_path_factory.getbasetemp() / f"{name}-tampered.json"
    cert.write_text(json.dumps(payload).replace(json.dumps(TOO_LONG), "9" * 5000))
    assert _quiet(["verify", path, "--certificate", str(cert)]) == verdict(path, cert)


@pytest.mark.parametrize("name", INSTANCES)
def test_an_entry_of_too_many_digits_is_an_input_error(certified, tmp_path_factory, name):
    # JSON holds integers of any length; the reader refuses past 4300 digits
    path, good = certified[name]
    key = "map" if name == "tree" else "colors"
    text = json.dumps(good).replace(f'"{key}": [', f'"{key}": [{"9" * 5000}, ', 1)
    cert = tmp_path_factory.getbasetemp() / f"{name}-digits.json"
    cert.write_text(text)
    assert _quiet(["verify", path, "--certificate", str(cert)]) == 2
