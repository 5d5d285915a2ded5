"""Command line surface: subcommands, exit codes, refusals, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import boxforest
from boxforest import boxes_from_rows, load_boxes, normalize, random_boxes, save_boxes
from boxforest import cli
from boxforest.cli import main


def run_module(module, *argv):
    """``python -m module argv`` in a fresh interpreter, killed after 60 s."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(boxforest.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


def write_instance(tmp_path, name, kind, **kw):
    path = tmp_path / name
    argv = ["gen", "--kind", kind, "--out", str(path)]
    for key, value in kw.items():
        argv.extend((f"--{key}", str(value)))
    assert main(argv) == 0
    return path


class TestGen:
    def test_kinds_roundtrip(self, tmp_path):
        for kind in ("random", "nested", "grid"):
            path = write_instance(tmp_path, f"{kind}.txt", kind, n=6, d=2)
            boxes = load_boxes(path)
            assert len(boxes) == 6
            assert boxes == normalize(boxes)

    def test_burling_level(self, tmp_path):
        path = write_instance(tmp_path, "b.txt", "burling", level=3)
        assert len(load_boxes(path)) == 13

    def test_burling_over_limit_is_input_error(self, tmp_path):
        out = tmp_path / "big.txt"
        assert main(["gen", "--kind", "burling", "--level", "5", "--out", str(out)]) == 2

    def test_burling_guard_stops_counting_past_the_limit(self, tmp_path, capsys):
        # the box count of level 40 is doubly exponential in the level; the
        # guard stops counting at the first level past the limit
        out = tmp_path / "big.txt"
        argv = ["gen", "--kind", "burling", "--level", "40", "--limit", "5", "--out", str(out)]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == "error: level 40 would produce more than 5 boxes\n"
        assert not out.exists()

    def test_stdout_default(self, capsys):
        assert main(["gen", "--kind", "grid", "--n", "4", "--d", "1"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "1 4"

    def test_bad_kind_rejected(self):
        with pytest.raises(SystemExit):
            main(["gen", "--kind", "mystery"])


class TestDecompose:
    def test_table_and_exit(self, tmp_path, capsys):
        path = write_instance(tmp_path, "r.txt", "random", n=8, d=2, seed=7)
        assert main(["decompose", str(path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == [
            "pattern", "arcs", "acyclic", "modest", "divergent",
        ]
        # one row per pattern with arcs, then the footer
        *rows, footer = lines[1:]
        assert footer.startswith("16 patterns, ") and footer.endswith(" with arcs, n=8")
        assert len(rows) == int(footer.split()[2]) >= 2
        assert all(int(row.split()[1]) > 0 and "yes" in row for row in rows)
        assert "NO" not in out

    def test_skip_notice_above_verify_limit(self, tmp_path, capsys):
        # the structural checks stop at 14 boxes
        path = write_instance(tmp_path, "big.txt", "random", n=16, d=1, seed=0)
        assert main(["decompose", str(path)]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out

    def test_missing_file_is_input_error(self, capsys):
        assert main(["decompose", "/nonexistent/boxes.txt"]) == 2
        assert capsys.readouterr().err


class TestColor:
    def test_coloring_certificate(self, tmp_path, capsys):
        path = write_instance(tmp_path, "c.txt", "random", n=9, d=1, seed=3)
        cert_path = tmp_path / "cert.json"
        code = main(["color", str(path), "--r", "1", "--k", "1", "--out", str(cert_path)])
        assert code == 0
        payload = json.loads(cert_path.read_text())
        assert payload["kind"] == "coloring"
        assert sorted(payload) == ["colors", "k", "kind", "palette", "r"]
        assert (payload["r"], payload["k"]) == (1, 1)
        summary = capsys.readouterr().err
        assert "coloring" in summary

    @pytest.mark.parametrize("omega_bound", [None, "9", "2"])
    def test_interval_summary_prints_the_certificate_fields(
        self, tmp_path, capsys, omega_bound
    ):
        # d = 1 colors with exactly omega colors, whatever --omega-bound
        # says, and the summary names what the certificate carries
        path = write_instance(tmp_path, "c.txt", "random", n=9, d=1, seed=3)
        cert_path = tmp_path / "cert.json"
        argv = ["color", str(path), "--r", "1", "--k", "1", "--out", str(cert_path)]
        if omega_bound is not None:
            argv += ["--omega-bound", omega_bound]
        assert main(argv) == 0
        payload = json.loads(cert_path.read_text())
        assert capsys.readouterr().err == (
            f"coloring: {payload['palette']} colors within the bound for depth 1, branching 1\n"
        )

    def test_supplied_omega_bound_is_not_printed_as_omega(self, tmp_path, capsys):
        # two overlapping squares: omega is 2, and the bound of 30 makes the
        # tree too big to search, so the host graph is colored. The summary
        # names no omega, supplied or not, and the certificates are equal
        path = tmp_path / "pair.txt"
        save_boxes(boxes_from_rows([[0, 2, 0, 2], [1, 3, 1, 3]]), str(path))
        certs = []
        for extra in (["--omega-bound", "30"], []):
            certs.append(tmp_path / f"c{len(certs)}.json")
            argv = ["color", str(path), "--r", "1", "--k", "1", "--out", str(certs[-1])]
            assert main(argv + extra) == 0
            assert capsys.readouterr().err == (
                "coloring: 2 colors within the bound for depth 1, branching 1\n"
            )
        assert certs[0].read_bytes() == certs[1].read_bytes()

    def test_one_color_is_singular(self, tmp_path, capsys):
        path = tmp_path / "apart.txt"
        save_boxes(boxes_from_rows([[0, 1, 0, 1], [2, 3, 2, 3]]), str(path))
        argv = ["color", str(path), "--r", "1", "--k", "1", "--out", str(tmp_path / "c.json")]
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "coloring: 1 color within the bound for depth 1, branching 1\n"
        )

    # file name: (contents, what the error must quote); Fraction would build
    # 10 ** (10 ** 11) for each of these exponents
    HUGE_EXPONENTS = {
        "huge.txt": ("1 1\n1e99999999999 2\n", "bad number '1e99999999999'"),
        "tiny.txt": ("1 1\n1e-99999999999 2\n", "bad number '1e-99999999999'"),
        "huge.json": (
            json.dumps({"boxes": [[["1e99999999999", 2]]]}),
            "bad number '1e99999999999'",
        ),
    }

    @pytest.mark.parametrize("name", HUGE_EXPONENTS)
    def test_huge_exponent_is_refused_before_it_is_built(self, tmp_path, name):
        text, quoted = self.HUGE_EXPONENTS[name]
        path = tmp_path / name
        path.write_text(text)
        proc = run_module("boxforest", "color", str(path), "--r", "1", "--k", "1")
        assert proc.returncode == 2
        assert quoted in proc.stderr and "exponent above 4300" in proc.stderr
        assert len(proc.stderr) < 200

    def test_exponents_up_to_4300_load(self, tmp_path, capsys):
        path = tmp_path / "e300.txt"
        path.write_text("1 1\n0 1e300\n")
        proc = run_module("boxforest", "color", str(path), "--r", "1", "--k", "1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["palette"] == 1
        for exponent, code in (("4300", 0), ("-4300", 0), ("4301", 2), ("0_4301", 2)):
            path.write_text(f"1 1\n0 1e{exponent}\n")
            assert main(["color", str(path), "--r", "1", "--k", "1"]) == code, exponent
        assert "exponent above 4300" in capsys.readouterr().err

    def test_tree_certificate_exit_code(self, tmp_path, capsys):
        rows = "2 4\n0 9 0 9\n1 2 1 2\n4 5 4 5\n7 8 7 8\n"
        path = tmp_path / "star.txt"
        path.write_text(rows)
        cert_path = tmp_path / "cert.json"
        code = main(["color", str(path), "--r", "1", "--k", "1", "--out", str(cert_path)])
        assert code == 3
        payload = json.loads(cert_path.read_text())
        assert payload["kind"] == "induced_tree"
        assert payload["r"] == 1 and payload["k"] == 1

    def test_refusal_exit_code(self, tmp_path, capsys):
        # the clique oracle stops at 40 boxes, and the message names the way past
        path = write_instance(tmp_path, "w.txt", "random", n=41, d=2, seed=1)
        argv = ["color", str(path), "--r", "1", "--k", "1"]
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            "error: omega oracle refuses n=41 above its limit 40; "
            "pass --omega-bound, an upper bound on the clique number\n"
        )
        assert main([*argv, "--omega-bound", "41"]) == 0

    def test_understated_omega_bound_is_input_error(self, tmp_path, capsys):
        # the clique number of this instance is 4; with a bound of 1 the
        # calm tree search runs out of extension candidates
        path = write_instance(tmp_path, "u.txt", "random", n=8, d=2, seed=2)
        code = main(["color", str(path), "--r", "2", "--k", "1", "--omega-bound", "1"])
        assert code == 2
        assert "below the clique number" in capsys.readouterr().err

    def test_deeply_nested_json_box_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"boxes": ' + "[" * 200_000 + "]" * 200_000 + "}")
        assert main(["color", str(path), "--r", "1", "--k", "1"]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_json_box_file_with_an_integer_of_too_many_digits_is_input_error(
        self, tmp_path, capsys, default_digit_limit
    ):
        if not default_digit_limit:
            pytest.skip("the interpreter reads integers of any length")
        path = tmp_path / "digits.json"
        path.write_text('{"boxes": [[[0, ' + "9" * 4301 + "]]]}")
        assert main(["color", str(path), "--r", "1", "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: bad JSON box file: an integer has more than 4300 digits\n"
        assert "set_int_max_str_digits" not in err

    def test_json_bound_that_is_a_list_gives_a_short_input_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        bound = [[[list(range(3000))]]]
        path.write_text(json.dumps({"boxes": [[[0, 1]], [[0, bound]]]}))
        assert main(["color", str(path), "--r", "1", "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert "box 1" in err and "JSON array" in err
        assert len(err) < 200

    # file name: (contents, what the error must quote)
    BAD_INPUTS = {
        "token.txt": ("2 2\n0 1 0 1\n0 1 0 1" + "x" * 5046 + "\n", "bad number '1x"),
        "bound.json": (
            json.dumps({"boxes": [[[0, 1]], [[0, "1/" + "x" * 5000]]]}),
            "bad number '1/x",
        ),
        "row.txt": ("2 2\n0 1 0 1\n" + "0 1 " * 1300 + "\n", "row 1 '0 1 0 1"),
        "header.txt": ("2 " + "x" * 5000 + "\n0 1 0 1\n", "bad header '2 x"),
        "zero.txt": ("1 1\n1/0 2\n", "bad number '1/0'"),
        "rows.txt": ("2 " + "9" * 4000 + "\n0 1 0 1\n", "does not match the 1 box rows"),
        "width.txt": ("9" * 4000 + " 1\n0 1 0 1\n", "row 0 '0 1 0 1': expected 2d bounds"),
    }

    @pytest.mark.parametrize("name", BAD_INPUTS)
    def test_bad_input_is_quoted_short(self, tmp_path, capsys, name):
        # a huge token, bound, row or header line is quoted by a short
        # prefix and its length, so stderr stays short
        text, quoted = self.BAD_INPUTS[name]
        path = tmp_path / name
        path.write_text(text)
        assert main(["color", str(path), "--r", "1", "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert quoted in err
        assert len(err) < 200

    # file name: (contents, the whole error); every file but the last is
    # made of ASCII integer characters, so int() reads it
    LONG = "bad number '" + "9" * 40 + "'... (5000 characters)"
    BAD_INTEGERS = {
        "plus.txt": ("1 1\n+ 2\n", "bad number '+'"),
        "minus.txt": ("1 1\n0 5-\n", "bad number '5-'"),
        "double.txt": ("1 2\n0 1\n--5 2\n", "bad number '--5'"),
        "digits.txt": ("1 1\n0 " + "9" * 5000 + "\n", LONG),
        "digits-frac.txt": ("1 2\n0 1/2\n0 " + "9" * 5000 + "\n", LONG),
    }

    @pytest.mark.parametrize("name", BAD_INTEGERS)
    def test_token_int_refuses_reads_as_a_bad_number(self, tmp_path, capsys, name):
        # int()'s own messages, "invalid literal" and the 4300-digit limit,
        # never reach the user
        text, message = self.BAD_INTEGERS[name]
        path = tmp_path / name
        path.write_text(text)
        assert main(["color", str(path), "--r", "1", "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "int()" not in err and "digits" not in err

    def test_bad_integer_flag_is_quoted_short(self, tmp_path, capsys):
        path = write_instance(tmp_path, "f.txt", "random", n=5, d=2, seed=1)
        with pytest.raises(SystemExit) as exc:
            main(["color", str(path), "--r", "9" * 5000, "--k", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "(5000 characters) is not an integer" in err
        assert len(err) < 500  # the usage lines and one short error

    def test_bound_below_omega_with_too_few_disjoint_children_is_input_error(
        self, tmp_path, capsys
    ):
        # omega is 7; with a bound of 1 the tree embeds, but its root has
        # only one disjoint child where the pruning needs two
        path = tmp_path / "r.txt"
        save_boxes(random_boxes(12, 2, 0), str(path))
        code = main(["color", str(path), "--r", "1", "--k", "2", "--omega-bound", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "disjoint children" in err and "below the clique number" in err

    def test_tree_summary_prints_no_bound(self, tmp_path, capsys):
        # a d = 6 hub holding 3 disjoint leaves: the tree fits, and a tree
        # carries no bound, so none is built or printed
        rows = [[0, 9] * 6] + [[a, a + 1] * 6 for a in (1, 4, 7)]
        path = tmp_path / "hub6.txt"
        save_boxes(boxes_from_rows(rows), str(path))
        cert = tmp_path / "cert.json"
        code = main(["color", str(path), "--r", "1", "--k", "1", "--out", str(cert)])
        assert code == 3
        assert capsys.readouterr().err == "induced tree: depth 1, branching 1, 2 boxes\n"
        assert json.loads(cert.read_text())["kind"] == "induced_tree"
        assert main(["verify", str(path), "--certificate", str(cert)]) == 0

    @pytest.mark.parametrize(
        "boxes, r, k",
        [
            # the tree cannot fit in 3 boxes; the bound would have about
            # 4.8M digits, and it is neither written nor built
            (boxes_from_rows([[0, 1, 0, 1], [2, 3, 2, 3], [4, 5, 4, 5]]), 1_000_000, 2),
            # every bound of 8 boxes in d >= 6 has more than 4300 digits
            (random_boxes(8, 6, 1), 1, 2),
            (random_boxes(8, 7, 1), 1, 1),
        ],
        ids=["deep", "d6", "d7"],
    )
    def test_colorings_carry_r_and_k_at_once(self, tmp_path, capsys, boxes, r, k):
        path = tmp_path / "boxes.txt"
        save_boxes(boxes, str(path))
        cert = tmp_path / "cert.json"
        start = time.perf_counter()
        assert main(["color", str(path), "--r", str(r), "--k", str(k), "--out", str(cert)]) == 0
        assert main(["verify", str(path), "--certificate", str(cert)]) == 0
        assert time.perf_counter() - start < 1
        payload = json.loads(cert.read_text())
        assert (payload["r"], payload["k"]) == (r, k)
        assert capsys.readouterr().err.startswith("coloring: ")


class TestSixteenDimensions:
    """A hub holding three disjoint leaves in d = 16, where neither the 4^d
    patterns nor a bound raised to the power 4^d can be built."""

    @pytest.fixture
    def star16(self, tmp_path):
        rows = [[0, 9] * 16] + [[a, a + 1] * 16 for a in (1, 4, 7)]
        path = tmp_path / "star16.txt"
        save_boxes(boxes_from_rows(rows), str(path))
        return path

    def test_tree_outcome_is_fast(self, star16, capsys):
        start = time.perf_counter()
        assert main(["color", str(star16), "--r", "1", "--k", "1"]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == "induced tree: depth 1, branching 1, 2 boxes\n"

    def test_coloring_is_written_at_once_and_verifies(self, star16, tmp_path, capsys):
        # the tree outgrows the 4 boxes, so the outcome is a coloring; its
        # certificate carries r and k, and no bound is built to write or check
        cert = tmp_path / "cert.json"
        start = time.perf_counter()
        assert main(["color", str(star16), "--r", "2", "--k", "2", "--out", str(cert)]) == 0
        assert main(["verify", str(star16), "--certificate", str(cert)]) == 0
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == (
            "proper coloring with 2 colors within bound\n",
            "coloring: 2 colors within the bound for depth 2, branching 2\n",
        )

    def test_decompose_tables_only_the_patterns_with_arcs(self, star16, capsys):
        assert main(["decompose", str(star16)]) == 0
        header, *rows, footer = capsys.readouterr().out.splitlines()
        assert [row.split() for row in rows] == [
            ["C" * 16, "3", "yes", "yes", "yes"],
            ["c" * 16, "3", "yes", "yes", "yes"],
        ]
        assert footer == "4294967296 patterns, 2 with arcs, n=4"


class TestThousandDimensions:
    """A hub holding three disjoint leaves in d = 1000, more axes than the
    interpreter's default recursion limit."""

    @pytest.fixture
    def star1000(self, tmp_path):
        rows = [[0, 9] * 1000] + [[a, a + 1] * 1000 for a in (1, 4, 7)]
        path = tmp_path / "star1000.txt"
        save_boxes(boxes_from_rows(rows), str(path))
        return path

    def test_color_gives_a_tree_that_verifies(self, star1000, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        argv = ["color", str(star1000), "--r", "1", "--k", "1", "--out", str(cert)]
        assert main(argv) == 3
        assert capsys.readouterr().err == "induced tree: depth 1, branching 1, 2 boxes\n"
        assert main(["verify", str(star1000), "--certificate", str(cert)]) == 0

    def test_ehcheck_passes(self, star1000, capsys):
        assert main(["oracle", str(star1000), "--stat", "ehcheck"]) == 0
        out = capsys.readouterr().out
        assert "extraction found 3 disjoint boxes, needs 2: PASS" in out


@pytest.fixture
def default_digit_limit():
    """Sets the default limit of 4300 digits on int-to-string conversion
    for the test, where the interpreter has such a limit; yields whether it
    has one."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield False
        return
    old = sys.get_int_max_str_digits()
    set_limit(4300)
    try:
        yield True
    finally:
        set_limit(old)


class TestEightThousandDimensions:
    """A hub holding three disjoint leaves in d = 8000, where 4^d has more
    decimal digits than the interpreter writes at its default limit."""

    def test_decompose_writes_the_table_and_the_count_as_a_power(
        self, tmp_path, capsys, default_digit_limit
    ):
        rows = [[0, 9] * 8000] + [[a, a + 1] * 8000 for a in (1, 4, 7)]
        path = tmp_path / "star8000.txt"
        save_boxes(boxes_from_rows(rows), str(path))
        assert main(["decompose", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        header, *rows, footer = captured.out.splitlines()
        assert header.split() == ["pattern", "arcs", "acyclic", "modest", "divergent"]
        assert [row.split() for row in rows] == [
            ["C" * 8000, "3", "yes", "yes", "yes"],
            ["c" * 8000, "3", "yes", "yes", "yes"],
        ]
        count = "4^8000" if default_digit_limit else str(4**8000)
        assert footer == f"{count} patterns, 2 with arcs, n=4"


class TestVerify:
    def make_pair(self, tmp_path):
        path = write_instance(tmp_path, "i.txt", "random", n=8, d=2, seed=5)
        cert = tmp_path / "cert.json"
        code = main(["color", str(path), "--r", "1", "--k", "2", "--out", str(cert)])
        assert code in (0, 3)
        return path, cert

    def test_accepts_fresh_certificate(self, tmp_path, capsys):
        path, cert = self.make_pair(tmp_path)
        assert main(["verify", str(path), "--certificate", str(cert)]) == 0
        assert capsys.readouterr().out

    def test_rejects_tampered_certificate(self, tmp_path, capsys):
        path, cert = self.make_pair(tmp_path)
        payload = json.loads(cert.read_text())
        assert payload["kind"] == "coloring"
        boxes = load_boxes(path)
        from boxforest import intersection_graph

        u, v = sorted(intersection_graph(boxes).edges)[0]
        payload["colors"][v] = payload["colors"][u]
        payload["palette"] = max(payload["colors"]) + 1
        cert.write_text(json.dumps(payload))
        assert main(["verify", str(path), "--certificate", str(cert)]) == 5
        assert "share color" in capsys.readouterr().out

    # the change to the certificate: a key dropped (None) or set; the exit code
    TAMPERED = {
        "no-r": ({"r": None}, 2),
        "no-k": ({"k": None}, 2),
        "bound": ({"bound": 10**100}, 2),
        "r-0": ({"r": 0}, 5),
        "k-0": ({"k": 0}, 2),
        "r-huge": ({"r": 10**100}, 0),
    }

    @pytest.mark.parametrize("name", TAMPERED)
    def test_coloring_fields_are_checked_not_trusted(self, tmp_path, capsys, name):
        # a leftover bound is refused, never read; depth 0 makes the bound
        # 0; a depth of 10**100 makes it vast, which is decided at once
        change, code = self.TAMPERED[name]
        path, cert = self.make_pair(tmp_path)
        payload = json.loads(cert.read_text())
        for key, value in change.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        cert.write_text(json.dumps(payload))
        start = time.perf_counter()
        assert main(["verify", str(path), "--certificate", str(cert)]) == code
        assert time.perf_counter() - start < 1
        if code == 5:
            assert "exceeds the bound" in capsys.readouterr().out

    @pytest.mark.parametrize("d", [1, 2])
    def test_vast_palette_and_depth_are_decided_at_once(self, tmp_path, d):
        # a stated palette of 10**200 is far past the 2 * 4^d bits that pass
        # at once, and the branching is at least 2 (k = 2 in d = 2, three
        # overlapping intervals in d = 1): the tree of depth 10**100 is
        # refused from bit lengths, never counted
        if d == 2:
            path, cert = self.make_pair(tmp_path)
        else:
            path = tmp_path / "overlap.txt"
            path.write_text("1 3\n0 3\n1 4\n2 5\n")
            cert = tmp_path / "cert.json"
            assert main(["color", str(path), "--r", "1", "--k", "1", "--out", str(cert)]) == 0
        payload = json.loads(cert.read_text())
        assert payload["kind"] == "coloring"
        # box 0 alone takes the palette's last color, so it stays proper
        colors = [10**200 - 1, *payload["colors"][1:]]
        cert.write_text(json.dumps({**payload, "colors": colors, "palette": 10**200, "r": 10**100}))
        start = time.perf_counter()
        assert main(["verify", str(path), "--certificate", str(cert)]) == 0
        assert time.perf_counter() - start < 1

    def test_interval_palette_above_the_bound_is_refuted(self, tmp_path, capsys):
        # d = 1 keys the bound (2 r |T| omega)^4 on the intervals' clique number
        path = write_instance(tmp_path, "c.txt", "random", n=9, d=1, seed=3)
        cert = tmp_path / "cert.json"
        assert main(["color", str(path), "--r", "1", "--k", "1", "--out", str(cert)]) == 0
        payload = json.loads(cert.read_text())
        w = payload["palette"]  # interval graphs get exactly omega colors
        bound = (2 * 1 * (1 + w) * w) ** 4
        for palette, code in ((bound, 0), (bound + 1, 5)):
            colors = [palette - 1, *payload["colors"][1:]]
            cert.write_text(json.dumps({**payload, "colors": colors, "palette": palette}))
            assert main(["verify", str(path), "--certificate", str(cert)]) == code
        assert capsys.readouterr().out.splitlines() == [
            f"proper coloring with {bound} colors within bound",
            f"palette {bound + 1} exceeds the bound (2 r |T| w)^(4^d) for d = 1, "
            f"r = 1, k = 1, w = {w}",
        ]

    def test_garbage_certificate_is_input_error(self, tmp_path):
        path, cert = self.make_pair(tmp_path)
        cert.write_text("{not json")
        assert main(["verify", str(path), "--certificate", str(cert)]) == 2

    def test_deeply_nested_certificate_is_input_error(self, tmp_path, capsys):
        path, cert = self.make_pair(tmp_path)
        cert.write_text('{"kind": "coloring", "colors": ' + "[" * 200_000 + "]" * 200_000 + "}")
        assert main(["verify", str(path), "--certificate", str(cert)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_mismatched_instance_is_input_error(self, tmp_path):
        path, cert = self.make_pair(tmp_path)
        other = write_instance(tmp_path, "other.txt", "random", n=5, d=2, seed=9)
        assert main(["verify", str(other), "--certificate", str(cert)]) == 2

    def make_tree_pair(self, tmp_path):
        path = tmp_path / "star.txt"
        path.write_text("2 4\n0 9 0 9\n1 2 1 2\n4 5 4 5\n7 8 7 8\n")
        cert = tmp_path / "cert.json"
        code = main(["color", str(path), "--r", "1", "--k", "1", "--out", str(cert)])
        assert code == 3
        return path, cert

    @pytest.mark.parametrize("kind", ["coloring", "induced_tree"])
    def test_a_repeated_key_is_an_input_error(self, tmp_path, kind):
        path, cert = (self.make_pair if kind == "coloring" else self.make_tree_pair)(tmp_path)
        text = cert.read_text()
        assert main(["verify", str(path), "--certificate", str(cert)]) == 0
        # each key repeated with its own value: a parser where the later key
        # wins accepts every one
        for key, value in json.loads(text).items():
            cert.write_text(f"{{{json.dumps(key)}:{json.dumps(value)},{text[1:]}")
            assert main(["verify", str(path), "--certificate", str(cert)]) == 2

    @pytest.mark.parametrize("kind", ["coloring", "induced_tree"])
    def test_an_integer_of_too_many_digits_is_bad_json(
        self, tmp_path, capsys, kind, default_digit_limit
    ):
        # JSON holds integers of any length, but the reader refuses one past
        # 4300 digits; that is reported as bad certificate JSON, while a
        # repeated key keeps its own message
        if not default_digit_limit:
            pytest.skip("the interpreter reads integers of any length")
        path, cert = (self.make_pair if kind == "coloring" else self.make_tree_pair)(tmp_path)
        text = cert.read_text()
        capsys.readouterr()
        cert.write_text(text.replace('"k":', '"k":' + "9" * 5000 + ',"x":', 1))
        assert main(["verify", str(path), "--certificate", str(cert)]) == 2
        err = capsys.readouterr().err
        assert err == "error: bad certificate JSON: an integer has more than 4300 digits\n"
        assert "set_int_max_str_digits" not in err
        cert.write_text(text.replace('"k":', '"k":1,"k":', 1))
        assert main(["verify", str(path), "--certificate", str(cert)]) == 2
        assert capsys.readouterr().err == "error: certificate repeats the key 'k'\n"

    @pytest.mark.parametrize("kind", ["coloring", "induced_tree"])
    def test_the_old_keyed_entries_are_input_errors(self, tmp_path, capsys, kind):
        # entries keyed by decimal ids, as certificates once were written
        path, cert = (self.make_pair if kind == "coloring" else self.make_tree_pair)(tmp_path)
        payload = json.loads(cert.read_text())
        field = "colors" if kind == "coloring" else "map"
        payload[field] = {str(i): e for i, e in enumerate(payload[field])}
        cert.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", str(path), "--certificate", str(cert)]) == 2
        assert capsys.readouterr().err == f"error: {field} must be an array\n"

    def test_impossible_tree_size_is_input_error(self, tmp_path):
        path, cert = self.make_tree_pair(tmp_path)
        payload = json.loads(cert.read_text())
        payload["r"] = 10**15
        cert.write_text(json.dumps(payload))
        assert main(["verify", str(path), "--certificate", str(cert)]) == 2


class TestOracle:
    def test_stats(self, tmp_path, capsys):
        path = write_instance(tmp_path, "o.txt", "random", n=7, d=2, seed=2)
        for stat in ("omega", "alpha", "chi"):
            assert main(["oracle", str(path), "--stat", stat]) == 0
            out = capsys.readouterr().out
            assert out.strip().split()[-1].isdigit()

    def test_ehcheck_passes_on_random(self, tmp_path, capsys):
        path = write_instance(tmp_path, "e.txt", "random", n=10, d=2, seed=4)
        assert main(["oracle", str(path), "--stat", "ehcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2 and "FAIL" not in out

    def test_refusal(self, tmp_path, capsys):
        # the chromatic number oracle stops at 20 boxes
        path = write_instance(tmp_path, "r.txt", "random", n=21, d=2, seed=6)
        assert main(["oracle", str(path), "--stat", "chi"]) == 4
        assert capsys.readouterr().err == (
            "error: chi oracle refuses n=21 above its limit 20\n"
        )


class TestDeterminism:
    def test_byte_identical_across_runs(self, tmp_path):
        path = write_instance(tmp_path, "d.txt", "random", n=10, d=2, seed=11)
        outs = []
        for name in ("a", "b", "c"):
            cert = tmp_path / f"{name}.json"
            code = main([
                "color", str(path), "--r", "1", "--k", "2", "--out", str(cert),
            ])
            assert code in (0, 3)
            outs.append(cert.read_bytes())
        assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("command", ["gen", "decompose", "color", "verify", "oracle"])
def test_out_of_memory_is_an_input_error(tmp_path, capsys, monkeypatch, command):
    # one line on stderr, not a traceback, wherever the allocation fails
    path = str(write_instance(tmp_path, "m.txt", "random", n=6, d=2, seed=1))
    argv = {
        "gen": ["gen", "--kind", "random"],
        "decompose": ["decompose", path],
        "color": ["color", path, "--r", "1", "--k", "1"],
        "verify": ["verify", path, "--certificate", str(tmp_path / "cert.json")],
        "oracle": ["oracle", path, "--stat", "omega"],
    }[command]

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "random_boxes" if command == "gen" else "normalize", exhausted)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == "error: out of memory: the instance is too large for this machine\n"


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["boxforest", "boxforest.cli"])
    def test_help(self, module):
        proc = run_module(module, "--help")
        assert proc.returncode == 0
        assert "usage: boxforest" in proc.stdout

    def test_verify(self, tmp_path):
        path = write_instance(tmp_path, "v.txt", "random", n=8, d=2, seed=5)
        cert = tmp_path / "cert.json"
        assert main(["color", str(path), "--r", "1", "--k", "2", "--out", str(cert)]) == 0
        proc = run_module("boxforest", "verify", str(path), "--certificate", str(cert))
        assert proc.returncode == 0
        assert proc.stdout.startswith("proper coloring")
