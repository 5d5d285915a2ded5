"""Command line front end.

Subcommands: ``gen`` writes instance files, ``decompose`` tables the
per-pattern digraphs and their structural checks, ``color`` runs the full
dichotomy and emits a certificate, ``verify`` re-checks a certificate
against an instance, and ``oracle`` exposes the exact solvers.

Exit codes: 0 success (for ``color``: a coloring), 2 bad input, 3 the
dichotomy produced an induced tree, 4 an exact oracle refused an instance
above its size limit, 5 a verification failed.

A coloring certificate carries r and k, not its bound: ``verify`` works
the bound out from them and the boxes, and ``color`` prints the palette,
r and k. Certificate entries are JSON arrays by position (box i's color,
tree vertex v's box), so ``verify`` reads no keys but the top-level ones.

The size limits are fixed: 40 boxes for the clique and independence
oracles, 20 for the chromatic number and 14 for ``decompose``'s modesty
and divergence checks. ``color`` in d >= 2 goes past 40 boxes only with
``--omega-bound``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .embedding import CalmSearchError
from .generators import (
    burling_like,
    grid_disjoint_boxes,
    nested_chain_boxes,
    random_boxes,
)
from .geometry import _quote, boxes_to_text, load_boxes, normalize
from .graphs import intersection_graph
from .oracles import OracleLimitError, alpha, chi, omega
from .patterns import VERIFY_LIMIT, verify_basic
from .patterns import decompose as decompose_boxes
from .pipeline import (
    ProperColoring,
    certificate_to_json,
    color_or_find_forest,
    extract_independent,
    parse_certificate,
    verify_certificate,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TREE = 3
EXIT_REFUSED = 4
EXIT_FAILED = 5


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{_quote(text)} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{_quote(text)} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_normalized(path: str):
    return normalize(load_boxes(path))


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "random":
        boxes = random_boxes(args.n, args.d, args.seed)
    elif args.kind == "nested":
        boxes = nested_chain_boxes(args.n, args.d)
    elif args.kind == "grid":
        boxes = grid_disjoint_boxes(args.n, args.d)
    else:
        boxes = burling_like(args.level, args.limit)
    _write_text(boxes_to_text(boxes), args.out)
    return EXIT_OK


def _flag(value: bool | None) -> str:
    if value is None:
        return "skipped"
    return "yes" if value else "NO"


def _pattern_count(d: int) -> str:
    """4^d in decimal, or as the power where the decimal has more digits than
    the interpreter writes (from d = 7143 at its default limit of 4300)."""
    try:
        return str(4**d)
    except ValueError:
        return f"4^{d}"


def cmd_decompose(args: argparse.Namespace) -> int:
    boxes = _load_normalized(args.input)
    d = boxes[0].dim
    g = intersection_graph(boxes)
    family = decompose_boxes(boxes, g)
    width = max(len("pattern"), d)
    print(f"{'pattern':<{width}}  {'arcs':>6}  acyclic  modest  divergent")
    failed = False
    skipped = False
    for pd in family:
        report = verify_basic(pd, g)
        skipped = skipped or report.modest is None
        failed = failed or report.acyclic is False
        failed = failed or report.modest is False or report.divergent is False
        line = (
            f"{str(pd.pattern):<{width}}  {sum(map(len, pd.digraph.out)):>6}  "
            f"{_flag(report.acyclic):<7}  {_flag(report.modest):<6}  "
            f"{_flag(report.divergent)}"
        )
        if report.witness:
            line += f"  [{report.witness}]"
        print(line)
    print(f"{_pattern_count(d)} patterns, {len(family)} with arcs, n={len(boxes)}")
    if skipped:
        print(
            f"note: structural checks skipped, n={len(boxes)} exceeds the "
            f"verification limit {VERIFY_LIMIT}"
        )
    return EXIT_FAILED if failed else EXIT_OK


def cmd_color(args: argparse.Namespace) -> int:
    boxes = _load_normalized(args.input)
    cert = color_or_find_forest(boxes, args.r, args.k, omega_bound=args.omega_bound)
    _write_text(certificate_to_json(cert), args.out)
    if isinstance(cert, ProperColoring):
        palette = cert.coloring.palette_size
        print(
            f"coloring: {palette} color{'' if palette == 1 else 's'} within the bound "
            f"for depth {cert.r}, branching {cert.k}",
            file=sys.stderr,
        )
        return EXIT_OK
    print(
        f"induced tree: depth {cert.r}, branching {cert.k}, {len(cert.mapping)} boxes",
        file=sys.stderr,
    )
    return EXIT_TREE


def cmd_verify(args: argparse.Namespace) -> int:
    boxes = _load_normalized(args.input)
    with open(args.certificate, "r", encoding="utf-8") as fh:
        payload = parse_certificate(fh.read())
    ok, message = verify_certificate(boxes, payload)
    print(message)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_oracle(args: argparse.Namespace) -> int:
    boxes = _load_normalized(args.input)
    g = intersection_graph(boxes)
    if args.stat in ("chi", "omega", "alpha"):
        fn = {"chi": chi, "omega": omega, "alpha": alpha}[args.stat]
        print(f"{args.stat} = {fn(g)}")
        return EXIT_OK
    n, d = len(boxes), boxes[0].dim
    w = omega(g)
    a = alpha(g)
    bound_ok = a**d * w >= n
    need = 1
    while need**d * w < n:
        need += 1
    found = extract_independent(boxes)
    extract_ok = len(found.ids) >= need
    print(f"n = {n}, d = {d}, omega = {w}, alpha = {a}")
    print(f"containment bound alpha^d * omega >= n: {'PASS' if bound_ok else 'FAIL'}")
    print(
        f"extraction found {len(found.ids)} disjoint boxes, needs {need}: "
        f"{'PASS' if extract_ok else 'FAIL'}"
    )
    return EXIT_OK if bound_ok and extract_ok else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxforest",
        description="Color box intersection graphs or find induced trees in them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument(
        "--kind", required=True, choices=("random", "nested", "grid", "burling")
    )
    gen.add_argument("--n", type=_positive, default=10, help="box count")
    gen.add_argument("--d", type=_positive, default=2, help="dimension")
    gen.add_argument("--seed", type=int, default=0, help="random seed")
    gen.add_argument(
        "--level", type=_positive, default=3, help="recursion depth (burling)"
    )
    gen.add_argument(
        "--limit", type=_positive, default=2000,
        help="size guard for the burling recursion",
    )
    gen.add_argument("--out", default=None, help="output path (default stdout)")
    gen.set_defaults(func=cmd_gen)

    dec = sub.add_parser(
        "decompose", help="table the per-pattern digraphs and structural checks"
    )
    dec.add_argument("input", help="box file")
    dec.set_defaults(func=cmd_decompose)

    col = sub.add_parser(
        "color", help="run the dichotomy: proper coloring or induced tree"
    )
    col.add_argument("input", help="box file")
    col.add_argument("--r", type=_nonnegative, required=True, help="tree depth")
    col.add_argument("--k", type=_positive, required=True, help="tree branching")
    col.add_argument(
        "--omega-bound", type=_positive, default=None,
        help="caller-guaranteed clique number upper bound (skips the oracle)",
    )
    col.add_argument("--out", default=None, help="certificate path (default stdout)")
    col.set_defaults(func=cmd_color)

    ver = sub.add_parser("verify", help="re-check a certificate against an instance")
    ver.add_argument("input", help="box file")
    ver.add_argument("--certificate", required=True, help="certificate JSON path")
    ver.set_defaults(func=cmd_verify)

    orc = sub.add_parser("oracle", help="run an exact solver on an instance")
    orc.add_argument("input", help="box file")
    orc.add_argument(
        "--stat", required=True, choices=("chi", "omega", "alpha", "ehcheck")
    )
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleLimitError as exc:
        # on color only the clique oracle refuses, and a bound replaces it
        hint = (
            "; pass --omega-bound, an upper bound on the clique number"
            if args.func is cmd_color
            else ""
        )
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_REFUSED
    except CalmSearchError as exc:
        print(
            f"error: {exc}; the omega bound may be below the clique number",
            file=sys.stderr,
        )
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
