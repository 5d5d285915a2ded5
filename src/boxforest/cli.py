"""Command line front end.

Subcommands: ``gen`` writes instance files, ``decompose`` tables the arcs
of each pattern digraph, ``color`` runs the full dichotomy and emits a
certificate, ``verify`` re-checks a certificate against an instance, and
``oracle`` runs the exact clique solver.

Exit codes: 0 success (for ``color``: a coloring), 2 bad input or an
instance too large for the machine's memory, 3 the dichotomy produced an
induced tree, 4 the clique oracle refused an instance above its size
limit, 5 ``verify`` refuted a certificate.

A coloring certificate carries r and k, not its bound: ``verify`` works
the bound out from them and the boxes, and ``color`` prints the palette,
r and k. Certificate entries are JSON arrays by position (box i's color,
tree vertex v's box), so ``verify`` reads no keys but the top-level ones.

The clique oracle's size limit is fixed at 40 boxes. ``color`` in d >= 2
goes past it only with ``--omega-bound``.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
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
from .oracles import OracleLimitError, omega
from .patterns import decompose as decompose_boxes
from .pipeline import (
    ProperColoring,
    certificate_to_json,
    color_or_find_forest,
    parse_certificate,
    verify_certificate,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TREE = 3
EXIT_REFUSED = 4
EXIT_FAILED = 5


def _at_least(minimum: int, text: str) -> int:
    """An integer flag's value, refused below ``minimum``, which is 0 or 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{_quote(text)} is not an integer") from None
    if value < minimum:
        kind = "positive" if minimum else "nonnegative"
        raise argparse.ArgumentTypeError(f"must be a {kind} integer")
    return value


_positive = partial(_at_least, 1)
_nonnegative = partial(_at_least, 0)


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
    family = decompose_boxes(boxes, intersection_graph(boxes))
    width = max(len("pattern"), d)
    print(f"{'pattern':<{width}}  {'arcs':>6}")
    for pd in family:
        print(f"{str(pd.pattern):<{width}}  {sum(map(len, pd.digraph.out)):>6}")
    print(f"{_pattern_count(d)} patterns, {len(family)} with arcs, n={len(boxes)}")
    return EXIT_OK


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
    print(f"omega = {omega(intersection_graph(_load_normalized(args.input)))}")
    return EXIT_OK


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

    dec = sub.add_parser("decompose", help="table the arcs of each pattern digraph")
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

    orc = sub.add_parser("oracle", help="run the exact clique solver on an instance")
    orc.add_argument("input", help="box file")
    orc.add_argument("--stat", required=True, choices=("omega",))
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleLimitError as exc:
        # only the clique oracle refuses, and on color a bound replaces it
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
    except MemoryError:
        print(
            "error: out of memory: the instance is too large for this machine",
            file=sys.stderr,
        )
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
