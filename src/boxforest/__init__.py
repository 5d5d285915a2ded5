"""Constructive coloring machinery for axis-aligned box intersection graphs.

The package decomposes a box family's intersections into directional
patterns, gradings and tree embeddings, and either properly colors the
intersection graph within an explicit bound or returns an induced copy of
a complete rooted tree. Exact brute-force oracles back every step at
small scale, and the ``boxforest`` command exposes the whole pipeline.

The namespace is lazy (PEP 562): ``import boxforest`` loads no submodule,
and the first lookup of a public name, or of a submodule such as
``boxforest.pipeline``, imports only the module that defines it (with
whatever that module imports in turn). ``_NAMES`` below is the one list
of public names, each under its home module.
"""

from importlib import import_module

__version__ = "0.1.0"

_NAMES = {
    "embedding": (
        "CalmEmbedding", "CalmSearchError", "Grading", "InternalInvariantError",
        "Layering", "TournamentOracle", "embed_calm_tree",
        "find_path_induced_tree", "peel_grading",
    ),
    "generators": (
        "burling_like", "burling_size", "grid_disjoint_boxes",
        "nested_chain_boxes", "random_boxes",
    ),
    "geometry": (
        "Box", "Interval", "OverlapType", "Pattern", "all_patterns", "box",
        "boxes_from_rows", "boxes_to_text", "classify_overlap",
        "intersecting_pairs", "intersection_pattern", "intersects",
        "load_boxes", "normalize", "save_boxes",
    ),
    "graphs": (
        "Coloring", "Digraph", "Graph", "RootedTree", "complete_kary_tree",
        "degeneracy_coloring", "intersection_graph",
    ),
    "oracles": (
        "OracleLimitError", "alpha", "chi", "maximum_clique",
        "maximum_independent_set", "omega",
    ),
    "patterns": (
        "BasicReport", "PatternDigraph", "decompose", "product_coloring",
        "verify_basic",
    ),
    "pipeline": (
        "InducedTree", "ProperColoring", "certificate_to_json", "chi_bound",
        "color_or_find_forest", "extract_independent", "parse_certificate",
        "prune_children", "tree_vertex_count", "verify_certificate",
    ),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _NAMES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups are plain attribute hits
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
