"""The package namespace: the same 53 public names, each loaded on first use.

Importing one name must load only the module that defines it, so a
caller that only generates or loads boxes compiles two modules, not all
seven. The ``sys.modules`` checks run in a fresh interpreter, because this
one has imported every module already.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import boxforest

PUBLIC = {
    "Box", "CalmEmbedding", "CalmSearchError", "Coloring", "Digraph",
    "Grading", "Graph", "InducedTree", "InternalInvariantError",
    "Interval", "Layering", "OracleLimitError", "OverlapType", "Pattern",
    "PatternDigraph", "ProperColoring", "RootedTree", "TournamentOracle",
    "all_patterns", "box", "boxes_from_rows", "boxes_to_text",
    "burling_like", "burling_size", "certificate_to_json", "chi_bound",
    "classify_overlap", "color_or_find_forest", "complete_kary_tree",
    "decompose", "degeneracy_coloring", "embed_calm_tree",
    "extract_independent", "find_path_induced_tree", "grid_disjoint_boxes",
    "intersecting_pairs", "intersection_graph", "intersection_pattern",
    "intersects", "load_boxes", "maximum_clique", "maximum_independent_set",
    "nested_chain_boxes", "normalize", "omega", "parse_certificate",
    "peel_grading", "product_coloring", "prune_children", "random_boxes",
    "save_boxes", "tree_vertex_count", "verify_certificate",
}


def fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter with the package on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(boxforest.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(statement: str) -> set[str]:
    out = fresh(
        f"import sys\n{statement}\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'boxforest'))"
    )
    return set(out.split())


@pytest.mark.parametrize(
    "statement, modules",
    [
        ("import boxforest", {"boxforest"}),
        ("import boxforest.geometry", {"boxforest", "boxforest.geometry"}),
        (
            "from boxforest import load_boxes, random_boxes",
            {"boxforest", "boxforest.geometry", "boxforest.generators"},
        ),
    ],
)
def test_a_name_loads_only_its_own_module(statement, modules):
    assert loaded_after(statement) == modules


def test_a_submodule_resolves_after_a_bare_import():
    out = fresh("import boxforest; print(boxforest.pipeline.verify_certificate.__name__)")
    assert out.split() == ["verify_certificate"]


def test_the_public_names_are_unchanged():
    assert len(boxforest.__all__) == len(PUBLIC)
    assert set(boxforest.__all__) == PUBLIC


def test_every_name_is_its_home_modules_object():
    for name in boxforest.__all__:
        value = getattr(boxforest, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("boxforest.")
        assert getattr(home, name) is value, name


def test_every_submodule_exports_only_public_names():
    # ``from boxforest.<module> import *`` binds nothing the package lacks
    for module in boxforest._NAMES:
        exported = set(importlib.import_module(f"boxforest.{module}").__all__)
        assert exported <= set(boxforest.__all__), (module, exported - set(boxforest.__all__))


def test_dir_lists_every_public_name():
    assert PUBLIC <= set(dir(boxforest))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from boxforest import *", namespace)
    assert PUBLIC <= set(namespace)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'boxforest' has no attribute 'no_such_name'"):
        boxforest.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from boxforest import no_such_name", {})
