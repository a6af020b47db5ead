"""Package surface: what ``onebit`` exports, and imports each module uses."""

import ast
import pathlib

import onebit

SRC = pathlib.Path(onebit.__file__).resolve().parent

# names that left the library: deleted, or moved into the tests as oracles
REMOVED = (
    "NotSeparatingError",
    "SignPattern",
    "VcEntropyReport",
    "conditional_metric_sq",
    "geodesic_point",
    "hamming_distance",
    "hemisphere_covariance",
    "in_convex_sparse_set",
    "in_sparse_set",
    "in_wedge",
    "margin_separation_count",
    "nearest_center_projection",
    "one_bit_map",
    "sample_convex_sparse",
    "sample_sparse_unit",
    "symmetrized_process_sup",
    "transversal_separation",
    "vc_entropy_check",
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never loads; ``from __future__`` is skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in loaded)


def test_unused_import_check_catches_a_dead_name():
    source = "from .sphere import PointSet, signs\nimport math\n\ndef f(x):\n    return signs(x)\n"
    assert unused_imports(source) == ["PointSet (line 1)", "math (line 2)"]


def test_library_modules_load_every_name_they_import():
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not found


def test_public_surface_is_sorted_unique_and_resolves():
    names = onebit.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        getattr(onebit, name)


def test_removed_names_are_gone():
    assert [name for name in REMOVED if hasattr(onebit, name)] == []
