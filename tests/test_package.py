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


# module-level containers a library module may hold: the export list and the registry
STATE_ALLOWED = ("__all__", "REGISTRY")
_MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTABLE_CONSTRUCTORS = ("dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque")


def _module_statements(body):
    """Statements run at import, including those under module-level if/try/with."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_statements(getattr(node, field, []))


def _is_mutable_container(value) -> bool:
    if isinstance(value, ast.Tuple):
        return any(_is_mutable_container(element) for element in value.elts)
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in _MUTABLE_CONSTRUCTORS
    return isinstance(value, _MUTABLE_DISPLAYS)


def module_state(source: str) -> list[str]:
    """Module-level names bound to a dict, list or set display, comprehension or constructor.

    Such a container is shared by every caller in the process, so a cache
    kept there outlives the call that filled it.
    """
    found = []
    for node in _module_statements(ast.parse(source).body):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        names = [ast.unparse(target) for target in targets]
        if node.value is not None and _is_mutable_container(node.value):
            found += [f"{name} (line {node.lineno})" for name in names if name not in STATE_ALLOWED]
    return found


def test_module_state_check_catches_a_planted_cache():
    source = (
        "import collections\n"
        "_CACHE = {}\n"
        "_SEEN: set = set()\n"
        "_PAIRS = ([], 1)\n"
        "if True:\n"
        "    _LOG = collections.deque()\n"
        "_ROWS = [i for i in range(3)]\n"
        "__all__ = ['f']\n"
        "REGISTRY = {'a': 1}\n"
        "_NAMES = frozenset({'a', 'b'})\n"
        "_GRID = tuple(i for i in range(3))\n"
        "def f():\n"
        "    local = {}\n"
        "    return local\n"
    )
    assert module_state(source) == [
        "_CACHE (line 2)",
        "_SEEN (line 3)",
        "_PAIRS (line 4)",
        "_LOG (line 6)",
        "_ROWS (line 7)",
    ]


def test_library_modules_hold_no_module_level_containers():
    found = {
        path.name: state
        for path in sorted(SRC.glob("*.py"))
        if (state := module_state(path.read_text(encoding="utf-8")))
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
