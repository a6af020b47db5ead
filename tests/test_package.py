"""Package surface: what ``onebit`` exports, and imports each module uses."""

import ast
import pathlib
import re

import onebit

SRC = pathlib.Path(onebit.__file__).resolve().parent

# names that left the library: deleted, or moved into the tests as oracles;
# a dotted name is an attribute of an exported class
REMOVED = (
    "CellReport",
    "CovarianceMatrix",
    "DegenerateGeodesicError",
    "EnsembleKind",
    "EnsembleKindError",
    "GeneratorTag",
    "Geodesic",
    "MeasurementEnsemble.__len__",
    "MeasurementEnsemble.gaussian",
    "MeasurementEnsemble.kind",
    "MeasurementEnsemble.prefix",
    "MeasurementEnsemble.seed",
    "MeasurementEnsemble.uniform",
    "MetricRatioReport",
    "NotSeparatingError",
    "PointSet.unit",
    "ProcessMetric",
    "RipReport",
    "SignPattern",
    "SignProductReport",
    "SudakovReport.max_ratio",
    "UnitVector",
    "VcEntropyReport",
    "WidthMethod",
    "conditional_metric_sq",
    "embedding_size",
    "geodesic_distance",
    "geodesic_point",
    "hamming_distance",
    "hemisphere_covariance",
    "in_convex_sparse_set",
    "in_sparse_set",
    "in_wedge",
    "margin_separation_count",
    "metric_distances",
    "nearest_center_projection",
    "one_bit_map",
    "sample_convex_sparse",
    "sample_sparse_unit",
    "sample_uniform_sphere",
    "sauer_bound",
    "sign_product_statistic",
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


def _private_definitions(node) -> list[str]:
    """Private names (one leading underscore, not dunder) a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _names_read(node) -> set[str]:
    """Names a statement loads, reads as an attribute, or imports."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            read.update(alias.name for alias in sub.names)
    return read


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no statement but their own definition reads."""
    statements = [
        (module, node) for module, source in sources.items() for node in ast.parse(source).body
    ]
    reads = [_names_read(node) for _, node in statements]
    return [
        f"{module}: {name} (line {node.lineno})"
        for i, (module, node) in enumerate(statements)
        for name in _private_definitions(node)
        if not any(name in read for j, read in enumerate(reads) if j != i)
    ]


def test_private_name_check_catches_a_leftover_constant():
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_DEAD: int = 2\n"
            "def _self_only(n):\n"
            "    return _self_only(n - 1)\n"
            "def f():\n"
            "    return _USED + _helper()\n"
            "def _helper():\n"
            "    return 0\n"
            "def _exported():\n"
            "    return 1\n"
        ),
        "b.py": "from .a import _exported\n__all__ = []\n",
    }
    assert unreferenced_private_names(sources) == [
        "a.py: _DEAD (line 2)",
        "a.py: _self_only (line 3)",
    ]


def test_library_private_names_are_all_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


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


def _resolves(dotted: str) -> bool:
    owner, _, attr = dotted.rpartition(".")
    return hasattr(getattr(onebit, owner) if owner else onebit, attr)


def test_removed_names_are_gone():
    assert [name for name in REMOVED if _resolves(name)] == []


def test_readme_python_examples_run():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert examples
    for source in examples:
        exec(compile(source, "README.md", "exec"), {})
