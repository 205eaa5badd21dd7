"""The package's modules import one another in fixed layers: each module
reads only modules of a lower layer, so the import graph has no cycle; and
every name the benchmark's tracer wraps still exists where it looks."""

import ast
import importlib.util
from pathlib import Path

from pseudoprimes import sieve

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pseudoprimes"

LAYER = {
    "errors": 0,
    "arith": 0,
    "bulk": 1,
    "fermat": 2,
    "sieve": 2,
    "density": 3,
    "cli": 4,
    "__main__": 5,
    "__init__": 5,
}


def _package_imports(module: str) -> set[str]:
    """Package modules that `module` imports anywhere, function bodies too."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[:1] != ["pseudoprimes"]:
                    continue
                path = path[1:]
            found.update(path[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] == "pseudoprimes" and len(path) > 1:
                    found.add(path[1])
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(LAYER)


def test_bottom_layers():
    assert _package_imports("errors") == set()
    assert _package_imports("arith") == set()
    assert _package_imports("bulk") == {"arith"}


def test_modules_import_only_lower_layers():
    for module, layer in LAYER.items():
        for imported in _package_imports(module):
            assert LAYER[imported] < layer, (module, imported)


def test_benchmark_traced_names_exist():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, *_ in spans.LAYERS:
        assert attr in vars(owner), (owner, attr)
    assert hasattr(sieve.JacobiCondition, "UNKNOWN")  # read by the class_conditions hook
