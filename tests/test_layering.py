"""The package's modules import one another in fixed layers: each module
reads only modules of a lower layer, so the import graph has no cycle; the
test oracles share no kernel with the library above `arith`; and every name
the benchmark's tracer wraps still exists where it looks."""

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


def _package_imports(path: Path) -> set[str]:
    """Package modules that the file at `path` imports anywhere, function
    bodies too."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["pseudoprimes"]:
                    continue
                parts = parts[1:]
            found.update(parts[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "pseudoprimes" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(LAYER)


def test_bottom_layers():
    assert _package_imports(SRC / "errors.py") == set()
    assert _package_imports(SRC / "arith.py") == set()
    assert _package_imports(SRC / "bulk.py") == {"arith"}


def test_fermat_imports_only_arith():
    assert _package_imports(SRC / "fermat.py") == {"arith"}


def test_oracles_import_no_library_kernel():
    # the oracles check bulk, sieve and density, so they may not run them
    assert _package_imports(ROOT / "tests" / "oracles.py") == {"arith"}


def test_modules_import_only_lower_layers():
    for module, layer in LAYER.items():
        for imported in _package_imports(SRC / f"{module}.py"):
            assert LAYER[imported] < layer, (module, imported)


def test_benchmark_traced_names_exist():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, *_ in spans.LAYERS:
        assert attr in vars(owner), (owner, attr)
    assert hasattr(sieve.JacobiCondition, "UNKNOWN")  # read by the class_conditions hook
