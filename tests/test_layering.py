"""The package's modules import one another in fixed layers: each module
reads only modules of a lower layer, so the import graph has no cycle; the
test oracles share no kernel with the library above `arith`; the kernels kept
as the tests' oracles have no caller in the library; the other array kernels
of `bulk` build no sieve of their own; and every name the benchmark's tracer
wraps still exists where it looks."""

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


# kernels kept only as the tests' oracles for the arrays the library reads
ORACLE_ONLY = {"phi_lambda_arrays", "coprime_part_array"}


def _names_read(path: Path) -> set[str]:
    """Every name the file at `path` reads or imports: bare names, attribute
    names and imported names.  A def's own name is none of these."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_oracle_only_kernels_have_no_library_caller():
    for path in SRC.glob("*.py"):
        assert not _names_read(path) & ORACLE_ONLY, path.name


def test_bulk_array_kernels_read_the_callers_sieve():
    # a job builds one spf_window array and hands it to each kernel; only
    # the oracle phi_lambda_arrays sieves for itself
    tree = ast.parse((SRC / "bulk.py").read_text())
    sieving = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "spf_window"}
    assert sieving == {"phi_lambda_arrays"}


def test_bulk_takes_only_as_index_from_arith():
    # the phi/lambda oracle shares no lambda(p**e) rule with carmichael_lambda
    imported = {alias.name for node in ast.walk(ast.parse((SRC / "bulk.py").read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "arith"
                for alias in node.names}
    assert imported == {"as_index"}


def test_benchmark_traced_names_exist():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, *_ in spans.LAYERS:
        assert attr in vars(owner), (owner, attr)
    assert hasattr(sieve.JacobiCondition, "UNKNOWN")  # read by the class_conditions hook


# the size checks that arith.as_index's lower bound replaced
GONE_CHECKS = {"_check_limit", "_check_b", "_check_n_base"}


def test_size_floors_are_checked_only_in_as_index():
    # every "x must be >= lo" and "x out of the supported k-bit domain"
    # message comes from arith.as_index, so a hand-written floor or domain
    # check cannot drift back in
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        defs = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not (defs | _names_read(path)) & GONE_CHECKS, path.name
        allowed = set()
        if path.stem == "arith":
            as_index = next(node for node in tree.body
                            if isinstance(node, ast.FunctionDef) and node.name == "as_index")
            allowed = {id(node) for node in ast.walk(as_index)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and id(node) not in allowed:
                text = "".join(c.value for c in ast.walk(node)
                               if isinstance(c, ast.Constant) and isinstance(c.value, str))
                assert "must be >=" not in text, (path.name, node.lineno)
                assert "-bit domain" not in text, (path.name, node.lineno)
