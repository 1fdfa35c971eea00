"""Every public function of the package is reached from the package or its benchmark.

A function that only the tests call is a test oracle, and lives in
``tests/oracles.py``.  References inside ``src/zkamp`` and in the benchmark
scripts are read from the syntax tree: a name or an attribute (outside the
function's own definition, in ``src/zkamp``), and in the benchmark also a
string constant naming ``module.name``, such as a span name.  A docstring or
comment mention therefore does not count.  ``pyproject.toml`` names its
entry point in a string, so it is searched as text.

The relabeling basis has one home as well: ``protocol.Instance`` builds S_n
and its orbit-code table, and the rest of the package reads them from there.
So does each public name: its module.  The package itself binds only
``__version__``, so ``zkamp.<name>`` is no second import path.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zkamp"
MODULES = ("registers", "symm", "protocol", "simulator", "amplify", "cli")


def public_functions():
    for short in MODULES:
        module = importlib.import_module(f"zkamp.{short}")
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield short, name


def source_references() -> dict[str, set[tuple[str, str | None]]]:
    """Each referenced name, with the (module, top-level definition) pairs it appears in."""
    refs: dict[str, set[tuple[str, str | None]]] = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    refs.setdefault(node.id, set()).add((path.stem, owner))
                elif isinstance(node, ast.Attribute):
                    refs.setdefault(node.attr, set()).add((path.stem, owner))
    return refs


def benchmark_references() -> set[str]:
    """Names, attributes and ``module.name`` strings of the benchmark scripts, docstrings aside."""
    dotted = re.compile(rf"\b(?:{'|'.join(MODULES)})\.(\w+)")
    refs: set[str] = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docstrings:
                    refs.update(dotted.findall(node.value))
    return refs


REFS = source_references()
BENCH_REFS = benchmark_references()
PYPROJECT = (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("module, name", list(public_functions()))
def test_reached_outside_tests(module, name):
    callers = REFS.get(name, set()) - {(module, name)}
    assert callers or name in BENCH_REFS or re.search(rf"\b{name}\b", PYPROJECT), (
        f"zkamp.{module}.{name} is reached only from tests; move it to tests/oracles.py"
    )


def relabeling_calls():
    """Calls to ``enumerate_sn`` or ``orbit_codes`` outside ``symm``, and ``len(enumerate_sn(...))``.

    The first is a set of (function, module, top-level definition) triples,
    the second of (module, top-level definition) pairs.
    """
    def callee(call):
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    calls, counted = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "symm":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                if callee(node) in ("enumerate_sn", "orbit_codes"):
                    calls.add((callee(node), path.stem, owner))
                if callee(node) == "len" and any(
                    isinstance(arg, ast.Call) and callee(arg) == "enumerate_sn" for arg in node.args
                ):
                    counted.add((path.stem, owner))
    return calls, counted


def test_relabeling_basis_has_one_home():
    calls, counted = relabeling_calls()
    enumerating = {(module, owner) for name, module, owner in calls if name == "enumerate_sn"}
    orbits = {(module, owner) for name, module, owner in calls if name == "orbit_codes"}
    assert {module for module, _ in enumerating} <= {"protocol"}, enumerating
    assert {pair for pair in orbits if pair[0] != "protocol"} <= {("cli", "estimate")}, orbits
    assert not counted, f"n! is math.factorial(n), not len(enumerate_sn(n)): {counted}"


def test_package_binds_only_the_version():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert ast.get_docstring(tree) is not None
    body = tree.body[1:]
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(tree)), (
        "import each name from its module, not from the package"
    )
    assert len(body) == 1 and isinstance(body[0], ast.Assign), [ast.dump(node) for node in body]
    assert [ast.unparse(target) for target in body[0].targets] == ["__version__"]
