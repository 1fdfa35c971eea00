"""The benchmark's report contract, run in the test suite.

``perfbench/run.py`` defines the benchmark's operations and
``perfbench/check.py`` re-derives every report without importing zkamp.
Both are loaded by path, so a record or flag change that the benchmark
would refuse fails here first.
"""

import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from zkamp import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, path: str):
    """Import ``perfbench/<path>`` as module ``name``, leaving ``sys.path`` as it was."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


check = _load("check", "check.py")  # the name test_check imports it by
bench = _load("perfbench_run", "run.py")
checker_tests = _load("perfbench_test_check", "test_check.py")

OPERATIONS = sorted(
    {op for ops in bench.WORKLOADS.values() for op in ops}, key=lambda op: op.argv
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("op", OPERATIONS, ids=lambda op: " ".join(op.argv))
def test_operation_passes_the_checker(op, monkeypatch):
    monkeypatch.delenv("ZKAMP_SEED", raising=False)  # as the benchmark does
    argv = list(op.argv) + ["--seed", "7"]
    code, out, err = _run(argv)
    if op.oversize:
        assert check.check_refusal(code, err, None) == []
        return
    report = json.loads(out)
    passed, problems = check.ReportChecker(argv).check(code, report)
    assert problems == []
    assert passed == len(report["records"]) > 0


def test_refusal_is_checked():
    assert ("blocks", "--m", "70") in [op.argv for op in OPERATIONS if op.oversize]


@pytest.mark.parametrize(
    "name", sorted(name for name in vars(checker_tests) if name.startswith("test_"))
)
def test_checker_self_test(name):
    getattr(checker_tests, name)()
