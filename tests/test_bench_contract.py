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
import tracemalloc
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


# The seeds on which a change that moves report values is compared.
SEEDS = (7, 11, 12345)


def _case_id(case) -> str:
    """The operation's argv, with ``--seed`` spelled out for every seed but the first."""
    op, seed = case
    name = " ".join(op.argv)
    return name if seed == SEEDS[0] else f"{name} --seed {seed}"


@pytest.mark.parametrize(
    "case", [(op, seed) for op in OPERATIONS for seed in SEEDS], ids=_case_id
)
def test_operation_passes_the_checker(case):
    op, seed = case
    argv = list(op.argv) + ["--seed", str(seed)]
    code, out, err = _run(argv)
    if op.oversize:
        assert check.check_refusal(code, err, None) == []
        return
    report = json.loads(out)
    passed, problems = check.ReportChecker(argv).check(code, report)
    assert problems == []
    assert passed == len(report["records"]) > 0


def test_flag_refusal_is_one_failed_operation(capsys):
    # argparse's refusal comes back from cli.run as exit code 2, so the
    # benchmark counts the operation as failed and carries on.
    result = bench.run_op(bench.Op(("phases", "--m", "3")), 1)
    assert (result.wall_s, result.cpu_s, result.records_checked) == (None, None, 0)
    assert "exit=2" in capsys.readouterr().err


def test_refusal_is_checked():
    assert ("blocks", "--m", "70") in [op.argv for op in OPERATIONS if op.oversize]


@pytest.mark.parametrize(
    "name", sorted(name for name in vars(checker_tests) if name.startswith("test_"))
)
def test_checker_self_test(name):
    getattr(checker_tests, name)()


@pytest.mark.parametrize(
    "op", [op for op in OPERATIONS if not op.oversize], ids=lambda op: " ".join(op.argv)
)
def test_byte_estimate_bounds_the_traced_peak(op):
    # The estimate that preflight holds to the byte budget must cover what
    # the command really allocates, at the benchmark's own sizes.
    argv = [*op.argv, "--seed", "7"]
    cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
    estimated, _, _ = cli.estimate(cfg, cfg.n)
    tracemalloc.start()
    try:
        code, _, _ = _run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= estimated


@pytest.mark.parametrize("workload", sorted(w for w in bench.WORKLOADS if w.startswith("zk-")))
def test_negative_control_stays_above_its_floor(workload):
    # The untimed control calls adversarial_verifier(dims, n, seed) without
    # codes, so the verifier is drawn on every Y code, a superset of the orbit.
    distance = bench.negative_control(bench.WORKLOADS[workload][0].argv, 7)
    assert distance >= bench.NEGATIVE_CONTROL_FLOOR
