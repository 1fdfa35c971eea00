"""Benchmark of zkamp's certification runs through its public CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; zkamp is imported from ``src``.  One
process runs whole rounds of the workload's CLI invocations (each one
operation) until ``--seconds`` have passed, checks every report with
``check.py``, and prints one JSON line: ``correct``, ``attempted``,
``failed`` and the metrics declared in ``BENCHMARK.json`` (end-to-end ones
with ``--trace 0``, per-layer ones with ``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # per probe batch; one batch before the rounds, one after
NEGATIVE_CONTROL_FLOOR = 1e-3

N4 = ["--n", "4", "--g0", "01,12,23", "--g1", "03,12,20"]
N3 = ["--n", "3", "--g0", "01,12", "--g1", "01,02"]
# Reaches down to 1e-3 (k = 25) and holds the analytic boundary 1/4 with a
# value on each side of it, so the single-step boundary is pinned.
LAMBDAS = "0.001,0.01,0.03,0.1,0.2,0.25,0.5,0.9"


@dataclass(frozen=True)
class Op:
    """One CLI invocation; a derived ``--seed`` is appended at each call."""

    argv: tuple[str, ...]
    oversize: bool = False  # must be refused with exit code 2


IDENTITY_OPS = (
    Op(("verify-eq1", *N4, "--trials", "1")),
    Op(("verify-eq2", *N4, "--trials", "1")),
    Op(("watrous", *N4, "--trials", "1")),
    Op(("blocks", *N3, "--trials", "1")),
    Op(("blocks", "--m", "8", "--trials", "1")),
    Op(("phases", "--lambdas", LAMBDAS, "--k-max", "64")),
    Op(("schedule", "--m", "8")),
)
# The oversize request costs about ten passes of the others before it fails.
# Eight passes per round keep near half of the run on the others, and make one
# round outlast a 20 s run, so a run stays near 40 s.
IDENTITY_PASSES = 8

WORKLOADS: dict[str, tuple[Op, ...]] = {
    "zk-n4-keepz": (Op(("zk-check", *N4, "--keep-z", "--trials", "1")),),
    "zk-n3-wide": (Op(("zk-check", *N3, "--dim-w", "8", "--dim-v", "8", "--trials", "1")),),
    "identities": IDENTITY_OPS * IDENTITY_PASSES + (Op(("blocks", "--m", "70"), oversize=True),),
}

# A fresh interpreter imports zkamp and builds the workload's Instance.
SETUP_PROBE = (
    "import sys; from zkamp import cli; "
    "cli.build_instance(cli.config_from_args(cli.build_parser().parse_args(sys.argv[1:])))"
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--blas-threads",
        type=int,
        default=None,
        help="BLAS thread count (default: 1)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units this mode must print, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def setup_times(argv: tuple[str, ...]) -> list[float]:
    """Wall times of fresh interpreters importing zkamp and building the Instance."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, *argv],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def derived_seeds(seed: int, tag: int, count: int = 1) -> list[int]:
    import numpy as np  # not at module level: the BLAS thread count is set first

    return [int(x) for x in np.random.SeedSequence([seed, tag]).generate_state(count)]


def negative_control(argv: tuple[str, ...], seed: int) -> float:
    """Distance between a simulated and a real view built from different aux inputs."""
    from zkamp import cli, protocol, simulator

    cfg = cli.config_from_args(cli.build_parser().parse_args(list(argv) + ["--seed", "0"]))
    inst = cli.build_instance(cfg)
    keep_z = cfg.extras["keep_z"]
    ver_seed, sim_aux_seed, real_aux_seed = derived_seeds(seed, 0, 3)
    ver = protocol.adversarial_verifier(cfg.dims, inst.n, ver_seed)
    circ = simulator.build_circuit(inst, ver, cfg.completion)
    sim = simulator.simulate_round_recorded(
        circ, protocol.random_aux(cfg.dims[0], sim_aux_seed), keep_z=keep_z
    )
    real = protocol.real_view_recorded(
        inst, ver, protocol.random_aux(cfg.dims[0], real_aux_seed), keep_z=keep_z
    )
    return sim.trace_distance(real)


@dataclass
class OpResult:
    wall_s: float | None  # None when the operation failed: it is counted, not timed
    cpu_s: float | None
    records_checked: int = 0
    problems: tuple[str, ...] = ()


def run_op(op: Op, seed: int, tracer=None) -> OpResult:
    """One CLI invocation, timed and checked; a failed one leaves no spans behind."""
    from check import ReportChecker, check_refusal
    from zkamp import cli

    argv = list(op.argv) + ["--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    exit_code, error = None, None
    before = tracer.snapshot() if tracer is not None else None
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            exit_code = cli.run(argv)
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        error = exc
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    label = " ".join(argv)
    if op.oversize:
        failure = "; ".join(check_refusal(exit_code, err.getvalue(), error))
    elif error is not None or exit_code == 2:
        failure = f"{error!r} exit={exit_code} {err.getvalue().strip()}"
    else:
        failure = ""
    if failure:
        if tracer is not None:
            tracer.restore(before)
        print(f"failed: {label}: {failure}", file=sys.stderr)
        return OpResult(None, None)
    if op.oversize:
        return OpResult(wall, cpu)
    try:
        report = json.loads(out.getvalue())
    except ValueError as exc:
        return OpResult(wall, cpu, 0, (f"{label}: report is not JSON: {exc}",))
    passed, problems = ReportChecker(argv).check(exit_code, report)
    return OpResult(wall, cpu, passed, tuple(f"{label}: {p}" for p in problems))


def op_best_sum(ops: tuple[Op, ...], rounds: list[list[OpResult]], field: str) -> float:
    """Sum over the workload's distinct operations of each one's fastest time in the run.

    The host's speed drifts by up to 1.6x over tens of seconds, for reasons
    outside the process, and a slow spell can fill most of a run; a median
    then measures the host.  Noise of that kind only ever adds time, so each
    operation's minimum is the steadiest estimate of its own cost, and a
    slower program raises it as it raises every sample.
    """
    samples: dict[Op, list[float]] = {op: [] for op in ops}
    for results in rounds:
        for op, res in zip(ops, results):
            if getattr(res, field) is not None:
                samples[op].append(getattr(res, field))
    return sum(min(v) for v in samples.values() if v)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: on a shared 2-vCPU host a second thread saves little
    # wall time, and each BLAS call then waits for the slower vCPU.  The
    # fastest n=4 zk-check in two 30 s windows moved by 20% with two threads
    # and by under 1% with one.
    threads = args.blas_threads or 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    os.environ.pop("ZKAMP_SEED", None)  # inputs come from --seed alone
    if not (SRC / "zkamp" / "__init__.py").is_file():
        print(f"zkamp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import zkamp  # noqa: F401  (first import compiles the package outside the probes)

    ops = WORKLOADS[args.workload]
    units = declared_metrics(bool(args.trace))
    correct = True
    # Set-up is probed before and after the rounds, so that one slow moment
    # of the machine does not set the run's median.
    setup = [] if args.trace else setup_times(ops[0].argv)

    if args.workload.startswith("zk-"):
        distance = negative_control(ops[0].argv, args.seed)
        if distance < NEGATIVE_CONTROL_FLOOR:
            correct = False
            print(f"negative control: distance {distance:.3e} below {NEGATIVE_CONTROL_FLOOR:g}", file=sys.stderr)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    passes = max(Counter(ops).values())
    rounds: list[list[OpResult]] = []
    layers: list[dict[str, float]] = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < args.seconds:
        seeds = derived_seeds(args.seed, len(rounds) + 1, len(ops))
        if tracer is not None:
            tracer.reset()
        results = [run_op(op, seed, tracer) for op, seed in zip(ops, seeds)]
        rounds.append(results)
        for res in results:
            if res.problems:
                correct = False
                print("\n".join(res.problems), file=sys.stderr)
        if tracer is not None:
            layers.append(spans.layer_metrics(tracer, passes))
    elapsed = time.perf_counter() - started
    if not args.trace:
        setup += setup_times(ops[0].argv)

    if tracer is not None:
        values = {name: statistics.median(f[name] for f in layers) for name in layers[0]}
        values["trace.wall_s"] = op_best_sum(ops, rounds, "wall_s")
        values["trace.coverage"] = tracer.top_s / elapsed
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": op_best_sum(ops, rounds, "wall_s"),
            "cpu_s": op_best_sum(ops, rounds, "cpu_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "records_checked": min(sum(res.records_checked for res in r) for r in rounds) / passes,
        }
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    attempted = len(ops) * len(rounds)
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": sum(res.wall_s is None for r in rounds for res in r),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
