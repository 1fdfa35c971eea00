"""Self-test of the report checker: real reports pass, corrupted ones are flagged.

    python3 perfbench/test_check.py          # or: python3 -m pytest perfbench/test_check.py

Base reports come from small, fast zkamp runs; each corruption changes one
field the way a broken implementation would, and the checker must name it.
"""

from __future__ import annotations

import cmath
import copy
import io
import itertools
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from check import (  # noqa: E402
    ReportChecker,
    check_refusal,
    expected_k,
    fail_amplitude,
    parse_edges,
    relabel,
)

GRAPHS = ("01,12", "01,02")
N3 = ["--n", "3", "--g0", GRAPHS[0], "--g1", GRAPHS[1]]
BASE_RUNS = {
    "zk": ["zk-check", *N3, "--trials", "2", "--seed", "3"],
    "eq1": ["verify-eq1", *N3, "--seed", "3"],
    "eq2": ["verify-eq2", *N3, "--seed", "3"],
    "watrous": ["watrous", *N3, "--trials", "2", "--seed", "3"],
    "blocks": ["blocks", "--m", "4", "--seed", "3"],
    "phases": ["phases", "--lambdas", "0.1,0.2,0.25,0.5", "--k-max", "16", "--seed", "3"],
    "schedule": ["schedule", "--m", "4", "--seed", "3"],
}
_reports: dict[str, dict] = {}


def base_report(key: str) -> dict:
    if key not in _reports:
        from zkamp import cli

        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.run(BASE_RUNS[key])
        assert code == 0, f"{BASE_RUNS[key]} exited {code}"
        _reports[key] = json.loads(out.getvalue())
    return copy.deepcopy(_reports[key])


def records(report: dict, claim: str) -> list[dict]:
    return [r for r in report["records"] if r["claim"] == claim]


def first(report: dict, claim: str) -> dict:
    return records(report, claim)[0]


def _set(claim, field, value):
    def mutate(rep):
        first(rep, claim)[field] = value

    return mutate


def _transcript(field, value):
    def mutate(rep):
        first(rep, "view-equality")["transcript"][field] = value

    return mutate


def _drop(claim):
    def mutate(rep):
        rep["records"].remove(first(rep, claim))

    return mutate


def _bump_k(rep):
    """A valid solution at one step more than needed: only the k formula catches it."""
    from zkamp import amplify

    rec = first(rep, "exact-amplification-phases")
    lam = float(BASE_RUNS["phases"][2].split(",")[0])
    rec["k"] += 1
    pair = amplify.solve_phases(lam, rec["k"])
    rec["phi"] = {"re": pair.phi.real, "im": pair.phi.imag}
    rec["varphi"] = {"re": pair.varphi.real, "im": pair.varphi.imag}
    rec["value"] = amplify.final_fail_amplitude(lam, rec["k"], pair)


def _tilt_phi(rep):
    rec = first(rep, "exact-amplification-phases")
    phi = complex(rec["phi"]["re"], rec["phi"]["im"]) * cmath.exp(0.01j)
    rec["phi"] = {"re": phi.real, "im": phi.imag}


def _other_relabeling(rep):
    tr = first(rep, "view-equality")["transcript"]
    challenged = parse_edges(GRAPHS[tr["challenge"]], 3)
    sent = parse_edges(tr["sent"], 3)
    tr["relabeling"] = next(
        list(p) for p in itertools.permutations(range(3)) if relabel(list(p), challenged) != sent
    )


def _other_sent(rep):
    tr = first(rep, "view-equality")["transcript"]
    tr["sent"] = "n=3;edges=01,02" if tr["sent"] != "n=3;edges=01,02" else "n=3;edges=01,12"


def _low_entry(rep):
    first(rep, "every-entry-at-least-lambda")["schedule"][1] = 0.1


CORRUPTIONS = {
    "view distance 0.5": ("zk", _set("view-equality", "value", 0.5)),
    "view distance NaN": ("zk", _set("view-equality", "value", float("nan"))),
    "guess differs from challenge": ("zk", _transcript("guess", 2)),
    "transcript rejected": ("zk", _transcript("accepted", False)),
    "sent graph not the relabeled challenge": ("zk", _other_sent),
    "relabeling altered": ("zk", _other_relabeling),
    "record missing": ("zk", _drop("view-equality")),
    "report-level pass false": ("zk", lambda rep: rep.update({"pass": False})),
    "record pass false": ("eq1", _set("half-success-block", "pass", False)),
    "half block residual 1e-3": ("eq1", _set("half-success-block", "value", 1e-3)),
    "post-step probability 0.9": ("eq2", _set("post-step-success-probability", "value", 0.9)),
    "operator orders agree": ("eq2", _set("operator-order-disambiguation", "value", 0.0)),
    "relative phase flipped": ("watrous", _set("reflected-state-fidelity", "relative_phase", {"re": 1.0, "im": 0.0})),
    "first measurement 0.49": ("watrous", _set("first-measurement-probability", "value", 0.49)),
    "fidelity 0.99": ("watrous", _set("reflected-state-fidelity", "value", 0.99)),
    "toy top block 1/2": ("blocks", _set("scalar-top-block", "value", 0.5)),
    "idempotence residual 1e-3": ("blocks", _set("idempotence-identity-2", "value", 1e-3)),
    "rotation deviation 1e-11": ("blocks", _set("grover-rotation-form", "value", 1e-11)),
    "wrong k": ("phases", _bump_k),
    "phase off the solution": ("phases", _tilt_phi),
    "single-step flag flipped": ("phases", _set("exact-amplification-phases", "single_step_feasible", True)),
    "boundary at grid value 0.5": ("phases", _set("single-step-feasibility-boundary", "value", 0.5)),
    "boundary missing": ("phases", _set("single-step-feasibility-boundary", "value", None)),
    "second probability 2/m": ("schedule", _set("second-measurement-probability", "value", 0.5)),
    "schedule entry below lambda": ("schedule", _low_entry),
    "first measurement not 1/m": ("schedule", _set("first-measurement-probability", "value", 0.5)),
    "unknown claim": ("schedule", _set("full-vs-two-dim-agreement", "claim", "made-up")),
}


def test_real_reports_pass():
    for key, argv in BASE_RUNS.items():
        report = base_report(key)
        passed, problems = ReportChecker(argv).check(0, report)
        assert problems == [], (key, problems)
        assert passed == len(report["records"]), key


def test_every_corruption_is_flagged():
    missed = []
    for label, (key, mutate) in CORRUPTIONS.items():
        report = base_report(key)
        mutate(report)
        _, problems = ReportChecker(BASE_RUNS[key]).check(0, report)
        if not problems:
            missed.append(label)
    assert missed == [], f"checker accepted corrupted reports: {missed}"


def test_failing_exit_code_is_flagged():
    _, problems = ReportChecker(BASE_RUNS["zk"]).check(1, base_report("zk"))
    assert problems


def test_refusal():
    assert check_refusal(2, "configuration error: too large\n", None) == []
    assert check_refusal(None, "", MemoryError("refusing to materialize"))
    assert check_refusal(1, "Traceback ...", None)
    assert check_refusal(2, "", None)


def test_closed_forms():
    assert [expected_k(lam) for lam in (0.001, 0.01, 0.1, 0.2, 0.25, 0.5, 0.9)] == [25, 8, 2, 2, 1, 1, 1]
    assert fail_amplitude(0.5, 1, 1j, 1j) < 1e-15  # the paper's phase-i step at lambda = 1/2
    assert fail_amplitude(0.25, 1, -1.0, -1.0) < 1e-15  # one Grover step at the boundary
    assert fail_amplitude(0.2, 1, -1.0, -1.0) > 1e-3


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
        print(f"ok {fn.__name__}")
    print(f"{len(tests)} checker self-tests passed, {len(CORRUPTIONS)} corruptions flagged")
