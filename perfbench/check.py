"""Independent checks of zkamp JSON reports.

Nothing here imports zkamp.  Every target is recomputed from the command
line that produced the report and from the closed forms of the source paper,
so a report that the CLI marks as passing is still refused when a value is
off, a record is missing, or a claim the CLI does not gate (the global minus
sign of the measure-then-reflect variant, the analytic feasibility boundary)
is wrong.
"""

from __future__ import annotations

import math
from collections import Counter

OP_TOL = 1e-10
ROTATION_TOL = 1e-12
EXACT_TOL = 1e-12  # unit modulus of phases; the analytic boundary value
ORDER_GAP = 1e-6
BOUNDARY_TOL = 1e-9  # slack on the ceiling in the step-count formula, for lambda = 1/4

RESIDUAL_CLAIMS = {
    "half-success-block": OP_TOL,
    "one-step-amplification": OP_TOL,
    "idempotence-identity-1": OP_TOL,
    "idempotence-identity-2": OP_TOL,
    "idempotence-identity-3": OP_TOL,
    "subspace-closure": OP_TOL,
    "full-vs-two-dim-agreement": OP_TOL,
    "view-equality": OP_TOL,
    "grover-rotation-form": ROTATION_TOL,
}

_FLAGS = {"--keep-z"}


def parse_argv(argv: list[str]) -> tuple[str, dict[str, str]]:
    """Command name and its ``--flag value`` options (switches map to "1")."""
    command, rest = argv[0], argv[1:]
    opts: dict[str, str] = {}
    i = 0
    while i < len(rest):
        key = rest[i]
        if key in _FLAGS:
            opts[key[2:]] = "1"
            i += 1
        else:
            opts[key[2:]] = rest[i + 1]
            i += 2
    return command, opts


def as_complex(value) -> complex:
    if isinstance(value, dict):
        return complex(value["re"], value["im"])
    return complex(value)


def parse_edges(text: str, n: int) -> frozenset[tuple[int, int]]:
    """Edge set of ``01,12`` or ``n=3;edges=01,12`` on ``n`` vertices."""
    if ";" in text:
        n_part, edge_part = text.split(";")
        if int(n_part.split("=")[1]) != n:
            raise ValueError(f"graph {text!r} is not on {n} vertices")
        text = edge_part.split("=")[1]
    edges = set()
    for token in filter(None, (t.strip() for t in text.split(","))):
        u, v = int(token[0]), int(token[1])
        edges.add((min(u, v), max(u, v)))
    return frozenset(edges)


def relabel(mapping: list[int], edges: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Image of an edge set when vertex i is renamed ``mapping[i]``."""
    out = set()
    for u, v in edges:
        a, b = mapping[u], mapping[v]
        out.add((min(a, b), max(a, b)))
    return frozenset(out)


def expected_k(lam: float) -> int:
    """Fewest steps of exact amplification: ceil(pi / (4 arcsin sqrt(lam)) - 1/2)."""
    x = math.pi / (4.0 * math.asin(math.sqrt(lam))) - 0.5
    return max(1, math.ceil(x - BOUNDARY_TOL))


def step_matrix(lam: float, phi: complex, varphi: complex) -> list[list[complex]]:
    """One step in the (succ, fail) basis: (I + (phi-1)|psi><psi|) diag(varphi, 1).

    ``|psi> = (sqrt(lam), sqrt(1-lam))`` is the attempt output; the success
    phase acts first, the start phase conjugated by the attempt second.
    """
    psi = (math.sqrt(lam), math.sqrt(1.0 - lam))
    reflect = [[(i == j) + (phi - 1) * psi[i] * psi[j] for j in range(2)] for i in range(2)]
    return [[reflect[i][0] * varphi, reflect[i][1]] for i in range(2)]


def fail_amplitude(lam: float, k: int, phi: complex, varphi: complex) -> float:
    """|fail| after k-1 plain Grover steps and one step at the given phases."""
    state = [complex(math.sqrt(lam)), complex(math.sqrt(1.0 - lam))]
    steps = [step_matrix(lam, -1.0, -1.0)] * (k - 1) + [step_matrix(lam, phi, varphi)]
    for mat in steps:
        state = [mat[i][0] * state[0] + mat[i][1] * state[1] for i in range(2)]
    return abs(state[1])


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def expected_claims(command: str, opts: dict[str, str]) -> Counter:
    trials = int(opts.get("trials", "1"))
    if command == "verify-eq1":
        return Counter({"half-success-block": 1 + trials})
    if command == "verify-eq2":
        return Counter(
            {
                "one-step-amplification": trials,
                "post-step-success-probability": trials,
                "operator-order-disambiguation": trials,
            }
        )
    if command == "zk-check":
        return Counter({"view-equality": trials})
    if command == "watrous":
        return Counter({"first-measurement-probability": trials, "reflected-state-fidelity": trials})
    if command == "blocks":
        per_trial = Counter(
            {
                "scalar-top-block": 1,
                "idempotence-identity-1": 1,
                "idempotence-identity-2": 1,
                "idempotence-identity-3": 1,
                "subspace-closure": 2,
                "grover-rotation-form": 1,
            }
        )
        return Counter({claim: count * trials for claim, count in per_trial.items()})
    if command == "phases":
        lambdas = opts["lambdas"].split(",")
        return Counter(
            {"exact-amplification-phases": len(lambdas), "single-step-feasibility-boundary": 1}
        )
    if command == "schedule":
        out = Counter(
            {
                "first-measurement-probability": 1,
                "full-vs-two-dim-agreement": 1,
                "every-entry-at-least-lambda": 1,
            }
        )
        if int(opts.get("steps", "4")) > 1:
            out["second-measurement-probability"] = 1
        return out
    raise ValueError(f"no checks known for command {command!r}")


class ReportChecker:
    """Checks one report against the command line that produced it."""

    def __init__(self, argv: list[str]):
        self.command, self.opts = parse_argv(argv)
        m = self.opts.get("m")
        self.m = int(m) if m is not None else None
        if "n" in self.opts and "g0" in self.opts:
            self.n = int(self.opts["n"])
            self.graphs = tuple(parse_edges(self.opts[g], self.n) for g in ("g0", "g1"))
        lambdas = self.opts.get("lambdas")
        self.lambdas = [float(x) for x in lambdas.split(",")] if lambdas else []

    def check(self, exit_code: int, report: dict) -> tuple[int, list[str]]:
        """Number of records that passed every check, and each problem found."""
        problems: list[str] = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}, expected 0")
        if report.get("command") != self.command:
            problems.append(f"report is for {report.get('command')!r}, not {self.command!r}")
        if report.get("pass") is not True:
            problems.append("report-level pass is not true")
        records = report.get("records", [])
        got = Counter(rec.get("claim") for rec in records)
        want = expected_claims(self.command, self.opts)
        if got != want:
            problems.append(f"claims {dict(got)} differ from expected {dict(want)}")
        # Phase records come in the order of the --lambdas list.
        lambdas = iter(self.lambdas)
        passed = 0
        for rec in records:
            lam = next(lambdas, None) if rec.get("claim") == "exact-amplification-phases" else None
            found = self._check_record(rec, lam)
            if found:
                problems.extend(f"{rec.get('name')}: {p}" for p in found)
            else:
                passed += 1
        return passed, problems

    def _check_record(self, rec: dict, lam: float | None) -> list[str]:
        claim = rec.get("claim")
        value = rec.get("value")
        out: list[str] = []
        if rec.get("pass") is not True:
            out.append("pass is not true")
        if claim in RESIDUAL_CLAIMS:
            if not (_is_number(value) and 0.0 <= value <= RESIDUAL_CLAIMS[claim]):
                out.append(f"residual {value!r} above {RESIDUAL_CLAIMS[claim]:g}")
            if claim == "view-equality":
                out.extend(self._check_transcript(rec.get("transcript") or {}))
        elif claim == "post-step-success-probability":
            out.extend(_near(value, 1.0, OP_TOL))
        elif claim == "operator-order-disambiguation":
            if not (_is_number(value) and value > ORDER_GAP):
                out.append(f"swapped order residual {value!r} is not above {ORDER_GAP:g}")
        elif claim == "first-measurement-probability":
            target = 1.0 / self.m if self.command == "schedule" else 0.5
            out.extend(_near(value, target, OP_TOL))
        elif claim == "reflected-state-fidelity":
            out.extend(_near(value, 1.0, OP_TOL))
            phase = as_complex(rec.get("relative_phase", float("nan")))
            if not abs(phase + 1.0) <= OP_TOL:
                out.append(f"relative phase {phase} is not -1")
        elif claim == "scalar-top-block":
            target = 1.0 / self.m if self.m is not None else 0.5
            out.extend(_near(value, target, OP_TOL))
        elif claim == "exact-amplification-phases":
            out.extend(self._check_phases(rec, lam))
        elif claim == "single-step-feasibility-boundary":
            out.extend(_near(value, 0.25, EXACT_TOL))
        elif claim == "second-measurement-probability":
            lam_m = 1.0 / self.m
            out.extend(_near(value, 4.0 * lam_m * (1.0 - lam_m), OP_TOL))
        elif claim == "every-entry-at-least-lambda":
            lam_m = 1.0 / self.m
            schedule = rec.get("schedule") or []
            if not schedule or not all(_is_number(p) and p >= lam_m - OP_TOL for p in schedule):
                out.append(f"schedule {schedule!r} has an entry below {lam_m:g}")
            elif value != min(schedule):
                out.append(f"value {value!r} is not the schedule minimum")
        else:
            out.append(f"unknown claim {claim!r}")
        return out

    def _check_transcript(self, tr: dict) -> list[str]:
        out = []
        if tr.get("guess") != tr.get("challenge"):
            out.append(f"guess {tr.get('guess')} differs from challenge {tr.get('challenge')}")
        if tr.get("accepted") is not True:
            out.append("transcript not accepted")
        challenge = tr.get("challenge")
        if challenge not in (0, 1):
            return out + [f"challenge {challenge!r} is not a bit"]
        try:
            derived = relabel(tr["relabeling"], self.graphs[challenge])
            sent = parse_edges(tr["sent"], self.n)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return out + [f"transcript unreadable: {exc!r}"]
        if derived != sent:
            out.append(f"relabeled challenge graph {sorted(derived)} differs from sent {sorted(sent)}")
        return out

    def _check_phases(self, rec: dict, lam: float | None) -> list[str]:
        if lam is None:
            return ["no lambda on the command line for this record"]
        out = []
        k = rec.get("k")
        want = expected_k(lam)
        if k != want:
            out.append(f"k = {k!r}, closed form gives {want}")
        if rec.get("single_step_feasible") is not (want == 1):
            out.append(f"single_step_feasible is {rec.get('single_step_feasible')!r}, lambda = {lam:g}")
        if not (_is_number(rec.get("value")) and rec["value"] <= OP_TOL):
            out.append(f"reported failure amplitude {rec.get('value')!r} above {OP_TOL:g}")
        try:
            phi, varphi = as_complex(rec["phi"]), as_complex(rec["varphi"])
        except (KeyError, TypeError, ValueError):
            return out + ["phases missing"]
        if abs(abs(phi) - 1.0) > EXACT_TOL or abs(abs(varphi) - 1.0) > EXACT_TOL:
            out.append(f"phases {phi}, {varphi} are not unit modulus")
        if isinstance(k, int) and k >= 1:
            amp = fail_amplitude(lam, k, phi, varphi)
            if not amp <= OP_TOL:
                out.append(f"closed-form step leaves failure amplitude {amp:.3e}")
        return out


def _near(value, target: float, tol: float) -> list[str]:
    if _is_number(value) and abs(value - target) <= tol:
        return []
    return [f"value {value!r} is not within {tol:g} of {target:g}"]


def check_refusal(exit_code: int | None, stderr: str, error: BaseException | None) -> list[str]:
    """An oversize request must be refused with exit code 2 and a message."""
    if error is not None:
        return [f"raised {type(error).__name__}: {error}"]
    out = []
    if exit_code != 2:
        out.append(f"exit code {exit_code}, expected 2")
    if not stderr.strip():
        out.append("no message on stderr")
    return out
