"""Experiment runner: build instances, run the verification suites, emit JSON.

Every command produces one report document with a fixed key order and floats
printed at 17 significant digits, so identical configurations diff to
nothing except the timings block.  Exit code 0 means every record passed,
1 means some check failed, 2 means the configuration was invalid.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import __version__, amplify, protocol, simulator
from .amplify import PhasePair
from .protocol import Instance
from .registers import ATOL_NORM, ATOL_OP, BYTE_BUDGET, GRAM_ROWS, WORK_BUDGET, dense_bytes
from .simulator import COMPLETIONS
from .symm import MAX_VERTICES, format_graph_literal, orbit_codes, parse_graph_literal

ORDER_GAP = 1e-6
# One exact step reaches certainty iff lambda >= 1/4.  Just below it the
# solver clips its phase to -1, leaving a failure amplitude of about
# 3.5 (1/4 - lambda); the 1e-10 certificate therefore still accepts lambda up
# to about 3e-11 below, well inside this slack.  ``run_phases`` applies the
# same slack, relative, at every k's boundary.
SINGLE_STEP_BOUNDARY = 0.25
BOUNDARY_SLACK = 1e-9
# The full-space schedule renormalises its failure branch before each
# reflection, a power iteration: rounding outside the (succ, fail) plane grows
# by 1/|1 - 2/m| per step (3x at m = 3).  At m = 3 the 1e-10 agreement with
# the 2D schedule first breaks at 23 to 25 steps, depending on the dims.
MAX_SCHEDULE_STEPS = 16
# A command holds at most 16 states per column of W and 4 MiB of interpreter objects (1.2 MiB on
# a first command, with numpy's lazy imports); each step count the phase search tries (one plain 2x2
# step, the closing phases and their certificate) takes as long as 1e5 dense multiply-adds (2e-5 s;
# 5e9/s on one BLAS thread).  ``blocks`` holds 2 d x r blocks of kept attempt rows while it applies
# the attempt: one factor's input and its product.  The first factor acts on its side's distinct
# basis vectors only, and its images are placed in the first block (traced 2.01 blocks at n = 3
# and 2.02 at m = 30); a small block's moved copy fits in the stored factor's block, which is not
# yet allocated then.  An adversarial verifier holds its d x s reflectors, its draw about one more
# for a moment (traced 2.02 at n = 5).  ``zk-check`` holds no such state: its start block's Gram
# step holds one challenge half of a chunk of ``GRAM_ROWS`` reflector rows, its conjugate and at
# most 8 s x s arrays (traced 0.15, 0.29 and 1.08 d x s arrays at n = 5, dims 2x2 and 4x1, and
# n = 3, 8x8).  The writer holds its 2 n! codes alone, and forms its gather index only while it
# acts, which ``zk-check`` never makes it do.
STATE_COPIES, BASE_BYTES, STEP_WORK, KEPT_COPIES, DRAW_COPIES = 16, 2**22, 10**5, 2, 3


class ConfigError(Exception):
    """Invalid command configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one run, echoed verbatim into the report in field order."""

    command: str
    n: int | None
    m: int | None
    trials: int
    seed: int
    dims: tuple[int, int]
    g0: str | None
    g1: str | None
    completion: str
    out: str | None
    extras: dict

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.m is None and self.command == "schedule":
            raise ConfigError("schedule needs --m")
        if self.m is not None and self.m < 2:
            raise ConfigError(f"--m must be >= 2, got {self.m}")
        if min(self.dims) < 1:
            raise ConfigError(f"dims must be >= 1, got {self.dims}")
        if self.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {self.seed}")
        if self.out is not None:
            _check_writable(self.out)

    def as_dict(self) -> dict:
        """Every field but ``extras``, then the extras."""
        return {**{name: getattr(self, name) for name in _FIELDS}, **self.extras}


# RunConfig's options, in report order.
_FIELDS = tuple(f.name for f in fields(RunConfig) if f.name != "extras")


def _check_writable(path: str) -> None:
    """Refuse a report path that cannot be written, before any work is done."""
    parent = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else parent
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(target, os.W_OK):
        raise ConfigError(f"--out {path!r} is not a writable file path")


def trial_seeds(seed: int, trial: int) -> list[int]:
    """Three well-separated child seeds for one trial, deterministic in (seed, trial)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return [int(x) for x in ss.generate_state(3)]


def record(claim: str, label: str | None, value, tolerance, passed: bool, **extras) -> dict:
    """One certificate record, named ``claim[label]``, or ``claim`` alone when ``label`` is None."""
    rec = {
        "name": claim if label is None else f"{claim}[{label}]",
        "claim": claim,
        "value": value,
        "tolerance": tolerance,
        "pass": bool(passed),
    }
    rec.update(extras)
    return rec


def residual_record(claim: str, label: str | None, value, tolerance=ATOL_OP, **extras) -> dict:
    """Passes when ``value <= tolerance``."""
    return record(claim, label, float(value), tolerance, float(value) <= tolerance, **extras)


def near_record(claim: str, label: str | None, value, target, echo="target", **extras) -> dict:
    """Passes when ``|value - target| <= ATOL_OP``; ``target`` is echoed under the key ``echo``."""
    passed = abs(value - target) <= ATOL_OP
    return record(claim, label, value, ATOL_OP, passed, **{echo: target}, **extras)


# ---------------------------------------------------------------------------
# JSON emission with explicit float formatting
# ---------------------------------------------------------------------------

def dump_json(obj) -> str:
    pieces: list[str] = []
    _dump(obj, pieces)
    return "".join(pieces)


def _dump(obj, pieces: list[str]) -> None:
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format(float(obj), ".17g"))
    elif isinstance(obj, (complex, np.complexfloating)):
        _dump({"re": float(obj.real), "im": float(obj.imag)}, pieces)
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                pieces.append(", ")
            pieces.append(json.dumps(str(key)))
            pieces.append(": ")
            _dump(value, pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, value in enumerate(obj):
            if i:
                pieces.append(", ")
            _dump(value, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# Shared construction helpers
# ---------------------------------------------------------------------------

def _parse_graph(text: str, n: int | None):
    try:
        if ";" in text:
            g = parse_graph_literal(text)
            if n is not None and g.n != n:
                raise ConfigError(f"graph literal {text!r} disagrees with --n {n}")
            return g
        if n is None:
            raise ConfigError("--n is required when graphs are given as bare edge lists")
        return parse_graph_literal(f"n={n};edges={text}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _graph_pair(cfg: RunConfig):
    """The parsed pair, refused unless both graphs have one vertex count in 2..MAX_VERTICES.

    Past S_n's range nothing is sized, as the graph register alone has
    2^(n(n-1)/2) states.
    """
    if cfg.g0 is None or cfg.g1 is None:
        raise ConfigError("this command needs --g0 and --g1")
    g0, g1 = _parse_graph(cfg.g0, cfg.n), _parse_graph(cfg.g1, cfg.n)
    for n in sorted({g0.n, g1.n}):
        if not 2 <= n <= MAX_VERTICES:
            raise ConfigError(f"n must be in 2..{MAX_VERTICES} for full verification runs, got {n}")
    if g0.n != g1.n:
        raise ConfigError(f"size mismatch: {g0.n} vs {g1.n}")
    return g0, g1


def build_instance(cfg: RunConfig) -> Instance:
    try:
        return Instance.from_graphs(*_graph_pair(cfg))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def estimate(cfg: RunConfig, n: int | None) -> tuple[int, int, str]:
    """Peak bytes and dense multiply-adds of a command on n-vertex graphs, and what needs them.

    The toy scramble's dense side counts at ``dense_bytes``.  The verifier on a
    side of d counts at ``DRAW_COPIES`` d x s arrays, with s = dim_w times the
    size of g0's orbit, its start columns; an honest verifier counts the same.
    ``blocks`` adds ``KEPT_COPIES`` d x r blocks of kept attempt rows, the
    stored factor, the r x r core C and ``2 P (r + d_c)`` for a Gram column panel and its
    conjugate or three core row panels, P = ``amplify.RESIDUAL_PANEL``, d_c = d - dim_w.  The
    work is ``2 d r^2 + d^2 (r + dim_w)`` per trial of ``blocks``, the whole products of an
    explicit d x d third residual; the core does about ``d_c r^2 / 2 + r^3 / 2`` (the Gram and
    ``C C`` each from one side of its diagonal), so the count is an upper bound of about 5 times
    the work done at n = 3; for ``schedule`` it
    is ``2 steps + 1`` attempt applications, each one split of B (m d) and the
    scramble's reflectors (2 side d); for ``phases`` one search step per
    step count up to ``amplify.analytic_k``; and for ``verify-eq1``,
    ``verify-eq2`` and ``watrous`` dim_w, 6 and 3 attempt applications per
    trial (``verify-eq1``'s block of start columns; ``verify-eq2``'s attempt
    output, its step's two halves, the derivation's undone projection and the
    swapped order's two halves; ``watrous``'s attempt output and its
    reflection's two halves), each the B split (2 d), the Z split (n! d), the
    writer (d) and the verifier's s reflectors (2 s d).  ``zk-check`` holds its
    start block's Gram step in place of states of the simulator's layout, and
    works ``d s^2 + s^3`` per trial: the reflectors' half Grams, then s x s products.
    """
    if cfg.command == "phases":
        lambdas, k_max = cfg.extras["lambdas"], cfg.extras["k_max"]
        ks = [min(k_max, amplify.analytic_k(lam)) for lam in lambdas]
        steps = sum(ks)
        return BASE_BYTES, STEP_WORK * steps, f"{steps} phase-search steps, k up to {max(ks)}"
    if cfg.m is not None:
        layout = amplify.toy_layout(cfg.m, cfg.dims)
        side = layout.keep(["W", "V", "A"]).total_dim
        held = [f"a dense {side}x{side} toy scramble on W,V,A"]
        peak = dense_bytes(side)
    else:
        layout = simulator.sim_layout(cfg.dims, n)
        side = protocol.view_layout(cfg.dims, n).total_dim
        s = cfg.dims[0] * len(set(orbit_codes(_graph_pair(cfg)[0]).tolist()))
        held = [f"a {side}x{side} verifier unitary drawn as {side}x{s} reflectors"]
        peak = 16 * DRAW_COPIES * side * s
    d, work = layout.total_dim, 0
    if cfg.command == "zk-check":
        peak += BASE_BYTES + 16 * (2 * GRAM_ROWS + 8 * s) * s
        return peak, cfg.trials * (side + s) * s * s, f"{held[0]} and its {side}x{s} start block"
    peak += BASE_BYTES + 16 * STATE_COPIES * cfg.dims[0] * d
    if cfg.command == "blocks":
        r, d_c = d // layout.dim_of("A"), d - cfg.dims[0]
        peak += 16 * ((KEPT_COPIES + 1) * d * r + r * r + 2 * amplify.RESIDUAL_PANEL * (r + d_c))
        held.append(f"{d}x{r} kept attempt rows factoring the {d}x{d} conjugated projector")
        # About 5 times the core's work at n = 3; kept so that the budget refuses --m 70 as before.
        work = cfg.trials * (2 * d * r * r + d * d * (r + cfg.dims[0]))
    elif cfg.command == "schedule":
        work = (2 * cfg.extras["steps"] + 1) * (cfg.m + 2 * side) * d
    else:
        applications = {"verify-eq1": cfg.dims[0], "verify-eq2": 6, "watrous": 3}[cfg.command]
        work = cfg.trials * applications * (math.factorial(n) + 3 + 2 * s) * d
    return peak, work, f"{', '.join(held)} and {d}-amplitude states"


def preflight(cfg: RunConfig) -> None:
    """Refuse, from the layouts alone and before anything is built, a command above a budget."""
    n = _graph_pair(cfg)[0].n if cfg.command != "phases" and cfg.m is None else None
    peak, work, what = estimate(cfg, n)
    if peak > BYTE_BUDGET or work > WORK_BUDGET:
        raise ConfigError(
            f"{cfg.command} needs {peak / 2**30:.3g} GiB and {work:.2g} multiply-adds for "
            f"{what}, above the budgets of {BYTE_BUDGET / 2**30:g} GiB and {WORK_BUDGET:.0e}"
        )


def _trials(cfg: RunConfig, inst: Instance, kind: str = "adversarial"):
    """Each trial's index, ``trial_seeds`` and circuit.

    The first seed draws an adversarial verifier on the start columns of the
    instance's orbit codes, the only columns its views and identities read.
    """
    for t in range(cfg.trials):
        seeds = trial_seeds(cfg.seed, t)
        if kind == "honest":
            ver = protocol.honest_verifier(cfg.dims, inst.n)
        else:
            ver = protocol.adversarial_verifier(cfg.dims, inst.n, seeds[0], inst.codes[0])
        yield t, seeds, simulator.build_circuit(inst, ver, cfg.completion)


def _columns(circ) -> dict:
    """``verifier_columns``, the s start columns an adversarial verifier drew, for its records."""
    columns = getattr(circ.ver.u_v, "columns", None) if circ.ver is not None else None
    return {} if columns is None else {"verifier_columns": columns}


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def run_verify_eq1(cfg: RunConfig) -> list[dict]:
    """Check the input-independent half-probability block identity."""
    inst = build_instance(cfg)
    _, _, honest = next(_trials(cfg, inst, "honest"))
    residual = simulator.success_block_residual(honest)
    records = [residual_record("half-success-block", "honest", residual, verifier="honest")]
    for t, seeds, circ in _trials(cfg, inst):
        records.append(
            residual_record(
                "half-success-block",
                f"trial={t}",
                simulator.success_block_residual(circ),
                verifier="adversarial",
                verifier_seed=seeds[0],
                **_columns(circ),
            )
        )
    return records


def run_verify_eq2(cfg: RunConfig) -> list[dict]:
    """Check the single phase-i amplification step identity."""
    inst = build_instance(cfg)
    records = []
    for t, (_, aux_seed, _), circ in _trials(cfg, inst):
        aux = protocol.random_aux(cfg.dims[0], aux_seed)
        check = simulator.amplification_check(circ, aux)
        label = f"trial={t}"
        chain = check.norm_chain
        worst = max(
            check.residual,
            *check.derivation.values(),
            *(abs(a - b) for a, b in zip(chain, chain[1:])),
        )
        cols = _columns(circ)
        records += [
            record(
                "one-step-amplification",
                label,
                check.residual,
                ATOL_OP,
                worst <= ATOL_OP,
                derivation=check.derivation,
                norm_chain=chain,
                **cols,
            ),
            near_record("post-step-success-probability", label, check.success_prob, 1.0, **cols),
            record(
                "operator-order-disambiguation",
                label,
                check.swapped_order_residual,
                None,
                check.swapped_order_residual > ORDER_GAP,
                note="the swapped operator order must visibly differ",
                **cols,
            ),
        ]
    return records


def run_zk_check(cfg: RunConfig) -> list[dict]:
    """Compare the simulated verifier view against the real one."""
    inst = build_instance(cfg)
    verifier_kind = cfg.extras.get("verifier", "adversarial")
    keep_z = bool(cfg.extras.get("keep_z", False))
    records = []
    for t, (_, aux_seed, sample_seed), circ in _trials(cfg, inst, verifier_kind):
        aux = protocol.random_aux(cfg.dims[0], aux_seed)
        # The verifier's one application: both views are factored on its start block.
        block = protocol.start_block(circ.ver, inst.n, inst.codes[0])
        # One amplified step serves both the exact view and the sampled transcript.
        amplified = simulator.amplified_columns(circ, aux, block)
        sim_view = simulator.recorded_view(circ, block, amplified, keep_z=keep_z)
        real = protocol.real_view_recorded(inst, circ.ver, aux, keep_z=keep_z, block=block)
        distance = sim_view.trace_distance(real)
        sampled = simulator.sample_round(circ, amplified, np.random.default_rng(sample_seed))
        records.append(
            residual_record(
                "view-equality",
                f"trial={t}",
                distance,
                verifier=verifier_kind,
                transcript={
                    "guess": sampled.guess,
                    "challenge": sampled.challenge,
                    "relabeling": list(sampled.permutation.mapping),
                    "sent": format_graph_literal(sampled.sent),
                    "accepted": sampled.accepted,
                },
                **_columns(circ),
            )
        )
    return records


def run_watrous(cfg: RunConfig) -> list[dict]:
    """Check the measure-then-reflect variant."""
    inst = build_instance(cfg)
    records = []
    for t, (_, aux_seed, branch_seed), circ in _trials(cfg, inst):
        aux = protocol.random_aux(cfg.dims[0], aux_seed)
        prob, succ, reflected = simulator.measure_then_reflect(circ, aux)
        # Fidelity of the reflected failure branch with the success state.
        overlap = complex(np.vdot(succ, reflected))
        fidelity = abs(overlap) ** 2
        # The first measurement, sampled: it succeeds iff one uniform draw is below prob.
        succeeded = np.random.default_rng(branch_seed).random() < prob
        cols = _columns(circ)
        records += [
            near_record("first-measurement-probability", f"trial={t}", prob, 0.5, **cols),
            record(
                "reflected-state-fidelity",
                f"trial={t}",
                fidelity,
                ATOL_OP,
                # The reflection lands on minus the success state.
                1.0 - fidelity <= ATOL_OP and abs(overlap + 1.0) <= ATOL_OP,
                target=1.0,
                relative_phase=overlap,
                sampled_first_measurement_succeeded=succeeded,
                **cols,
            ),
        ]
    return records


def _blocks_circuits(cfg: RunConfig):
    if cfg.m is not None:
        for t in range(cfg.trials):
            circ = amplify.toy_circuit(cfg.m, cfg.dims, trial_seeds(cfg.seed, t)[0])
            yield f"toy[m={cfg.m},trial={t}]", circ, 1.0 / cfg.m
        return
    for t, _, circ in _trials(cfg, build_instance(cfg)):
        yield f"gmw[trial={t}]", circ, 0.5


def run_blocks(cfg: RunConfig) -> list[dict]:
    """Check the block decomposition identities and subspace closure."""
    records = []
    for label, circ, expected in _blocks_circuits(cfg):
        cols = _columns(circ)
        decomp = amplify.block_decompose(circ.attempt, circ.success_proj, circ.layout)
        records.append(
            near_record(
                "scalar-top-block", label, decomp.success_prob, expected, echo="expected", **cols
            )
        )
        for i, value in enumerate(amplify.verify_block_identities(decomp), start=1):
            records.append(residual_record(f"idempotence-identity-{i}", label, value, **cols))
        aux = protocol.random_aux(cfg.dims[0], cfg.seed + 1)
        for phases, tag in ((PhasePair(1j, 1j), "i,i"), (PhasePair(-1.0, -1.0), "-1,-1")):
            closure = amplify.verify_subspace_closure(circ, aux, phases)
            records.append(
                residual_record("subspace-closure", f"{label},phases={tag}", closure, **cols)
            )
        lam = decomp.success_prob
        theta = np.arcsin(np.sqrt(lam))
        rotation = np.array(
            [
                [np.cos(2 * theta), np.sin(2 * theta)],
                [-np.sin(2 * theta), np.cos(2 * theta)],
            ]
        )
        deviation = float(
            np.max(np.abs(-amplify.subspace_matrix(lam, PhasePair(-1.0, -1.0)) - rotation))
        )
        records.append(
            residual_record("grover-rotation-form", label, deviation, ATOL_NORM, **cols)
        )
    return records


def run_phases(cfg: RunConfig) -> list[dict]:
    """Solve for exact amplification phases over a success-probability grid.

    Each solved k must lie in its analytic band: ``b(k) = feasibility_boundary(k)``
    is the smallest lambda that k steps amplify exactly, so k is right iff
    ``b(k) <= lambda < b(k - 1)``.  The certificate accepts k slightly below
    b(k), by a relative 1e-10 but never 1e-9 in a scan of k up to 8000, so both
    ends are widened by the relative ``BOUNDARY_SLACK``; an absolute 1e-9 would
    admit 792 values of k at lambda = 1e-8.
    """
    lambdas = cfg.extras["lambdas"]
    k_max = cfg.extras["k_max"]
    records = []
    single_step_ok: list[float] = []
    mismatched: list[float] = []
    for lam in lambdas:
        found = amplify.smallest_feasible_k(lam, k_max)
        single = found is not None and found[0] == 1
        if single:
            single_step_ok.append(lam)
        if lam >= SINGLE_STEP_BOUNDARY:
            agrees = single
        else:
            agrees = not single or lam >= SINGLE_STEP_BOUNDARY - BOUNDARY_SLACK
        if not agrees:
            mismatched.append(lam)
        claim, label = "exact-amplification-phases", f"lambda={lam!r}"
        analytic_k = amplify.analytic_k(lam)
        if found is None:
            records.append(
                record(
                    claim,
                    label,
                    None,
                    ATOL_OP,
                    False,
                    k=None,
                    analytic_k=analytic_k,
                    single_step_feasible=single,
                    note=f"no certified solution up to k={k_max}",
                )
            )
            continue
        k, pair, residual = found
        in_band = (
            (1 - BOUNDARY_SLACK) * amplify.feasibility_boundary(k)
            <= lam
            < (1 + BOUNDARY_SLACK) * amplify.feasibility_boundary(k - 1)
        )
        records.append(
            record(
                claim,
                label,
                residual,
                ATOL_OP,
                residual <= ATOL_OP and in_band,
                k=k,
                analytic_k=analytic_k,
                phi=complex(pair.phi),
                varphi=complex(pair.varphi),
                single_step_feasible=single,
            )
        )
    records.append(
        record(
            "single-step-feasibility-boundary",
            None,
            min(single_step_ok) if single_step_ok else None,
            BOUNDARY_SLACK,
            not mismatched,
            target=SINGLE_STEP_BOUNDARY,
            mismatched_lambdas=mismatched,
            note="smallest grid value where one step already amplifies exactly; "
            "every grid verdict must agree with the analytic boundary",
        )
    )
    return records


def run_schedule(cfg: RunConfig) -> list[dict]:
    """Run the measure-then-reflect schedule and report its probabilities."""
    steps = cfg.extras["steps"]
    lam = 1.0 / cfg.m
    two_dim = amplify.iterative_schedule(lam, steps)
    circ = amplify.toy_circuit(cfg.m, cfg.dims, trial_seeds(cfg.seed, 0)[0])
    aux = protocol.random_aux(cfg.dims[0], cfg.seed + 1)
    full = amplify.iterative_schedule_full(circ, aux, steps)

    records = [near_record("first-measurement-probability", None, two_dim[0], lam)]
    if len(two_dim) > 1:
        computed = amplify.computed_second_probability(lam)
        stated = amplify.stated_second_probability(cfg.m)
        records.append(
            near_record(
                "second-measurement-probability",
                None,
                two_dim[1],
                computed,
                echo="computed_form",
                stated_form=stated,
                discrepancy_flagged=abs(computed - stated) > ATOL_NORM,
            )
        )
    agreement = max(
        (abs(a - b) for a, b in zip(full, two_dim)), default=0.0
    ) + abs(len(full) - len(two_dim))
    records.append(residual_record("full-vs-two-dim-agreement", None, agreement))
    records.append(
        record(
            "every-entry-at-least-lambda",
            None,
            float(min(two_dim)),
            None,
            min(two_dim) - lam >= -ATOL_OP,
            floor=lam,
            schedule=list(map(float, two_dim)),
        )
    )
    return records


# ---------------------------------------------------------------------------
# Commands, their flags, and the entry point
# ---------------------------------------------------------------------------

FLAGS = {
    "--n": dict(type=int, help="vertex count of the graph pair"),
    "--g0": dict(help="first graph, e.g. 01,12"),
    "--g1": dict(help="second graph, e.g. 01,02"),
    "--m": dict(type=int, help="guess-space dimension of the abstract circuit"),
    "--trials": dict(type=int, default=1),
    "--seed": dict(type=int, default=0, help="base seed"),
    "--dim-w": dict(type=int, default=2),
    "--dim-v": dict(type=int, default=2),
    # Defaulted in config_from_args, so that blocks --m can refuse an explicit value.
    "--completion": dict(
        choices=COMPLETIONS,
        help="which unitary completion fills the relabeling superposition "
        f"(default {COMPLETIONS[0]})",
    ),
    "--out": dict(help="also write the report here"),
    "--verifier": dict(choices=("honest", "adversarial"), default="adversarial"),
    "--keep-z": dict(action="store_true", help="also record the response permutation"),
    "--lambdas": dict(
        default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", help="comma-separated success probabilities"
    ),
    "--k-max": dict(type=int, default=64),
    "--steps": dict(type=int, default=4, help=f"measurements, at most {MAX_SCHEDULE_STEPS}"),
}
GRAPH_FLAGS = ("--n", "--g0", "--g1", "--trials", "--completion", "--dim-w", "--dim-v")

# Each command's handler (whose docstring is its help) and the flags it reads;
# every command also takes --seed and --out.
COMMANDS = {
    "verify-eq1": (run_verify_eq1, GRAPH_FLAGS),
    "verify-eq2": (run_verify_eq2, GRAPH_FLAGS),
    "zk-check": (run_zk_check, GRAPH_FLAGS + ("--verifier", "--keep-z")),
    "watrous": (run_watrous, GRAPH_FLAGS),
    "blocks": (run_blocks, GRAPH_FLAGS + ("--m",)),
    "phases": (run_phases, ("--lambdas", "--k-max")),
    "schedule": (run_schedule, ("--m", "--dim-w", "--dim-v", "--steps")),
}
HANDLERS = {name: handler for name, (handler, _) in COMMANDS.items()}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


# The value echoed in the report's config for a flag the command does not take.
_UNSET = {_dest(flag): spec.get("default") for flag, spec in FLAGS.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zkamp",
        description="Numeric certification suite for the amplified round simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        for flag in flags + ("--seed", "--out"):
            p.add_argument(flag, **FLAGS[flag])
    return parser


def _parse_lambdas(text: str) -> list[float]:
    try:
        lambdas = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad --lambdas value {text!r}") from None
    if not lambdas:
        raise ConfigError("--lambdas needs at least one value")
    for lam in lambdas:
        if not 0 < lam < 1:
            raise ConfigError(f"lambda values must be in (0, 1), got {lam}")
    if len(set(lambdas)) != len(lambdas):
        raise ConfigError(f"--lambdas repeats a value: {text!r}")
    return lambdas


def config_from_args(args: argparse.Namespace) -> RunConfig:
    opts = {**_UNSET, **vars(args)}
    if args.command == "blocks" and opts["m"] is not None:
        given = [f"--{key}" for key in ("n", "g0", "g1", "completion") if opts[key] is not None]
        if given:
            raise ConfigError(
                f"blocks --m builds the abstract 1/m circuit, which ignores {', '.join(given)}"
            )
    opts.update(
        dims=(opts.pop("dim_w"), opts.pop("dim_v")),
        completion=opts["completion"] or COMPLETIONS[0],
    )
    _, flags = COMMANDS[args.command]
    # A command's flags that are neither RunConfig fields nor parts of dims are its extras.
    extras = {key: opts[key] for key in map(_dest, flags) if key in opts and key not in _FIELDS}
    if "lambdas" in extras:
        extras["lambdas"] = _parse_lambdas(extras["lambdas"])
        if extras["k_max"] < 1:
            raise ConfigError(f"--k-max must be >= 1, got {extras['k_max']}")
    if "steps" in extras:
        if extras["steps"] < 1:
            raise ConfigError(f"--steps must be >= 1, got {extras['steps']}")
        if extras["steps"] > MAX_SCHEDULE_STEPS:
            raise ConfigError(
                f"--steps must be at most {MAX_SCHEDULE_STEPS}, got {extras['steps']}: the "
                "full-space schedule grows rounding outside the (succ, fail) plane by "
                "1/|1 - 2/m| per step, and at m = 3 it loses its 1e-10 agreement with "
                "the 2D schedule by 23 to 25 steps"
            )
    cfg = RunConfig(**{name: opts[name] for name in _FIELDS}, extras=extras)
    cfg.validate()
    preflight(cfg)
    return cfg


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser a process needs, built at its first run and not at import."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse's refusal (2) or --help (0)
        return exc.code
    started = time.monotonic()
    try:
        cfg = config_from_args(args)
        records = HANDLERS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    overall = all(rec["pass"] for rec in records)
    report = {
        "command": cfg.command,
        "config": cfg.as_dict(),
        "records": records,
        "environment": {
            "seed": cfg.seed,
            "dims": list(cfg.dims),
            "package_version": __version__,
            "timings": {"total_seconds": time.monotonic() - started},
        },
        "pass": overall,
    }
    text = dump_json(report)
    print(text)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if overall else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
