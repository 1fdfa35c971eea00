"""Experiment runner: build instances, run the verification suites, emit JSON.

Every command produces one report document with a fixed key order and floats
printed at 17 significant digits, so identical configurations diff to
nothing except the timings block.  Exit code 0 means every record passed,
1 means some check failed, 2 means the configuration was invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, amplify, protocol, simulator
from .amplify import PhasePair
from .protocol import Instance, NotIsomorphicError
from .registers import _EMBED_DIM_LIMIT, ATOL_NORM, ATOL_OP
from .symm import MAX_VERTICES, format_graph_literal, parse_graph_literal

ORDER_GAP = 1e-6
# One exact step reaches certainty iff lambda >= 1/4.  Just below it the
# solver clips its phase to -1, leaving a failure amplitude of about
# 3.5 (1/4 - lambda); the 1e-10 certificate therefore still accepts lambda up
# to about 3e-11 below, well inside this slack.
SINGLE_STEP_BOUNDARY = 0.25
BOUNDARY_SLACK = 1e-9
# The full-space schedule renormalises its failure branch before each
# reflection, a power iteration: rounding outside the (succ, fail) plane grows
# by 1/|1 - 2/m| per step (3x at m = 3).  At m = 3 the 1e-10 agreement with
# the 2D schedule first breaks at 23 to 25 steps, depending on the dims.
MAX_SCHEDULE_STEPS = 16
COMPLETIONS = ("householder", "dft")


class ConfigError(Exception):
    """Invalid command configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one run, echoed verbatim into the report."""

    command: str
    n: int | None
    m: int | None
    trials: int
    seed: int
    dims: tuple[int, int]
    g0: str | None
    g1: str | None
    out: str | None
    completion: str
    extras: dict

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.n is not None:
            _check_vertex_count(self.n)
        if min(self.dims) < 1:
            raise ConfigError(f"dims must be >= 1, got {self.dims}")
        if self.seed < 0:
            raise ConfigError(f"the seed (--seed or ZKAMP_SEED) must be >= 0, got {self.seed}")
        if self.out is not None:
            _check_writable(self.out)

    def as_dict(self) -> dict:
        out = {
            "command": self.command,
            "n": self.n,
            "m": self.m,
            "trials": self.trials,
            "seed": self.seed,
            "dims": list(self.dims),
            "g0": self.g0,
            "g1": self.g1,
            "completion": self.completion,
            "out": self.out,
        }
        out.update(self.extras)
        return out


def _check_writable(path: str) -> None:
    """Refuse a report path that cannot be written, before any work is done."""
    parent = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else parent
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(target, os.W_OK):
        raise ConfigError(f"--out {path!r} is not a writable file path")


def trial_seeds(seed: int, trial: int, count: int = 3) -> list[int]:
    """Well-separated child seeds for one trial, deterministic in (seed, trial)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return [int(x) for x in ss.generate_state(count)]


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


def build_instance(cfg: RunConfig) -> Instance:
    if cfg.g0 is None or cfg.g1 is None:
        raise ConfigError("this command needs --g0 and --g1")
    g0 = _parse_graph(cfg.g0, cfg.n)
    g1 = _parse_graph(cfg.g1, cfg.n)
    # A literal carries its own vertex count, so each graph is checked.
    for graph in (g0, g1):
        _check_graph_size(cfg.dims, graph.n)
    try:
        inst = Instance.from_graphs(g0, g1)
    except NotIsomorphicError as exc:
        raise ConfigError(f"graphs are not isomorphic: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return inst


def _check_vertex_count(n: int) -> None:
    if not 2 <= n <= 4:
        raise ConfigError(f"n must be in 2..4 for full verification runs, got {n}")


def _check_graph_size(dims: tuple[int, int], n: int) -> None:
    """Refuse a graph's vertex count and its verifier's size, before S_n is enumerated.

    Every command on a graph pair draws a verifier on W,V,A,Y, whose
    Householder reflectors fill a dense matrix of that side.  A refused n
    also names an oversize verifier while n is in S_n's range
    1..MAX_VERTICES; past it that size is never computed, as the graph
    register alone has 2^(n(n-1)/2) states.
    """
    try:
        _check_vertex_count(n)
    except ConfigError as exc:
        if 1 <= n <= MAX_VERTICES:
            _check_embed_dim(f"{exc}; the verifier unitary", protocol.view_layout(dims, n).total_dim)
        raise
    _check_embed_dim("the verifier unitary", protocol.view_layout(dims, n).total_dim)


def _check_embed_dim(what: str, dim: int) -> None:
    """Refuse, before anything is allocated, a dense operator above the embedding limit."""
    if dim > _EMBED_DIM_LIMIT:
        raise ConfigError(
            f"{what} needs a dense {dim}x{dim} matrix, above the limit of {_EMBED_DIM_LIMIT}"
        )


def _check_toy_circuit(cfg: RunConfig):
    """The abstract 1/m circuit's layout, refused if its scramble or guess space is oversize."""
    if cfg.m < 2:
        raise ConfigError(f"--m must be >= 2, got {cfg.m}")
    layout = amplify.toy_layout(cfg.m, cfg.dims)
    _check_embed_dim("the toy scramble on W,V,A", layout.keep(["W", "V", "A"]).total_dim)
    # Nothing dense is built on A,B, but states grow with m^2: with only the
    # scramble bound, dims 1x1 and m = 8192 would need 1 GiB states.
    guesses = layout.keep(["A", "B"]).total_dim
    if guesses > _EMBED_DIM_LIMIT:
        raise ConfigError(
            f"the guess space A,B has {guesses} basis states, above the limit of {_EMBED_DIM_LIMIT}"
        )
    return layout


def _trials(cfg: RunConfig, inst: Instance, kind: str = "adversarial"):
    """Each trial's index, ``trial_seeds`` and circuit; the first seed draws an adversarial verifier."""
    for t in range(cfg.trials):
        seeds = trial_seeds(cfg.seed, t)
        if kind == "honest":
            ver = protocol.honest_verifier(cfg.dims, inst.n)
        else:
            ver = protocol.adversarial_verifier(cfg.dims, inst.n, seeds[0])
        yield t, seeds, simulator.build_circuit(inst, ver, cfg.completion)


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
        records += [
            residual_record("one-step-amplification", label, check.residual),
            near_record("post-step-success-probability", label, check.success_prob, 1.0),
            record(
                "operator-order-disambiguation",
                label,
                check.swapped_order_residual,
                None,
                check.swapped_order_residual > ORDER_GAP,
                note="the swapped operator order must visibly differ",
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
        # One amplified state serves both the exact view and the sampled transcript.
        amplified = simulator.amplified_state(circ, aux)
        sim_view = simulator.recorded_view(circ, amplified, keep_z=keep_z)
        real = protocol.real_view_recorded(inst, circ.ver, aux, keep_z=keep_z)
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
        records += [
            near_record("first-measurement-probability", f"trial={t}", prob, 0.5),
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
            ),
        ]
    return records


def _blocks_circuits(cfg: RunConfig):
    if cfg.m is not None:
        expected = 1.0 / cfg.m
        _check_embed_dim("block decomposition", _check_toy_circuit(cfg).total_dim)
        for t in range(cfg.trials):
            seed = trial_seeds(cfg.seed, t)[0]
            yield f"toy[m={cfg.m},trial={t}]", amplify.toy_circuit(cfg.m, cfg.dims, seed), expected
        return
    inst = build_instance(cfg)
    if inst.n > 3:
        raise ConfigError("dense block decomposition is guarded at n <= 3")
    _check_embed_dim("block decomposition", simulator.sim_layout(cfg.dims, inst.n).total_dim)
    for t, _, circ in _trials(cfg, inst):
        yield f"gmw[trial={t}]", circ, 0.5


def run_blocks(cfg: RunConfig) -> list[dict]:
    """Check the block decomposition identities and subspace closure."""
    records = []
    for label, circ, expected in _blocks_circuits(cfg):
        decomp = amplify.block_decompose(circ.attempt, circ.success_proj, circ.layout)
        records.append(
            near_record("scalar-top-block", label, decomp.success_prob, expected, echo="expected")
        )
        for i, value in enumerate(amplify.verify_block_identities(decomp), start=1):
            records.append(residual_record(f"idempotence-identity-{i}", label, value))
        aux = protocol.random_aux(cfg.dims[0], cfg.seed + 1)
        for phases, tag in ((PhasePair(1j, 1j), "i,i"), (PhasePair(-1.0, -1.0), "-1,-1")):
            closure = amplify.verify_subspace_closure(circ, aux, phases)
            records.append(residual_record("subspace-closure", f"{label},phases={tag}", closure))
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
        records.append(residual_record("grover-rotation-form", label, deviation, ATOL_NORM))
    return records


def run_phases(cfg: RunConfig) -> list[dict]:
    """Solve for exact amplification phases over a success-probability grid."""
    lambdas = cfg.extras["lambdas"]
    k_max = cfg.extras["k_max"]
    records = []
    single_step_ok: list[float] = []
    mismatched: list[float] = []
    for lam in lambdas:
        single = amplify.solve_phases(lam, 1) is not None
        if single:
            single_step_ok.append(lam)
        if lam >= SINGLE_STEP_BOUNDARY:
            agrees = single
        else:
            agrees = not single or lam >= SINGLE_STEP_BOUNDARY - BOUNDARY_SLACK
        if not agrees:
            mismatched.append(lam)
        found = amplify.smallest_feasible_k(lam, k_max)
        claim, label = "exact-amplification-phases", f"lambda={lam:g}"
        if found is None:
            records.append(
                record(
                    claim,
                    label,
                    None,
                    ATOL_OP,
                    False,
                    k=None,
                    single_step_feasible=single,
                    note=f"no certified solution up to k={k_max}",
                )
            )
            continue
        k, pair = found
        residual = amplify.final_fail_amplitude(lam, k, pair)
        records.append(
            record(
                claim,
                label,
                residual,
                ATOL_OP,
                residual <= ATOL_OP,
                k=k,
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
    if cfg.m is None:
        raise ConfigError("schedule needs --m")
    _check_toy_circuit(cfg)
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
    "--seed": dict(type=int, default=0, help="base seed (env ZKAMP_SEED overrides)"),
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
# Options that are RunConfig fields; a command's other flags are its extras.
_FIELDS = {"n", "m", "trials", "seed", "dim_w", "dim_v", "g0", "g1", "out", "completion"}


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
    return lambdas


def config_from_args(args: argparse.Namespace) -> RunConfig:
    opts = {**_UNSET, **vars(args)}
    seed = opts["seed"]
    env_seed = os.environ.get("ZKAMP_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"ZKAMP_SEED must be an integer, got {env_seed!r}") from None
    if args.command == "blocks" and opts["m"] is not None:
        given = [f"--{key}" for key in ("n", "g0", "g1", "completion") if opts[key] is not None]
        if given:
            raise ConfigError(
                f"blocks --m builds the abstract 1/m circuit, which ignores {', '.join(given)}"
            )
    _, flags = COMMANDS[args.command]
    extras = {_dest(f): opts[_dest(f)] for f in flags if _dest(f) not in _FIELDS}
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
    cfg = RunConfig(
        command=args.command,
        n=opts["n"],
        m=opts["m"],
        trials=opts["trials"],
        seed=seed,
        dims=(opts["dim_w"], opts["dim_v"]),
        g0=opts["g0"],
        g1=opts["g1"],
        out=opts["out"],
        completion=opts["completion"] or COMPLETIONS[0],
        extras=extras,
    )
    cfg.validate()
    return cfg


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
