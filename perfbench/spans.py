"""Timing spans around zkamp's public functions, installed from outside.

:func:`install` wraps every public function of ``registers``, ``symm``,
``protocol``, ``simulator``, ``amplify`` and ``cli``, and the public methods
of their classes, in a span.  A span's self time is its duration minus the
time of the spans it encloses.  Spans are aggregated by name as they close;
nothing is written until the benchmark reports.

A name bound with ``from module import name`` is a separate binding in the
importing module (``grover_step`` in ``amplify``,
``trace_distance_matrices`` and ``haar_random_unitary`` in ``protocol``), and
so is a function stored in a table (``cli.HANDLERS``).  Wrapping only the
defining module would miss those calls, so every module attribute and every
module-level dict value that is a wrapped original is rebound to its wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("registers", "symm", "protocol", "simulator", "amplify", "cli")
# Methods that carry an operator's validation cost; other dunders are skipped.
_WRAPPED_DUNDERS = {("LinearOp", "__init__")}
_MAXIMA = ("protocol.view_bytes", "protocol.view_keys")


class Tracer:
    """Aggregates span self times, call counts and layer counters."""

    def __init__(self):
        self._stack: list[list[float]] = []  # per open span: [time of enclosed spans]
        self.top_s = 0.0  # time inside outermost spans since construction
        self.reset()

    def reset(self) -> None:
        """Clear the per-layer aggregates (not ``top_s``)."""
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: defaultdict[str, float] = defaultdict(float)

    def snapshot(self) -> tuple:
        return (self.self_s.copy(), self.calls.copy(), self.counters.copy(), self.maxima.copy())

    def restore(self, snap: tuple) -> None:
        """Drop the per-layer aggregates gathered since ``snap`` was taken."""
        self.self_s, self.calls, self.counters, self.maxima = snap

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def wrap(self, name: str, fn, probe=None):
        """``fn`` inside a span called ``name``; ``probe(*args)`` runs first, untimed."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if probe is not None and self._stack:
                probe(*args)
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                self.self_s[name] += duration - frame[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += duration
                else:
                    self.top_s += duration

        return spanned


def _array_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(v) for v in value)
    return 0


def install(tracer: Tracer) -> None:
    """Wrap zkamp's public layer functions in spans reporting to ``tracer``."""
    modules = {short: importlib.import_module(f"zkamp.{short}") for short in MODULES}
    wrappers: dict[int, object] = {}

    def view_probe(view, other):
        keys = set(view.blocks) | set(other.blocks)
        held = sum(_array_bytes(b) for v in (view, other) for b in v.blocks.values())
        for name, value in zip(_MAXIMA, (held, len(keys))):
            tracer.maxima[name] = max(tracer.maxima[name], value)

    probes = {"protocol.RecordedView.trace_distance": view_probe}

    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{short}.{attr}"
                wrapped = tracer.wrap(name, obj, probes.get(name))
                wrappers[id(obj)] = wrapped
            elif inspect.isclass(obj):
                _wrap_methods(tracer, short, obj, probes)

    for module in list(modules.values()) + [importlib.import_module("zkamp")]:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if id(value) in wrappers:
                        obj[key] = wrappers[id(value)]

    eigvalsh = np.linalg.eigvalsh

    @functools.wraps(eigvalsh)
    def counted_eigvalsh(a, *args, **kwargs):
        if tracer.active:
            tracer.counters["registers.eig_work"] += int(np.shape(a)[-1]) ** 3
        return eigvalsh(a, *args, **kwargs)

    np.linalg.eigvalsh = counted_eigvalsh


def _wrap_methods(tracer: Tracer, short: str, cls: type, probes: dict) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and (cls.__name__, attr) not in _WRAPPED_DUNDERS:
            continue
        name = f"{short}.{cls.__name__}.{attr}"
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(cls, attr, type(raw)(tracer.wrap(name, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(name, raw, probes.get(name)))


def _sum(table, match) -> float:
    return float(sum(v for k, v in table.items() if match(k)))


def layer_metrics(tracer: Tracer, passes: int = 1) -> dict[str, float]:
    """Per-layer figures since the last reset, per pass over the workload's operations.

    Times, calls and work are divided by ``passes``; the view sizes are maxima.
    """
    s, calls = tracer.self_s, tracer.calls

    def self_of(*names):
        return _sum(s, lambda k: k in names)

    figures = {
        "protocol.trace_distance_s": self_of("protocol.RecordedView.trace_distance"),
        "registers.trace_distance_matrices_s": self_of("registers.trace_distance_matrices"),
        "registers.trace_distance_matrices_calls": calls["registers.trace_distance_matrices"],
        "registers.eig_work": tracer.counters["registers.eig_work"],
        "protocol.view_bytes": tracer.maxima["protocol.view_bytes"],
        "protocol.view_keys": tracer.maxima["protocol.view_keys"],
        "protocol.real_view_s": self_of("protocol.real_view_recorded"),
        "simulator.sim_view_s": self_of("simulator.simulate_round_recorded"),
        "registers.adjoint_s": _sum(s, lambda k: k.startswith("registers.") and k.endswith(".adjoint")),
        "registers.adjoint_calls": _sum(calls, lambda k: k.startswith("registers.") and k.endswith(".adjoint")),
        "registers.linearop_init_s": self_of("registers.LinearOp.__init__"),
        "registers.linearop_init_calls": calls["registers.LinearOp.__init__"],
        "simulator.grover_step_s": self_of("simulator.grover_step"),
        "protocol.verifier_s": self_of("protocol.adversarial_verifier", "protocol.honest_verifier"),
        "registers.haar_s": self_of("registers.haar_random_unitary"),
        "registers.opchain_apply_s": self_of("registers.OpChain.apply_to"),
        "registers.opchain_apply_calls": calls["registers.OpChain.apply_to"],
        "simulator.attempt_s": self_of("simulator.attempt_output"),
        "simulator.amplification_check_s": self_of("simulator.amplification_check"),
        "simulator.success_block_s": self_of("simulator.success_block_residual"),
        "simulator.watrous_round_s": self_of("simulator.watrous_round"),
        "simulator.sample_round_s": self_of("simulator.sample_round"),
        "amplify.solve_phases_s": self_of("amplify.solve_phases"),
        "amplify.solve_phases_calls": calls["amplify.solve_phases"],
        "amplify.block_decompose_s": self_of("amplify.block_decompose"),
        "amplify.block_identities_s": self_of("amplify.verify_block_identities"),
        "registers.to_matrix_s": _sum(s, lambda k: k.startswith("registers.") and k.endswith(".to_matrix")),
        "amplify.subspace_closure_s": self_of("amplify.verify_subspace_closure"),
        "symm.s": _sum(s, lambda k: k.startswith("symm.")),
        "symm.enumerate_sn_calls": calls["symm.enumerate_sn"],
        "cli.self_s": _sum(s, lambda k: k.startswith("cli.")),
    }
    return {
        name: value if name in _MAXIMA else value / passes for name, value in figures.items()
    }
