"""Amplification theory for any input-independent success probability.

Everything the half-probability construction needs survives when the attempt
succeeds with some other probability lam, provided lam does not depend on
the auxiliary input.  That condition shows up as the top block of
``attempt^-1 P attempt`` being lam times the identity; from it follow three
algebraic identities between the decomposition blocks, a two-dimensional
invariant subspace spanned by the normalized success and failure
projections of the attempt output, exact closed forms for the step matrix
in that basis, and closed-form phases that drive the failure amplitude to
zero in a chosen number of steps.  The measure-then-reflect schedule is
simulated both in the 2D basis and in the full space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .registers import (
    ATOL_NORM,
    ATOL_OP,
    DiagonalOp,
    LinearOp,
    OpChain,
    RegisterLayout,
    StateVector,
    haar_random_op,
    to_matrix,
)
from .simulator import (
    SimulatorCircuit,
    attempt_output,
    first_measurement,
    grover_step,
    success_projector,
    uniform_superposition_unitary,
)


class NotLambdaUniformError(ValueError):
    """The success probability depends on the auxiliary input."""


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks of the conjugated success projector relative to the start slice.

    ``success_prob`` scales the identity in the top-left block, ``cross`` is
    the complement-to-slice block, ``rest`` the complement-to-complement
    block.
    """

    success_prob: float
    cross: np.ndarray
    rest: np.ndarray


@dataclass(frozen=True)
class PhasePair:
    """The two unit-modulus phases of one amplification step."""

    phi: complex
    varphi: complex

    def __post_init__(self):
        for value in (self.phi, self.varphi):
            if abs(abs(complex(value)) - 1.0) > ATOL_NORM:
                raise ValueError(f"phase {value} is not unit modulus")


def block_decompose(
    attempt, success_proj: DiagonalOp, layout: RegisterLayout, atol: float = ATOL_OP
) -> BlockDecomposition:
    """Split ``attempt^-1 P attempt`` by the start slice and extract the blocks.

    P is a 0/1 diagonal, so ``attempt^-1 P attempt = (P attempt)^† (P attempt)``:
    one dense product over the rows of the attempt matrix that P keeps.
    Raises :class:`NotLambdaUniformError` when the top block is not a scalar
    matrix, i.e. when the circuit's success probability varies with the
    auxiliary input and the two-dimensional theory does not apply.
    """
    dim_w = layout.dim_of("W")
    dim_rest = layout.total_dim // dim_w
    mask = success_proj.apply_to(layout, np.ones(layout.total_dim, dtype=complex))
    projected = to_matrix(attempt, layout)[mask.real == 1]
    conj = projected.conj().T @ projected

    slice_idx = np.arange(dim_w) * dim_rest
    comp_idx = np.setdiff1d(np.arange(layout.total_dim), slice_idx)
    top = conj[np.ix_(slice_idx, slice_idx)]
    lam = float(np.trace(top).real) / dim_w
    deviation = float(np.linalg.norm(top - lam * np.eye(dim_w), ord=2))
    if deviation > atol:
        raise NotLambdaUniformError(
            f"top block deviates from a scalar by {deviation:.3e}; "
            "the success probability depends on the auxiliary input"
        )
    return BlockDecomposition(
        success_prob=lam,
        cross=conj[np.ix_(comp_idx, slice_idx)],
        rest=conj[np.ix_(comp_idx, comp_idx)],
    )


def verify_block_identities(b: BlockDecomposition) -> tuple[float, float, float]:
    """Frobenius norms of the three residuals that idempotence of ``attempt^-1 P attempt`` forces.

    The identities are ``lam^2 - lam + cross^† cross = 0``,
    ``(lam - 1) cross + rest cross = 0`` and ``cross cross^† + rest^2 - rest = 0``.
    A Frobenius norm bounds the spectral norm from above, so each value
    certifies its identity at least as strictly as the operator norm would.
    """
    lam = b.success_prob
    eye_w = np.eye(b.cross.shape[1])
    r1 = (lam**2 - lam) * eye_w + b.cross.conj().T @ b.cross
    r2 = (lam - 1) * b.cross + b.rest @ b.cross
    r3 = b.cross @ b.cross.conj().T + b.rest @ b.rest - b.rest
    return float(np.linalg.norm(r1)), float(np.linalg.norm(r2)), float(np.linalg.norm(r3))


def subspace_matrix(lam: float, phases: PhasePair) -> np.ndarray:
    """Exact step matrix in the (succ, fail) basis; columns are the images."""
    if not 0 < lam < 1:
        raise ValueError(f"success probability must be in (0, 1), got {lam}")
    phi, varphi = complex(phases.phi), complex(phases.varphi)
    root = np.sqrt(lam * (1 - lam))
    return np.array(
        [
            [varphi * (lam * phi + 1 - lam), -root * (1 - phi)],
            [-varphi * root * (1 - phi), lam + (1 - lam) * phi],
        ],
        dtype=complex,
    )


def verify_subspace_closure(
    circ: SimulatorCircuit, aux: StateVector, phases: PhasePair
) -> float:
    """Leakage out of span(succ, fail) plus deviation from the closed form."""
    layout = circ.layout
    lam, succ, fail = first_measurement(circ, aux)
    step = grover_step(circ, phases.phi, phases.varphi)
    predicted = subspace_matrix(lam, phases)
    max_leak = 0.0
    max_dev = 0.0
    for col, x in enumerate((succ, fail)):
        y = step.apply_to(layout, x)
        cs = np.vdot(succ, y)
        cf = np.vdot(fail, y)
        leak = np.linalg.norm(y - cs * succ - cf * fail)
        dev = np.linalg.norm(np.array([cs, cf]) - predicted[:, col])
        max_leak = max(max_leak, float(leak))
        max_dev = max(max_dev, float(dev))
    return max_leak + max_dev


def _initial_two_dim(lam: float) -> np.ndarray:
    return np.array([np.sqrt(lam), np.sqrt(1 - lam)], dtype=complex)


def evolve_two_dim(lam: float, steps: list[PhasePair], start: np.ndarray | None = None) -> np.ndarray:
    state = _initial_two_dim(lam) if start is None else np.asarray(start, dtype=complex)
    for phases in steps:
        state = subspace_matrix(lam, phases) @ state
    return state


def final_fail_amplitude(lam: float, k: int, phases: PhasePair) -> float:
    """Failure amplitude after k-1 plain Grover steps and one phased step."""
    if k < 1:
        raise ValueError(f"step count must be >= 1, got {k}")
    grover = PhasePair(-1.0, -1.0)
    state = evolve_two_dim(lam, [grover] * (k - 1) + [phases])
    return float(abs(state[1]))


def solve_phases(lam: float, k: int) -> PhasePair | None:
    """Phases making the k-th step land exactly on the success axis, in closed form.

    The state (s, c) before the last step is real, so the failure amplitude
    of the phased step is ``varphi x + y`` with ``x = -root (1 - phi) s`` and
    ``y = (lam + (1 - lam) phi) c``.  Equal magnitudes ``|x| = |y|`` are linear
    in cos(alpha) for ``phi = exp(i alpha)``; in half-angle form
    ``sin(alpha / 2) = |c| / (2 root)``, which stays well conditioned where
    alpha is small.  The second phase then points ``varphi x`` against ``y``.
    Past the boundary (the k-too-small regime) the sine is clipped to 1, and
    the certificate on the final failure amplitude decides: the pair is
    returned only when it is at most ``ATOL_OP``, otherwise None.
    """
    if not 0 < lam < 1:
        raise ValueError(f"success probability must be in (0, 1), got {lam}")
    if k < 1:
        raise ValueError(f"step count must be >= 1, got {k}")
    state = evolve_two_dim(lam, [PhasePair(-1.0, -1.0)] * (k - 1))
    s, c = float(state[0].real), float(state[1].real)
    root = np.sqrt(lam * (1 - lam))
    phi = np.exp(2j * np.arcsin(min(1.0, abs(c) / (2 * root))))
    x = -root * (1 - phi) * s
    y = (lam + (1 - lam) * phi) * c
    # The unit phase of -y/x, taken without dividing: x vanishes when s or c
    # is exactly zero, and either sign then serves.
    pair = PhasePair(phi, np.exp(1j * np.angle(-y * np.conj(x))))
    if final_fail_amplitude(lam, k, pair) <= ATOL_OP:
        return pair
    return None


def smallest_feasible_k(lam: float, k_max: int = 64) -> tuple[int, PhasePair] | None:
    """First step count the solver can certify, with its phases."""
    for k in range(1, k_max + 1):
        pair = solve_phases(lam, k)
        if pair is not None:
            return k, pair
    return None


def toy_layout(m: int, dims: tuple[int, int]) -> RegisterLayout:
    """Registers of :func:`toy_circuit`: W, V, then challenge A and guess B of dimension m."""
    dim_w, dim_v = dims
    return RegisterLayout([("W", dim_w), ("V", dim_v), ("A", m), ("B", m)])


def toy_circuit(m: int, dims: tuple[int, int] = (2, 2), seed: int = 0) -> SimulatorCircuit:
    """Abstract attempt circuit that succeeds with probability exactly 1/m.

    The challenge register A and guess register B both have dimension m; the
    attempt splits B into the uniform superposition and runs a seeded random
    unitary on W, V, A.  Graph registers are absent on purpose: only the
    (attempt, projector, success probability) structure matters here.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    layout = toy_layout(m, dims)
    split_b = LinearOp(layout, ("B",), uniform_superposition_unitary(m))
    scrambled = ("W", "V", "A")
    scramble = haar_random_op(layout, scrambled, seed)
    attempt = OpChain((split_b, scramble))
    return SimulatorCircuit(layout, attempt, success_projector(layout))


def iterative_schedule(lam: float, steps: int) -> list[float]:
    """Conditional success probabilities of the measure-then-reflect loop.

    Exact two-dimensional simulation: measure, and on failure reflect about
    the attempt image of the start slice (no success phase between
    measurements).  Stops early if a measurement succeeds with certainty,
    since then there is no failure branch to continue from.
    """
    if not 0 < lam < 1:
        raise ValueError(f"success probability must be in (0, 1), got {lam}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    reflect = subspace_matrix(lam, PhasePair(-1.0, 1.0))
    state = _initial_two_dim(lam)
    probs: list[float] = []
    for _ in range(steps):
        p = float(abs(state[0]) ** 2)
        probs.append(p)
        fail_norm = abs(state[1])
        if fail_norm < ATOL_NORM:
            break
        state = reflect @ np.array([0.0, state[1] / fail_norm], dtype=complex)
    return probs


def iterative_schedule_full(circ: SimulatorCircuit, aux: StateVector, steps: int) -> list[float]:
    """Full-space version of :func:`iterative_schedule`, the cross-check oracle."""
    layout = circ.layout
    reflect = grover_step(circ, -1.0, 1.0)
    state = attempt_output(circ, aux)
    probs: list[float] = []
    for _ in range(steps):
        succ_raw = circ.success_proj.apply_to(layout, state)
        p = float(np.linalg.norm(succ_raw) ** 2)
        probs.append(p)
        fail = state - succ_raw
        fail_norm = float(np.linalg.norm(fail))
        if fail_norm < ATOL_NORM:
            break
        state = reflect.apply_to(layout, fail / fail_norm)
    return probs


def stated_second_probability(m: int) -> float:
    """The claimed success probability of the second measurement, 2/m."""
    return 2.0 / m


def computed_second_probability(lam: float) -> float:
    """What the reflection coefficients actually give: 4 lam (1 - lam)."""
    return 4.0 * lam * (1.0 - lam)
