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

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

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
)
from .simulator import (
    SimulatorCircuit,
    attempt_output,
    first_measurement,
    grover_step,
    success_projector,
    uniform_superposition_unitary,
)


RESIDUAL_PANEL = 128  # columns per panel of the idempotence Gram, rows per panel of its r x r core


class NotLambdaUniformError(ValueError):
    """The success probability depends on the auxiliary input."""


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks of the conjugated success projector relative to the start slice.

    ``success_prob`` scales the identity in the top-left block, ``cross`` is
    the complement-to-slice block, and the complement-to-complement block is
    ``rest_factor rest_factor^†``, held as its d_c x r factor.
    """

    success_prob: float
    cross: np.ndarray
    rest_factor: np.ndarray


@dataclass(frozen=True)
class PhasePair:
    """The two unit-modulus phases of one amplification step."""

    phi: complex
    varphi: complex

    def __post_init__(self):
        for value in (self.phi, self.varphi):
            if abs(abs(complex(value)) - 1.0) > ATOL_NORM:
                raise ValueError(f"phase {value} is not unit modulus")


def block_decompose(attempt, success_proj: DiagonalOp, layout: RegisterLayout) -> BlockDecomposition:
    """Split ``attempt^-1 P attempt`` by the start slice and extract the blocks.

    P is a 0/1 diagonal, so ``attempt^-1 P attempt = K K^†`` for the d x r block
    ``K = attempt^†`` applied to the r basis columns P keeps; each block is one
    product of K's start-slice or complement rows (``rest`` stays as its factor,
    the complement rows), never a d x d attempt matrix.  K is
    :meth:`OpChain.on_basis`, so no factor is handed the kept basis columns:
    the first acts on its distinct target-side basis vectors only.
    Raises :class:`NotLambdaUniformError` when the top block is not a scalar
    matrix, i.e. when the circuit's success probability varies with the
    auxiliary input and the two-dimensional theory does not apply.
    """
    d, dim_w = layout.total_dim, layout.dim_of("W")
    kept = np.flatnonzero(success_proj.apply_to(layout, np.ones(d, dtype=complex)).real == 1)
    k = attempt.adjoint().on_basis(layout, kept)
    on_slice = np.arange(d) % (d // dim_w) == 0
    ks, kc = k[on_slice], k[~on_slice]
    top = ks @ ks.conj().T
    lam = float(np.trace(top).real) / dim_w
    deviation = float(np.linalg.norm(top - lam * np.eye(dim_w), ord=2))
    if deviation > ATOL_OP:
        raise NotLambdaUniformError(
            f"top block deviates from a scalar by {deviation:.3e}; "
            "the success probability depends on the auxiliary input"
        )
    return BlockDecomposition(success_prob=lam, cross=kc @ ks.conj().T, rest_factor=kc)


def _panels(size: int) -> list[slice]:
    return [slice(start, start + RESIDUAL_PANEL) for start in range(0, size, RESIDUAL_PANEL)]


def _panel_gram(kc: np.ndarray) -> np.ndarray:
    """``K^† K - I``, formed on and right of the diagonal by ``RESIDUAL_PANEL``-column panels.

    Panel ``cols`` forms ``K[:, cols]^† K[:, cols.start:]``, averages its diagonal block with
    that block's adjoint and mirrors the part right of it below it, so the result is exactly
    Hermitian; only the conjugate of one d_c x P column panel is held, never one of K.
    """
    gram = np.empty((kc.shape[1], kc.shape[1]), dtype=complex)
    for cols in _panels(kc.shape[1]):
        gram[cols, cols.start :] = kc[:, cols].conj().T @ kc[:, cols.start :]
        block = gram[cols, cols]
        block[...] = (block + block.conj().T) / 2  # a product need not come out exactly Hermitian
        gram[cols.stop :, cols] = gram[cols, cols.stop :].conj().T
    gram[np.diag_indices_from(gram)] -= 1
    return gram


def _conjugate_gradients(c: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Conjugate gradients on ``c a = b``, c Hermitian: ``a`` and the most steps a column took.

    Hestenes and Stiefel (1952), by columns of b.  A column stops at relative residual 1e-15,
    after r steps or where ``p^† c p <= 0``, so a singular or indefinite c may leave no solution.
    """
    a, most = np.zeros_like(b), 0
    for x, res in zip(a.T, b.T.copy()):
        p, rho, steps = res.copy(), np.vdot(res, res).real, 0
        floor = 1e-30 * rho
        while steps < len(c) and rho > floor:
            q = c @ p
            curvature = np.vdot(p, q).real
            if curvature <= 0:
                break
            x += rho / curvature * p
            res -= rho / curvature * q
            rho, previous, steps = np.vdot(res, res).real, rho, steps + 1
            p = res + rho / previous * p
        most = max(most, steps)
    return a, most


def verify_block_identities(b: BlockDecomposition) -> tuple[float, float, float]:
    """Frobenius norms of the three residuals that idempotence of ``attempt^-1 P attempt`` forces.

    The identities are ``lam^2 - lam + cross^† cross = 0``,
    ``(lam - 1) cross + rest cross = 0`` and ``cross cross^† + rest^2 - rest = 0``.
    A Frobenius norm bounds the spectral norm from above, so each value
    certifies its identity at least as strictly as the operator norm would.
    ``rest = K K^†`` enters through its factor only, ``rest cross = K (K^† cross)``.  The third
    residual ``cross cross^† + K (C - I) K^†``, with ``C = K^† K`` the exactly Hermitian
    :func:`_panel_gram` plus I, is certified on an r x r core.  Split ``cross = K a + e``, with
    ``a`` from :func:`_conjugate_gradients` on ``C a = K^† cross``, ``f = K^† e`` and
    ``E = e^† e``.  For any ``a`` the residual is ``[K e] M [K e]^†`` with
    ``M = [[N, a], [a^†, I]]`` and ``N = C - I + a a^†``, so its squared norm is ``tr(X^2)`` for
    ``X = M [K e]^† [K e]``: ``X11 = N C + a f^†``, ``X12 = N f + a E``,
    ``X21 = a^† C + f^†`` and ``X22 = a^† f + E``.  ``X11 = (C C - C) + a X21`` is formed in
    ``RESIDUAL_PANEL``-row panels on and right of its diagonal only: ``C C - C`` is Hermitian, so
    ``X11[q, p] = (C C - C)[p, q]^† + a[q] X21[:, p]``, and ``tr(X11^2)`` takes each diagonal
    block once and each block right of it twice.  Each term is a ``vdot`` of entries whose O(1)
    parts cancel entry by entry; only ``X21`` is O(1), and it multiplies only the
    residual-sized ``X12``.  No d_c x d_c panel, d_c x r product or conjugate of K is held, and
    nothing is factorized.
    """
    lam, cross, kc = b.success_prob, b.cross, b.rest_factor
    r1 = (lam**2 - lam) * np.eye(cross.shape[1]) + cross.conj().T @ cross
    kc_cross = (cross.conj().T @ kc).conj().T
    r2 = (lam - 1) * cross + kc @ kc_cross
    c = _panel_gram(kc)
    c[np.diag_indices_from(c)] += 1
    a = _conjugate_gradients(c, kc_cross)[0]
    e = cross - kc @ a
    f = (e.conj().T @ kc).conj().T
    x22 = a.conj().T @ f + e.conj().T @ e
    x21 = (c @ a + f).conj().T
    x12 = c @ f - f + a @ x22
    r3_sq = 2 * np.trace(x21 @ x12).real + np.trace(x22 @ x22).real
    for p in _panels(len(c)):
        right = slice(p.start, None)
        rows = c[p] @ c[:, right] - c[p, right]  # C C - C on and right of its diagonal, rows p
        cols = rows + x21[:, p].conj().T @ a[right].conj().T  # X11^† there: C C - C is Hermitian
        rows += a[p] @ x21[:, right]
        h = len(rows)  # tr(X11^2) takes the diagonal block once and the blocks right of it twice
        r3_sq += np.vdot(cols[:, :h], rows[:, :h]).real + 2 * np.vdot(cols[:, h:], rows[:, h:]).real
    return float(np.linalg.norm(r1)), float(np.linalg.norm(r2)), float(np.sqrt(r3_sq))


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


def analytic_k(lam: float) -> int:
    """Fewest steps of exact amplification, ``max(1, ceil(pi / (4 asin(sqrt(lam))) - 1/2))``.

    Brassard, Hoyer, Mosca and Tapp (2002): k - 1 plain steps and one phased
    step reach the success axis exactly iff ``(2k + 1) asin(sqrt(lam)) >= pi / 2``,
    that is iff lam is at least :func:`feasibility_boundary` of k.
    """
    return max(1, math.ceil(math.pi / (4 * math.asin(math.sqrt(lam))) - 0.5))


def feasibility_boundary(k: int) -> float:
    """Smallest lam that k steps amplify exactly, ``sin^2(pi / (2 (2k + 1)))``; 1 at k = 0."""
    return math.sin(math.pi / (2 * (2 * k + 1))) ** 2


def _plain_grover_states(lam: float) -> Iterator[np.ndarray]:
    """The (succ, fail) state before step k = 1, 2, ...: the start after k - 1 plain steps."""
    grover = subspace_matrix(lam, PhasePair(-1.0, -1.0))
    state = _initial_two_dim(lam)
    while True:
        yield state
        state = grover @ state


def _state_before(lam: float, k: int) -> np.ndarray:
    if k < 1:
        raise ValueError(f"step count must be >= 1, got {k}")
    return next(itertools.islice(_plain_grover_states(lam), k - 1, None))


def _fail_after(lam: float, state: np.ndarray, phases: PhasePair) -> float:
    """Failure amplitude one step at ``phases`` leaves from ``state``."""
    return float(abs((subspace_matrix(lam, phases) @ state)[1]))


def closing_phases(lam: float, state: np.ndarray) -> PhasePair:
    """Phases making one step from the real ``state`` land on the success axis, in closed form.

    With ``(s, c) = state`` the failure amplitude of the phased step is
    ``varphi x + y`` with ``x = -root (1 - phi) s`` and
    ``y = (lam + (1 - lam) phi) c``.  Equal magnitudes ``|x| = |y|`` are linear
    in cos(alpha) for ``phi = exp(i alpha)``; in half-angle form
    ``sin(alpha / 2) = |c| / (2 root)``, which stays well conditioned where
    alpha is small.  The second phase then points ``varphi x`` against ``y``.
    Past the boundary (the k-too-small regime) the sine is clipped to 1, and
    the certificate on the final failure amplitude decides.
    """
    s, c = float(state[0].real), float(state[1].real)
    root = np.sqrt(lam * (1 - lam))
    phi = np.exp(2j * np.arcsin(min(1.0, abs(c) / (2 * root))))
    x = -root * (1 - phi) * s
    y = (lam + (1 - lam) * phi) * c
    # The unit phase of -y/x, taken without dividing: x vanishes when s or c
    # is exactly zero, and either sign then serves.
    return PhasePair(phi, np.exp(1j * np.angle(-y * np.conj(x))))


def final_fail_amplitude(lam: float, k: int, phases: PhasePair) -> float:
    """Failure amplitude after k-1 plain Grover steps and one phased step."""
    return _fail_after(lam, _state_before(lam, k), phases)


def solve_phases(lam: float, k: int) -> PhasePair | None:
    """The :func:`closing_phases` of step k if they leave at most ``ATOL_OP``, else None."""
    state = _state_before(lam, k)
    pair = closing_phases(lam, state)
    return pair if _fail_after(lam, state, pair) <= ATOL_OP else None


def smallest_feasible_k(lam: float, k_max: int = 64) -> tuple[int, PhasePair, float] | None:
    """First step count the certificate accepts, with its phases and final failure amplitude.

    One pass: the plain-Grover state is carried from k to k + 1, so a search
    that stops at k costs about 2k 2x2 steps.
    """
    for k, state in zip(range(1, k_max + 1), _plain_grover_states(lam)):
        pair = closing_phases(lam, state)
        residual = _fail_after(lam, state, pair)
        if residual <= ATOL_OP:
            return k, pair, residual
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
