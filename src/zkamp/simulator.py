"""Coherent round simulator and its single-step exact amplification.

The simulator never rewinds.  One unitary ``attempt`` prepares, in
superposition over a guessed challenge (register B) and a guessed relabeling
(register Z), exactly what the verifier would see in a real round, then runs
the verifier's unitary.  The guess is correct when A agrees with B, which is
the image of ``success_proj``; that event has probability 1/2 regardless of
the auxiliary input, and a single phase-i amplification step rotates the
attempt output onto the success subspace with certainty.  Measuring B and Z
afterwards, read off the amplified state's (B, Z) branch columns, and
recording the implied sent graph reproduces the real verifier view exactly.

The amplified state is the step in closed form.  The start phase is
``I + (phi - 1) Pi_0``, with Pi_0 onto the dim_w start states, so
``attempt S_0(phi) attempt^-1 = I + (phi - 1) cols cols^†`` for the attempt
images ``cols`` of those states (Brassard, Hoyer, Mosca and Tapp 2002).  The
splits and the writer put a start state on g0's orbit codes alone, so cols is
the verifier's :class:`~zkamp.protocol.StartBlock` weighted by the branch
coefficients (:class:`StartImages`), and the attempt output, the step and the
real view read the verifier through one application of it, to the
s = dim_w * |orbit| start columns.

Everything the derivation claims is exposed as a numeric check on the
operator chain itself: the half-probability block identity, the one-step
amplification identity that the closed form rests on (in both operator
orders, since only one of them is correct) together with its block-form
substitution chain and six-step norm computation, and the measure-then-reflect
variant that trades the phase trick for one extra measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .protocol import (
    Instance,
    RecordedView,
    StartBlock,
    VerifierModel,
    accept,
    branch_view,
    check_aux,
    start_block,
    view_layout,
)
from .registers import (
    ATOL_NORM,
    HADAMARD,
    NORM_SLACK,
    ZERO_NORM_SQ,
    DiagonalOp,
    LinearOp,
    OpChain,
    PermutationOp,
    RegisterLayout,
    StateVector,
)
from .symm import Graph, Permutation, act, compose, encode, num_graph_codes


def sim_layout(dims: tuple[int, int], n: int) -> RegisterLayout:
    """Simulator registers: the verifier's four plus guess B and relabeling Z."""
    return view_layout(dims, n).extend([("B", 2), ("Z", math.factorial(n))])


# The unitary completions of the uniform superposition; the first is the default.
COMPLETIONS = ("householder", "dft")


def uniform_superposition_unitary(dim: int, completion: str = COMPLETIONS[0]) -> np.ndarray:
    """A unitary whose first column is the uniform superposition.

    Only the action on the zero basis state matters downstream; the two
    completions exist to demonstrate exactly that.
    """
    if completion == "householder":
        u = np.full(dim, 1 / np.sqrt(dim))
        v = -u.copy()
        v[0] += 1.0
        vv = float(v @ v)
        if vv < ZERO_NORM_SQ:
            return np.eye(dim, dtype=complex)
        return np.eye(dim, dtype=complex) - (2.0 / vv) * np.outer(v, v)
    if completion == "dft":
        j = np.arange(dim)
        return np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)
    raise ValueError(f"unknown completion {completion!r}; use {' or '.join(map(repr, COMPLETIONS))}")


@dataclass(frozen=True)
class SimulatorCircuit:
    """An attempt unitary with its success projector over a fixed layout.

    ``inst`` and ``ver`` are carried for the protocol circuit; abstract
    circuits (for the general success-probability theory) leave them None.
    """

    layout: RegisterLayout
    attempt: OpChain
    success_proj: DiagonalOp
    inst: Instance | None = None
    ver: VerifierModel | None = None

    @property
    def dim_w(self) -> int:
        return self.layout.dim_of("W")

    def initial_amps(self, aux: StateVector) -> np.ndarray:
        """Raw amplitudes of the auxiliary input next to all-zero work registers."""
        check_aux(self.dim_w, aux)
        rest = np.zeros(self.layout.total_dim // self.dim_w, dtype=complex)
        rest[0] = 1.0
        return np.kron(aux.amps, rest)


def success_projector(layout: RegisterLayout) -> DiagonalOp:
    """Projector onto agreement of the challenge register A with the guess B."""
    dim_a = layout.dim_of("A")
    dim_b = layout.dim_of("B")
    if dim_a != dim_b:
        raise ValueError(f"A and B must have equal dims, got {dim_a} and {dim_b}")
    return DiagonalOp(layout, ("A", "B"), np.eye(dim_a).reshape(-1), kind="projector")


def phase_on_start(layout: RegisterLayout, phi: complex) -> DiagonalOp:
    """Multiply by phi the slice where every non-W register is zero."""
    targets = tuple(name for name in layout.names if name != "W")
    diag = np.ones(math.prod(layout.dim_of(name) for name in targets), dtype=complex)
    diag[0] = phi
    return DiagonalOp(layout, targets, diag)


def phase_on_success(success_proj: DiagonalOp, varphi: complex) -> DiagonalOp:
    """(varphi - 1) P + I on the success projector's registers."""
    return DiagonalOp(
        success_proj.layout, success_proj.targets, (varphi - 1) * success_proj.phases + 1
    )


def build_circuit(
    inst: Instance, ver: VerifierModel, completion: str = COMPLETIONS[0]
) -> SimulatorCircuit:
    """Assemble the protocol circuit for a yes-instance.

    The attempt factors as: split B and Z into uniform superpositions, write
    the relabeled guessed graph into Y by bitwise XOR on its code, then run
    the verifier unitary.  Y starts at the empty-graph code, so on the
    all-zero input the write is plain assignment.
    """
    n = inst.n
    layout = sim_layout(ver.dims, n)
    n_fact = layout.dim_of("Z")
    dim_y = num_graph_codes(n)

    split_b = LinearOp(layout, ("B",), HADAMARD)
    split_z = LinearOp(layout, ("Z",), uniform_superposition_unitary(n_fact, completion))

    y_idx = np.arange(dim_y)[:, None, None]
    b_idx = np.arange(2)[None, :, None]
    z_idx = np.arange(n_fact)[None, None, :]
    image = ((y_idx ^ inst.codes[b_idx, z_idx]) * 2 + b_idx) * n_fact + z_idx
    writer = PermutationOp(layout, ("Y", "B", "Z"), image.reshape(-1))

    attempt = OpChain((split_b, split_z, writer, ver.u_v))
    return SimulatorCircuit(
        layout=layout,
        attempt=attempt,
        success_proj=success_projector(layout),
        inst=inst,
        ver=ver,
    )


def grover_step(circ: SimulatorCircuit, phi: complex, varphi: complex) -> OpChain:
    """One amplification step: success phase, undo attempt, start phase, redo attempt."""
    return OpChain(
        (
            phase_on_success(circ.success_proj, varphi),
            circ.attempt.adjoint(),
            phase_on_start(circ.layout, phi),
            circ.attempt,
        )
    )


def attempt_output(circ: SimulatorCircuit, aux: StateVector) -> np.ndarray:
    return circ.attempt.apply_to(circ.layout, circ.initial_amps(aux))


def success_block_residual(circ: SimulatorCircuit) -> float:
    """Spectral-norm distance of the start-slice block of attempt^-1 P attempt from I/2.

    The block is ``cols^† P cols`` for the attempt images ``cols`` of the
    start slice, one matrix product.  It is the operator the auxiliary input
    sees, so a residual at floating-point scale certifies that the success
    probability is 1/2 for every auxiliary state, entangled or not.
    """
    layout = circ.layout
    dim_w = circ.dim_w
    starts = np.zeros((layout.total_dim, dim_w), dtype=complex)
    starts[np.arange(dim_w) * (layout.total_dim // dim_w), np.arange(dim_w)] = 1.0
    cols = circ.attempt.apply_to(layout, starts)
    block = cols.conj().T @ circ.success_proj.apply_to(layout, cols)
    return float(np.linalg.norm(block - np.eye(dim_w) / 2, ord=2))


@dataclass(frozen=True)
class AmplificationCheck:
    """Residuals of the one-step amplification identity at phase i, with its two derivations.

    ``derivation`` holds the residual of each intermediate vector of the
    block-form derivation against its prediction; its last entry is
    ``residual`` itself.  ``norm_chain`` holds the seven values of the
    six-equality computation of the success probability 1/2, which must agree
    consecutively.
    """

    residual: float
    success_prob: float
    swapped_order_residual: float
    derivation: dict[str, float]
    norm_chain: tuple[float, ...]


def amplification_check(circ: SimulatorCircuit, aux: StateVector) -> AmplificationCheck:
    """Compare the phase-i :func:`grover_step` output against (i-1) times the projected attempt.

    The step's four factors are applied one at a time, and each vector they
    pass through is checked against the block-form derivation, in the split
    "W times start slice" versus its complement, where ``attempt^-1 P
    attempt`` has top block I/2.  With ``c = attempt^-1 P attempt |start>``:
    after the success phase and the undone attempt, the start slice is
    ``(1+i)/2 aux`` and the rest is ``(i-1) c``; after the start phase the
    whole vector is ``(i-1) c``; after the redone attempt it is ``(i-1) P s1``,
    the identity itself.

    The identity holds with the start phase applied between the two attempt
    halves and the success phase applied first, the order the step runs; the
    swapped order is evaluated as well and its distance from the stepped state
    reported, because the two orders give visibly different states.
    """
    if circ.inst is None or circ.ver is None:
        raise ValueError("the amplification check needs a protocol circuit")
    layout = circ.layout
    s1 = attempt_output(circ, aux)
    projected = circ.success_proj.apply_to(layout, s1)
    target = (1j - 1) * projected

    step = grover_step(circ, 1j, 1j)
    sp, adj, s0, attempt = step.factors
    undone = adj.apply_to(layout, sp.apply_to(layout, s1))
    phased = s0.apply_to(layout, undone)
    stepped = attempt.apply_to(layout, phased)
    residual = float(np.linalg.norm(stepped - target))

    predicted = (1j - 1) * adj.apply_to(layout, projected)  # (i-1) c
    start_slice = undone.reshape(circ.dim_w, -1)[:, 0]
    off_start = (undone - predicted).reshape(circ.dim_w, -1)[:, 1:]
    derivation = {
        "start_slice_coefficient": float(np.linalg.norm(start_slice - ((1j + 1) / 2) * aux.amps)),
        "complement_coefficient": float(np.linalg.norm(off_start)),
        "collapses_to_conjugated_projector": float(np.linalg.norm(phased - predicted)),
        "equals_projected_attempt": residual,
    }

    norm = float(np.linalg.norm(stepped))
    success_prob = float(np.linalg.norm(circ.success_proj.apply_to(layout, stepped / norm)) ** 2)

    swapped = OpChain((s0, adj, sp, attempt)).apply_to(layout, s1)
    swapped_residual = float(np.linalg.norm(swapped - stepped))
    return AmplificationCheck(
        residual, success_prob, swapped_residual, derivation, _norm_chain(circ, aux, projected)
    )


def _norm_chain(circ: SimulatorCircuit, aux: StateVector, projected: np.ndarray) -> tuple[float, ...]:
    """The six-equality computation of the success probability, one value per line.

    Line by line: the norm of the projected attempt output ``projected``;
    the attempt's branches ``U_V |aux, 0, 0, pi(g_b)>`` with the projector in
    its (A, B) form; the challenge projector collapsed onto the guess b;
    branch orthogonality turning the norm of a sum into a sum of norms; the
    witness substitution of ``pi(g_b)`` by ``(pi tau^b)(g0)``; the change of
    variables dropping ``tau^b``; and the completeness sum ``n!/(2 n!)``.  The
    three code tables all lie in g0's orbit, so the verifier runs once, as
    the :class:`~zkamp.protocol.StartBlock` of that orbit, and each line reads
    its branches through its own table; only the witness substitution
    relabels g0 itself, by each ``pi tau^b``.
    """
    inst = circ.inst
    n = inst.n
    n_fact = len(inst.perms)
    scale = 1.0 / (2 * n_fact)
    tau_pow = (Permutation.identity(n), inst.tau)
    tables = np.array(
        [
            inst.codes,
            [[encode(act(compose(pi, t), inst.g0)) for pi in inst.perms] for t in tau_pow],
            inst.codes[[0, 0]],
        ]
    )
    block = start_block(circ.ver, n, inst.codes[0])
    guessed, substituted, plain = block.columns(tables)

    view = view_layout(circ.ver.dims, n)
    outs = block.times(aux.amps).reshape(*view.dims, block.codes.size)
    by_challenge = np.moveaxis(outs, view.axis("A"), 0).reshape(2, -1, block.codes.size)
    branches = by_challenge[:, :, guessed]  # (challenge a, rest, guess b, relabeling z)
    collapsed = np.einsum("brbz->brz", branches)
    slice_sq = np.sum(np.abs(by_challenge) ** 2, axis=1)  # (challenge a, code)
    guess = np.arange(2)[:, None]
    return (
        float(np.linalg.norm(projected) ** 2),
        scale * float(np.linalg.norm(branches * np.eye(2)[:, None, :, None]) ** 2),
        scale * float(np.linalg.norm(collapsed) ** 2),
        scale * float(np.sum(np.linalg.norm(collapsed, axis=1) ** 2)),
        scale * float(np.sum(slice_sq[guess, substituted])),
        scale * float(np.sum(slice_sq[guess, plain])),
        n_fact / (2 * n_fact),
    )


class StartImages(NamedTuple):
    """The attempt images ``cols[:, w] = attempt |w, 0, ..., 0>`` of the start states, unformed.

    The B split, the Z split and the writer take a start state to
    ``|w, V=0, A=0> (x) sum_j c_j |Y=code_j, branch j>`` over the (B, Z)
    branches j, so column j of ``cols[:, w]``, as (W,V,A,Y side, branch)
    columns, is ``c_j`` times ``block.outputs[:, w]`` at the column of
    ``code_j``.  ``spread`` holds each ``c_j`` at that column's row, so
    ``cols x = (U_start x) spread``.  Neither cols, d x dim_w, nor any other
    column of ``U_V`` is formed.  A named tuple, as :class:`StartBlock` is.
    """

    block: StartBlock
    spread: np.ndarray

    def times(self, x: np.ndarray) -> np.ndarray:
        """``cols x`` for a W vector x, as (side, branch) columns."""
        return self.block.times(x) @ self.spread

    def adjoint_times(self, y: np.ndarray) -> np.ndarray:
        """``cols^† y`` for (side, branch) columns y: per code, the weighted sum of its branches."""
        per_code = y @ self.spread.conj().T
        return np.einsum("swm,sm->w", self.block.outputs, per_code.conj()).conj()


def start_images(circ: SimulatorCircuit, block: StartBlock | None = None) -> StartImages:
    """The :class:`StartImages` of a protocol circuit, on the start block of ``inst.codes[0]``.

    The coefficients are the circuit's own first three factors (B split, Z
    split and writer) on the zero state of the (Y, B, Z) sub-layout, so no
    completion's first column is assumed; their output must be exactly zero
    off the codes ``inst.codes`` names.  ``block`` is
    :func:`~zkamp.protocol.start_block` of ``circ.ver`` on ``inst.codes[0]``;
    without one it is formed here.
    """
    if circ.inst is None or circ.ver is None:
        raise ValueError("the start images need a protocol circuit")
    inst = circ.inst
    block = start_block(circ.ver, inst.n, inst.codes[0]) if block is None else block
    sub = circ.layout.keep(("Y", "B", "Z"))
    zero = np.zeros(sub.total_dim, dtype=complex)
    zero[0] = 1.0
    written = OpChain(circ.attempt.factors[:3]).apply_to(sub, zero).reshape(sub.dims)
    branch = (inst.codes, *np.indices(inst.codes.shape))
    off_codes = written.copy()
    off_codes[branch] = 0.0
    if np.any(off_codes):
        raise AssertionError("the writer puts weight off the codes the instance sends")
    rows, columns = block.columns(inst.codes).reshape(-1), np.arange(inst.codes.size)
    spread = np.zeros((block.codes.size, columns.size), dtype=complex)
    spread[rows, columns] = written[branch].reshape(-1)
    return StartImages(block, spread)


def start_block_step(
    circ: SimulatorCircuit, images: StartImages, amps: np.ndarray, phi: complex, varphi: complex
) -> np.ndarray:
    """:func:`grover_step` ``(phi, varphi)`` on (side, branch) columns ``amps``, in closed form.

    The success phase acts by broadcasting over the (A, B) axes, and the rest
    of the step is ``I + (phi - 1) cols cols^†``: two side x s contractions
    with the start block, and no application of ``U_V``.
    """
    phased = phase_on_success(circ.success_proj, varphi).apply_to(circ.layout, amps.reshape(-1))
    phased = phased.reshape(amps.shape)
    phased += images.times((phi - 1) * images.adjoint_times(phased))
    return phased


def amplified_state(
    circ: SimulatorCircuit, aux: StateVector, block: StartBlock | None = None
) -> np.ndarray:
    """Raw unit amplitudes of the attempt output after one phase-i step, from the start block.

    The attempt output is ``cols aux`` and the step :func:`start_block_step`
    with phases (i, i), so ``U_V`` acts once, when the block is formed:
    ``block`` as in :func:`start_images`, formed here when None.  The result
    equals ``grover_step(circ, 1j, 1j)`` on :func:`attempt_output`, the
    identity ``verify-eq2`` certifies.
    """
    check_aux(circ.dim_w, aux)
    images = start_images(circ, block)
    s2 = start_block_step(circ, images, images.times(aux.amps), 1j, 1j).reshape(-1)
    norm = float(np.linalg.norm(s2))
    if abs(norm - 1.0) > NORM_SLACK:
        raise AssertionError(f"amplified state has norm {norm}")
    s2 /= norm
    return s2


def recorded_view(
    circ: SimulatorCircuit, amplified: np.ndarray, keep_z: bool = False
) -> RecordedView:
    """Simulated verifier view of an :func:`amplified_state`: each B,Z branch split by challenge.

    The B,Z measurement is replaced by its exact Born-weighted mixture
    (:func:`sample_round` samples it).  B and Z are the last registers, so
    column ``b n! + z`` of the state is branch (b, z), which sends
    ``inst.codes[b, z]`` and, when ``keep_z``, records the relabeling z as
    the response (:func:`branch_view`).
    """
    if circ.inst is None or circ.ver is None:
        raise ValueError("a recorded view needs a protocol circuit")
    inst = circ.inst
    codes = inst.codes.reshape(-1)
    branches = amplified.reshape(-1, codes.size)
    responses = np.arange(codes.size) % (codes.size // 2) if keep_z else None
    return branch_view(circ.ver.dims, inst.n, branches, codes, responses)


def simulate_round_recorded(
    circ: SimulatorCircuit, aux: StateVector, keep_z: bool = False
) -> RecordedView:
    """The :func:`recorded_view` of the amplified simulator on ``aux``."""
    return recorded_view(circ, amplified_state(circ, aux), keep_z)


@dataclass(frozen=True)
class SampledRound:
    """One sampled transcript of the amplified simulator."""

    guess: int
    challenge: int
    permutation: Permutation
    sent: Graph
    accepted: bool


def sample_round(
    circ: SimulatorCircuit, amplified: np.ndarray, rng: np.random.Generator
) -> SampledRound:
    """Measure B, Z, A of an :func:`amplified_state` and run the acceptance check.

    Measuring in turn is the chain rule on the Born table ``p(b, z, a)``: b is
    drawn from its marginal, z given b, then a given both.
    """
    if circ.inst is None:
        raise ValueError("sample_round needs a protocol circuit")
    axes = circ.layout.axes(("B", "Z", "A"))
    born = np.moveaxis(np.abs(amplified.reshape(circ.layout.dims)) ** 2, axes, (0, 1, 2))
    table = born.sum(axis=tuple(range(3, born.ndim)))

    def draw(p: np.ndarray) -> int:
        return int(rng.choice(len(p), p=p / p.sum()))

    b = draw(table.sum(axis=(1, 2)))
    z = draw(table[b].sum(axis=1))
    a = draw(table[b, z])
    pi = circ.inst.perms[z]
    sent = act(pi, circ.inst.graph_for_challenge(b))
    accepted = a == b and accept(sent, a, pi, circ.inst)
    return SampledRound(b, a, pi, sent, accepted)


def first_measurement(circ: SimulatorCircuit, aux: StateVector) -> tuple[float, np.ndarray, np.ndarray]:
    """Success probability of the attempt output and its normalized success and failure parts.

    Raises ValueError when the probability is within 1e-12 of 0 or 1, where
    one of the two parts has no direction.
    """
    s1 = attempt_output(circ, aux)
    succ_raw = circ.success_proj.apply_to(circ.layout, s1)
    fail = s1 - succ_raw
    prob = float(np.linalg.norm(succ_raw) ** 2)
    if prob < ATOL_NORM or prob > 1 - ATOL_NORM:
        raise ValueError(
            f"success probability {prob} is at the boundary; "
            "no two-dimensional subspace exists"
        )
    return prob, succ_raw / np.linalg.norm(succ_raw), fail / np.linalg.norm(fail)


def measure_then_reflect(
    circ: SimulatorCircuit, aux: StateVector
) -> tuple[float, np.ndarray, np.ndarray]:
    """The :func:`first_measurement` with its failure part reflected.

    The reflection ``attempt · S_0(-1) · attempt^-1``, about the attempt image
    of the start slice, is the :func:`grover_step` with phases (-1, 1), since
    a success phase of 1 is the identity.  Returns the success probability,
    the normalized success part and the reflected failure part, which equals
    the success part up to a global minus sign.
    """
    prob, succ, fail = first_measurement(circ, aux)
    return prob, succ, grover_step(circ, -1.0, 1.0).apply_to(circ.layout, fail)
