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
splits, and the writer XORing branch j's code into the zero Y, put a start
state on g0's orbit codes alone, so a (B, Z) branch is its weight and its
code: after any number of steps (:func:`coefficient_step`), branch j's A=a
part is ``M_a (u (x) e_{m_j})``, ``u = c_j aux`` before the first, for the
verifier's :class:`~zkamp.protocol.StartBlock`, which alone splits its s =
dim_w * |orbit| coefficients into (w, code).  ``zk-check`` keeps each A=a
part ``Q_a R_a beta`` as its s-row column ``R_a beta``, formed once after
the step (:func:`amplified_columns`), reads the view and the transcript's
Born table off them, and never applies the writer.

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

import numpy as np

from .protocol import (
    Instance,
    RecordedView,
    StartBlock,
    VerifierModel,
    accept,
    check_aux,
    columns_view,
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
    RegisterLayout,
    StateVector,
    XorOp,
)
from .symm import Graph, Permutation, act, lehmer_rank


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
    the verifier unitary.  The writer is that rule, an :class:`XorOp` that
    holds the 2 n! codes ``inst.codes[b, z]`` and no index table.  Y starts
    at the empty-graph code, so on the all-zero input the write is plain
    assignment.
    """
    n = inst.n
    layout = sim_layout(ver.dims, n)
    split_b = LinearOp(layout, ("B",), HADAMARD)
    split_z = LinearOp(layout, ("Z",), uniform_superposition_unitary(math.factorial(n), completion))
    writer = XorOp(layout, ("Y", "B", "Z"), inst.codes.reshape(-1))
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
    starts = np.arange(dim_w) * (layout.total_dim // dim_w)
    cols = circ.attempt.on_basis(layout, starts)
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
    its branches through its own table; only the witness substitution reads
    g0's codes at other rows (:func:`_witness_codes`).  Q_a is an isometry, so
    a branch's A=a part ``Q_a R_a (aux (x) e_m)`` is read as its ``R_a`` column.
    """
    inst = circ.inst
    n_fact = len(inst.perms)
    scale = 1.0 / (2 * n_fact)
    tables = np.array([inst.codes, _witness_codes(inst), inst.codes[[0, 0]]])
    block = start_block(circ.ver, inst.n, inst.codes[0])
    guessed, substituted, plain = block.columns(tables)
    by_challenge = block.code_columns(aux.amps[:, None], range(block.codes.size))  # (a, s, code)
    branches = by_challenge[:, :, guessed]  # (challenge a, s, guess b, relabeling z)
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


def _witness_codes(inst: Instance) -> np.ndarray:
    """``[b, z]`` is ``encode(act(pi tau^b, g0))`` for pi = ``perms[z]``: g0's code at row ``pi tau^b``."""
    relabelings = np.stack([inst.perms, inst.perms[:, list(inst.tau.mapping)]])
    return inst.codes[0][lehmer_rank(relabelings)]


def branch_weights(circ: SimulatorCircuit, block: StartBlock) -> tuple[np.ndarray, np.ndarray]:
    """Each (B, Z) branch's weight ``c_j`` and the row ``m_j`` of its code in ``block.codes``.

    The splits and the writer take a start state to ``|w, 0, 0> (x) sum_j c_j
    |Y=code_j, branch j>`` over the branches j = b n! + z, so branch j of the
    attempt output is ``c_j U_start (aux (x) e_{m_j})``.  The c_j are the
    circuit's own two splits on the zero state of the (B, Z) sub-layout, so
    no completion's first column is assumed; the writer, which XORs its code
    for branch j into Y, must hold the instance's ``code_j`` exactly.
    """
    if circ.inst is None:
        raise ValueError("the branch weights need a protocol circuit")
    codes, sub = circ.inst.codes.reshape(-1), circ.layout.keep(("B", "Z"))
    zero = np.eye(1, sub.total_dim, dtype=complex)[0]
    weights = OpChain(circ.attempt.factors[:2]).apply_to(sub, zero)
    if not np.array_equal(circ.attempt.factors[2].codes, codes):
        raise AssertionError("the writer puts weight off the codes the instance sends")
    return weights, block.columns(codes)


def coefficient_step(
    circ: SimulatorCircuit, block: StartBlock, weights, rows, u, phi: complex, varphi: complex
) -> np.ndarray:
    """:func:`grover_step` ``(phi, varphi)`` on W coefficients ``u``, shape (2, dim_w, 2 n!).

    Branch j's A=a part is ``M_a (u[a, :, j] (x) e_{m_j})``.  The success phase scales it by
    ``phi_{a, b_j}``, then ``I + (phi - 1) cols cols^†`` acts, ``cols y = sum_j c_j U_start (y
    (x) e_{m_j})``.  As ``M_a^† M_a = R_a^† R_a``, ``cols^†`` of the phased branches is ``xi =
    sum_j conj(c_j) sum_a K[a, m_j] u[a, :, j]``, for the block's ``code_grams`` K, and branch j
    gains ``(phi - 1) c_j xi``.  Any ``u`` that broadcasts to that shape is taken; a success phase
    ``varphi`` off the unit circle is refused.
    """
    if abs(abs(varphi) - 1.0) > ATOL_NORM:
        raise ValueError(f"success phase {varphi} is not unit modulus")
    dims = [circ.layout.dim_of(name) for name in circ.success_proj.targets]  # (A, B)
    table = ((varphi - 1) * circ.success_proj.phases + 1).reshape(dims)
    guess = np.arange(weights.size) // (weights.size // dims[1])
    u = table[:, None, guess] * u
    xi = np.einsum("ajwv,avj->w", block.code_grams()[:, rows], u * weights.conj())
    return u + (phi - 1) * np.multiply.outer(xi, weights)


def amplified_columns(circ: SimulatorCircuit, aux: StateVector, block: StartBlock) -> np.ndarray:
    """Factor columns of the attempt output on ``aux`` after one phase-i :func:`coefficient_step`.

    ``U_V`` acts once, when ``block``, the start block of ``inst.codes[0]``, is
    formed, and each branch is its weight and its code (:func:`branch_weights`), so
    the attempt output is ``aux (x) c``.  The state is ``grover_step(circ, 1j, 1j)``
    on :func:`attempt_output`, the identity ``verify-eq2`` certifies.
    """
    check_aux(circ.dim_w, aux)
    weights, rows = branch_weights(circ, block)
    u = coefficient_step(circ, block, weights, rows, np.outer(aux.amps, weights), 1j, 1j)
    columns = block.code_columns(u, rows)
    norm = float(np.linalg.norm(columns))
    if abs(norm - 1.0) > NORM_SLACK:
        raise AssertionError(f"amplified state has norm {norm}")
    return columns / norm


def recorded_view(
    circ: SimulatorCircuit, block: StartBlock, amplified: np.ndarray, keep_z: bool = False
) -> RecordedView:
    """Simulated verifier view of :func:`amplified_columns` on ``block``, split by challenge.

    The B,Z measurement is replaced by its exact Born-weighted mixture
    (:func:`sample_round` samples it).  Branch ``b n! + z`` sends
    ``inst.codes[b, z]`` and, when ``keep_z``, records z as the response.
    """
    if circ.inst is None:
        raise ValueError("a recorded view needs a protocol circuit")
    inst = circ.inst
    codes = inst.codes.reshape(-1)
    responses = np.arange(codes.size) % (codes.size // 2) if keep_z else None
    return columns_view(block, inst.n, amplified, codes, responses)


def simulate_round_recorded(
    circ: SimulatorCircuit, aux: StateVector, keep_z: bool = False
) -> RecordedView:
    """The :func:`recorded_view` of the amplified simulator on ``aux``, on its own start block."""
    block = start_block(circ.ver, circ.inst.n, circ.inst.codes[0])
    return recorded_view(circ, block, amplified_columns(circ, aux, block), keep_z)


@dataclass(frozen=True)
class SampledRound:
    """One sampled transcript of the amplified simulator."""

    guess: int
    challenge: int
    permutation: Permutation
    sent: Graph
    accepted: bool


def sample_round(
    circ: SimulatorCircuit, columns: np.ndarray, rng: np.random.Generator
) -> SampledRound:
    """Measure B, Z, A of :func:`amplified_columns` and run the acceptance check.

    The Born table ``p(b, z, a)`` is the squared norm of branch ``b n! + z``'s
    A=a column.  Measuring in turn is its chain rule: b is drawn from its
    marginal, z given b, then a given both.
    """
    if circ.inst is None:
        raise ValueError("sample_round needs a protocol circuit")
    born = np.sum(np.abs(columns) ** 2, axis=1).reshape(2, 2, -1).transpose(1, 2, 0)

    def draw(p: np.ndarray) -> int:
        return int(rng.choice(len(p), p=p / p.sum()))

    b = draw(born.sum(axis=(1, 2)))
    z = draw(born[b].sum(axis=1))
    a = draw(born[b, z])
    pi = Permutation(circ.inst.n, tuple(circ.inst.perms[z].tolist()))
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
