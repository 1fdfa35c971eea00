"""Coherent round simulator and its single-step exact amplification.

The simulator never rewinds.  One unitary ``attempt`` prepares, in
superposition over a guessed challenge (register B) and a guessed relabeling
(register Z), exactly what the verifier would see in a real round, then runs
the verifier's unitary.  The guess is correct when A agrees with B, which is
the image of ``success_proj``; that event has probability 1/2 regardless of
the auxiliary input, and a single phase-i amplification step rotates the
attempt output onto the success subspace with certainty.  Measuring B and Z
afterwards and recording the implied sent graph reproduces the real
verifier view exactly.

Everything the derivation claims is exposed as a numeric check: the
half-probability block identity, the one-step amplification identity (in
both operator orders, since only one of them is correct), the six-step norm
computation, the block-form substitution chain, and the measure-then-reflect
variant that trades the phase trick for one extra measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import (
    Instance,
    RecordedView,
    VerifierModel,
    accept,
    challenge_columns,
    check_aux,
    verifier_outputs,
    view_layout,
    view_records,
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
    measure,
)
from .symm import (
    Graph,
    Permutation,
    act,
    compose,
    encode,
    enumerate_sn,
    num_graph_codes,
)


def sim_layout(dims: tuple[int, int], n: int) -> RegisterLayout:
    """Simulator registers: the verifier's four plus guess B and relabeling Z."""
    return view_layout(dims, n).extend([("B", 2), ("Z", len(enumerate_sn(n)))])


def uniform_superposition_unitary(dim: int, completion: str = "householder") -> np.ndarray:
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
    raise ValueError(f"unknown completion {completion!r}; use 'householder' or 'dft'")


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
    inst: Instance, ver: VerifierModel, completion: str = "householder"
) -> SimulatorCircuit:
    """Assemble the protocol circuit for a yes-instance.

    The attempt factors as: split B and Z into uniform superpositions, write
    the relabeled guessed graph into Y by bitwise XOR on its code, then run
    the verifier unitary.  Y starts at the empty-graph code, so on the
    all-zero input the write is plain assignment.
    """
    n = inst.n
    layout = sim_layout(ver.dims, n)
    perms = enumerate_sn(n)
    n_fact = len(perms)
    dim_y = num_graph_codes(n)

    split_b = LinearOp(layout, ("B",), HADAMARD)
    split_z = LinearOp(layout, ("Z",), uniform_superposition_unitary(n_fact, completion))

    codes = np.empty((2, n_fact), dtype=np.int64)
    for b, graph in enumerate((inst.g0, inst.g1)):
        for z, pi in enumerate(perms):
            codes[b, z] = encode(act(pi, graph))
    y_idx = np.arange(dim_y)[:, None, None]
    b_idx = np.arange(2)[None, :, None]
    z_idx = np.arange(n_fact)[None, None, :]
    image = ((y_idx ^ codes[b_idx, z_idx]) * 2 + b_idx) * n_fact + z_idx
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
    """Distance of the start-slice block of attempt^-1 P attempt from I/2.

    The block is the operator the auxiliary input sees, so a residual at
    floating-point scale certifies that the success probability is 1/2 for
    every auxiliary state, entangled or not.
    """
    layout = circ.layout
    dim_w = circ.dim_w
    starts = np.zeros((layout.total_dim, dim_w), dtype=complex)
    starts[np.arange(dim_w) * (layout.total_dim // dim_w), np.arange(dim_w)] = 1.0
    cols = circ.attempt.apply_to(layout, starts)
    projected = circ.success_proj.apply_to(layout, cols)
    # vdot over contiguous copies of the columns sums in the order a single
    # vector would, so the reported residual stays bit for bit the same.
    cols, projected = cols.T.copy(), projected.T.copy()
    block = np.array([[np.vdot(c, p) for p in projected] for c in cols])
    return float(np.linalg.norm(block - np.eye(dim_w) / 2, ord=2))


@dataclass(frozen=True)
class AmplificationCheck:
    """Residuals of the one-step amplification identity at phase i."""

    residual: float
    success_prob: float
    swapped_order_residual: float


def amplification_check(circ: SimulatorCircuit, aux: StateVector) -> AmplificationCheck:
    """Compare the phase-i :func:`grover_step` output against (i-1) times the projected attempt.

    The identity holds with the start phase applied between the two attempt
    halves and the success phase applied first, the order the step runs; the
    swapped order is evaluated as well and its residual reported, because the
    two orders give visibly different states.
    """
    layout = circ.layout
    s1 = attempt_output(circ, aux)
    target = (1j - 1) * circ.success_proj.apply_to(layout, s1)

    step = grover_step(circ, 1j, 1j)
    stepped = step.apply_to(layout, s1)
    residual = float(np.linalg.norm(stepped - target))

    norm = float(np.linalg.norm(stepped))
    projected = circ.success_proj.apply_to(layout, stepped / norm)
    success_prob = float(np.linalg.norm(projected) ** 2)

    sp, adj, s0, attempt = step.factors
    swapped = OpChain((s0, adj, sp, attempt)).apply_to(layout, s1)
    swapped_residual = float(np.linalg.norm(swapped - target))
    return AmplificationCheck(residual, success_prob, swapped_residual)


def amplified_state(circ: SimulatorCircuit, aux: StateVector) -> np.ndarray:
    """Raw unit amplitudes of the attempt output after one phase-i :func:`grover_step`."""
    s1 = attempt_output(circ, aux)
    s2 = grover_step(circ, 1j, 1j).apply_to(circ.layout, s1)
    norm = float(np.linalg.norm(s2))
    if abs(norm - 1.0) > NORM_SLACK:
        raise AssertionError(f"amplified state has norm {norm}")
    return s2 / norm


def recorded_view(
    circ: SimulatorCircuit, amplified: np.ndarray, keep_z: bool = False
) -> RecordedView:
    """Simulated verifier view of an :func:`amplified_state`: split each B,Z branch by challenge.

    The B,Z measurement is replaced by the exact Born-weighted mixture, so
    the output is deterministic; :func:`sample_round` keeps the sampling
    behavior for demonstrations.  Per branch the challenge slices (the
    dephasing of A) become factor columns of the record value of the implied
    sent graph in Zp (and of the relabeling itself in Z when ``keep_z``).
    """
    if circ.inst is None or circ.ver is None:
        raise ValueError("a recorded view needs a protocol circuit")
    inst, ver = circ.inst, circ.ver
    n = inst.n
    perms = enumerate_sn(n)
    base_layout = view_layout(ver.dims, n)
    tensor = amplified.reshape(circ.layout.dims)

    pieces = []
    for b, graph in enumerate((inst.g0, inst.g1)):
        for z, pi in enumerate(perms):
            branch = tensor[..., b, z].reshape(-1)
            if float(np.vdot(branch, branch).real) < ZERO_NORM_SQ:
                continue
            code = encode(act(pi, graph))
            key = (z, code) if keep_z else (code,)
            pieces.append((key, challenge_columns(base_layout, branch)))
    return RecordedView.from_columns(base_layout, view_records(n, keep_z), pieces)


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
    state: StateVector


def sample_round(
    circ: SimulatorCircuit, amplified: np.ndarray, rng: np.random.Generator
) -> SampledRound:
    """Measure B, Z, A of an :func:`amplified_state` and run the acceptance check."""
    if circ.inst is None:
        raise ValueError("sample_round needs a protocol circuit")
    state = StateVector(circ.layout, amplified)
    b, _, state = measure(state, "B", rng)
    z, _, state = measure(state, "Z", rng)
    a, _, state = measure(state, "A", rng)
    pi = enumerate_sn(circ.inst.n)[z]
    sent = act(pi, circ.inst.graph_for_challenge(b))
    accepted = a == b and accept(sent, a, pi, circ.inst)
    return SampledRound(b, a, pi, sent, accepted, state)


def reflection(circ: SimulatorCircuit) -> OpChain:
    """attempt · S_0(-1) · attempt^-1: reflect about the attempt image of the start slice."""
    return OpChain((circ.attempt.adjoint(), phase_on_start(circ.layout, -1.0), circ.attempt))


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
    """The :func:`first_measurement` with its failure part passed through the :func:`reflection`.

    Returns the success probability, the normalized success part and the
    reflected failure part, which equals the success part up to a global
    minus sign.
    """
    prob, succ, fail = first_measurement(circ, aux)
    return prob, succ, reflection(circ).apply_to(circ.layout, fail)


# ---------------------------------------------------------------------------
# Step-by-step reproductions of the two derivations behind the identities
# ---------------------------------------------------------------------------

def _branch_inputs(circ: SimulatorCircuit, aux: StateVector, codes) -> list[list[np.ndarray]]:
    """Verifier outputs U_V |aux, 0, 0, code> for a (guess, relabeling) code table."""
    flat = [code for row in codes for code in row]
    outs = iter(verifier_outputs(circ.ver, circ.inst.n, aux, flat).T.copy())
    return [[next(outs) for _ in row] for row in codes]


def success_norm_chain(circ: SimulatorCircuit, aux: StateVector) -> list[float]:
    """The six-equality computation of the success probability, one value per line.

    Line by line: the projected attempt output; the same with the challenge
    projector collapsed onto the guess; branch orthogonality turning the
    norm of a sum into a sum of norms; the witness substitution replacing
    the guessed graph by a relabeling of the first graph; the relabeling
    change of variables; and the completeness sum, which is exactly 1/2.
    Consecutive values must agree to floating-point accuracy.
    """
    if circ.inst is None or circ.ver is None:
        raise ValueError("the norm chain needs a protocol circuit")
    inst = circ.inst
    n = inst.n
    perms = enumerate_sn(n)
    n_fact = len(perms)
    scale = 1.0 / (2 * n_fact)
    layout = circ.layout
    view = view_layout(circ.ver.dims, n)

    # Value 0: the direct norm of the projected attempt output.
    s1 = attempt_output(circ, aux)
    v0 = float(np.linalg.norm(circ.success_proj.apply_to(layout, s1)) ** 2)

    guessed = [[encode(act(pi, g)) for pi in perms] for g in (inst.g0, inst.g1)]
    branch = _branch_inputs(circ, aux, guessed)
    dim_view = view.total_dim

    def assemble(term) -> float:
        # Norm of sum over (b, z) of WVAY-vectors placed at branch (b, z).
        full = np.zeros((dim_view, 2, n_fact), dtype=complex)
        for b in (0, 1):
            for z in range(n_fact):
                full[:, b, z] = term(b, z)
        return scale * float(np.linalg.norm(full) ** 2)

    v1 = assemble(
        lambda b, z: sum(
            challenge_columns(view, branch[b][z])[:, a] for a in (0, 1) if a == b
        )
    )
    v2 = assemble(lambda b, z: challenge_columns(view, branch[b][z])[:, b])
    v3 = scale * sum(
        float(np.linalg.norm(challenge_columns(view, branch[b][z])[:, b]) ** 2)
        for b in (0, 1)
        for z in range(n_fact)
    )

    # Substitute the guessed graph by (pi tau^b)(g0), then drop tau^b.
    tau_pow = [Permutation.identity(n), inst.tau]
    substituted = [
        [encode(act(compose(pi, tau_pow[b]), inst.g0)) for pi in perms] for b in (0, 1)
    ]
    sub_branch = _branch_inputs(circ, aux, substituted)
    v4 = scale * sum(
        float(np.linalg.norm(challenge_columns(view, sub_branch[b][z])[:, b]) ** 2)
        for b in (0, 1)
        for z in range(n_fact)
    )

    plain = [[encode(act(pi, inst.g0)) for pi in perms]] * 2
    plain_branch = _branch_inputs(circ, aux, plain)
    v5 = scale * sum(
        float(np.linalg.norm(challenge_columns(view, plain_branch[b][z])[:, b]) ** 2)
        for b in (0, 1)
        for z in range(n_fact)
    )

    v6 = scale * n_fact
    return [v0, v1, v2, v3, v4, v5, v6]


def amplification_chain_residuals(circ: SimulatorCircuit, aux: StateVector) -> dict[str, float]:
    """Reproduce the block-form derivation of the phase-i identity step by step.

    In the split "W times start slice" versus its complement, the conjugated
    projector has top block I/2 and some cross block; the derivation is four
    substitutions whose intermediate vectors are checked here one by one.
    """
    layout = circ.layout
    dim_w = circ.dim_w
    dim_rest = layout.total_dim // dim_w

    def top(vec: np.ndarray) -> np.ndarray:
        return vec.reshape(dim_w, dim_rest)[:, 0]

    def bottom(vec: np.ndarray) -> np.ndarray:
        return vec.reshape(dim_w, dim_rest)[:, 1:]

    raw0 = circ.initial_amps(aux)
    adj = circ.attempt.adjoint()
    s1 = circ.attempt.apply_to(layout, raw0)
    projected = circ.success_proj.apply_to(layout, s1)
    conjugated = adj.apply_to(layout, projected)  # attempt^-1 P attempt |start>

    sp = phase_on_success(circ.success_proj, 1j)
    w1 = adj.apply_to(layout, sp.apply_to(layout, s1))
    res_top = float(np.linalg.norm(top(w1) - ((1j + 1) / 2) * aux.amps))
    res_bottom = float(np.linalg.norm(bottom(w1) - (1j - 1) * bottom(conjugated)))

    s0 = phase_on_start(layout, 1j)
    w2 = s0.apply_to(layout, w1)
    res_mid = float(np.linalg.norm(w2 - (1j - 1) * conjugated))

    w3 = circ.attempt.apply_to(layout, w2)
    res_final = float(np.linalg.norm(w3 - (1j - 1) * projected))

    return {
        "start_slice_coefficient": res_top,
        "complement_coefficient": res_bottom,
        "collapses_to_conjugated_projector": res_mid,
        "equals_projected_attempt": res_final,
    }
