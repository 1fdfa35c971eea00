"""Quantum model of the graph-isomorphism identification round.

One round: the prover relabels its first graph uniformly at random and sends
the result (register Y), the verifier processes its workspace (W holds an
arbitrary auxiliary input, V scratch space, A the challenge qubit) with a
unitary and measures A, and the prover answers with a permutation that the
verifier checks.  The verifier's end-of-round view is the dephased W,V,A,Y
state together with the classical record of the sent graph, kept in an extra
register Zp (and optionally the response permutation, kept in Z).

A view is a :class:`RecordedView` keyed by the classical record values.  The
record registers are never coherent, so the trace distance between two
views is the sum of per-record block distances.  Each block is stored as a
low-rank factor ``X`` with ``block = X X†``: its columns are the challenge
slices of the branch vectors behind that record value, at most 2 per
branch.  Two blocks are compared through the QR core of their stacked
factors, so no block is ever formed densely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .registers import (
    HADAMARD,
    LinearOp,
    RegisterLayout,
    StateVector,
    haar_random_op,
    random_state,
    trace_distance_matrices,
)
from .symm import (
    Graph,
    Permutation,
    act,
    compose,
    encode,
    enumerate_sn,
    find_isomorphism,
    invert,
    num_graph_codes,
)


class NotIsomorphicError(ValueError):
    """The given graph pair has no isomorphism, so no witness exists."""


def view_layout(dims: tuple[int, int], n: int) -> RegisterLayout:
    """Registers the verifier sees coherently: W, V, A, Y."""
    dim_w, dim_v = dims
    return RegisterLayout(
        [("W", dim_w), ("V", dim_v), ("A", 2), ("Y", num_graph_codes(n))]
    )


def aux_layout(dim_w: int) -> RegisterLayout:
    return RegisterLayout([("W", dim_w)])


@dataclass(frozen=True)
class Instance:
    """A yes-instance: two graphs with a stored isomorphism witness."""

    g0: Graph
    g1: Graph
    tau: Permutation

    def __post_init__(self):
        if not (self.g0.n == self.g1.n == self.tau.n):
            raise ValueError("graphs and witness must share the vertex count")
        if act(self.tau, self.g0) != self.g1:
            raise ValueError("witness does not map g0 onto g1")

    @property
    def n(self) -> int:
        return self.g0.n

    @classmethod
    def from_graphs(cls, g0: Graph, g1: Graph) -> "Instance":
        """Build an instance, finding the first witness in enumeration order."""
        tau = find_isomorphism(g0, g1)
        if tau is None:
            raise NotIsomorphicError("graphs are not isomorphic")
        return cls(g0, g1, tau)

    def graph_for_challenge(self, a: int) -> Graph:
        if a not in (0, 1):
            raise ValueError(f"challenge must be 0 or 1, got {a}")
        return self.g0 if a == 0 else self.g1


@dataclass(frozen=True)
class VerifierModel:
    """Verifier strategy: workspace dimensions plus a validated unitary on some of W,V,A,Y."""

    dims: tuple[int, int]
    u_v: object

    def __post_init__(self):
        if min(self.dims) < 1:
            raise ValueError(f"dims must be >= 1, got {self.dims}")
        if getattr(self.u_v, "kind", None) != "unitary":
            raise ValueError("verifier operator must be a unitary")
        if not set(self.u_v.targets) <= {"W", "V", "A", "Y"}:
            raise ValueError(f"verifier unitary must target W,V,A,Y only, got {self.u_v.targets}")

    @property
    def dim_w(self) -> int:
        return self.dims[0]


def honest_verifier(dims: tuple[int, int], n: int) -> VerifierModel:
    """The protocol verifier: flip the challenge qubit into uniform, touch nothing else."""
    return VerifierModel(dims, LinearOp(view_layout(dims, n), ("A",), HADAMARD))


def adversarial_verifier(dims: tuple[int, int], n: int, seed: int) -> VerifierModel:
    """Haar-random verifier unitary over the whole of W,V,A,Y, in Householder form."""
    return VerifierModel(dims, haar_random_op(view_layout(dims, n), ("W", "V", "A", "Y"), seed))


def random_aux(dim_w: int, seed: int) -> StateVector:
    """Haar-random auxiliary input on W."""
    return StateVector(aux_layout(dim_w), random_state(dim_w, seed))


def honest_response(inst: Instance, tau: Permutation, a: int) -> Permutation:
    """The prover's answer to challenge ``a`` after having sent ``act(tau, g0)``.

    For a = 1 the answer routes through the witness, so that relabeling g1
    with it reproduces the sent graph.
    """
    if a == 0:
        return tau
    if a == 1:
        return compose(tau, invert(inst.tau))
    raise ValueError(f"challenge must be 0 or 1, got {a}")


def accept(sent: Graph, a: int, response: Permutation, inst: Instance) -> bool:
    """Step-(c) check: the response must relabel the challenged graph onto the sent one."""
    target = inst.graph_for_challenge(a)
    if response.n != target.n or sent.n != target.n:
        raise ValueError("vertex counts of response, graphs, and instance must agree")
    return act(response, target) == sent


@dataclass(frozen=True)
class RecordedView:
    """Mixture of coherent blocks keyed by classical record values, in factored form.

    ``blocks[key]`` is a ``(base_layout.total_dim, r)`` factor ``X`` of the
    unnormalized density block ``X X†`` on ``base_layout`` for record value
    ``key`` (a tuple, one index per record register).  Each column is one
    challenge slice of a branch vector, so ``r`` is at most 2 per branch
    that maps to ``key``.  The full operator is the direct sum of the blocks
    over the record basis, i.e. ``sum_key X X† (x) |key><key|``.
    """

    base_layout: RegisterLayout
    record_registers: tuple[tuple[str, int], ...]
    blocks: Mapping[tuple[int, ...], np.ndarray]

    @classmethod
    def from_columns(
        cls,
        base_layout: RegisterLayout,
        record_registers: tuple[tuple[str, int], ...],
        pieces,
    ) -> "RecordedView":
        """Stack ``(key, columns)`` pieces into one factor per record value."""
        grouped: dict[tuple[int, ...], list[np.ndarray]] = {}
        for key, cols in pieces:
            grouped.setdefault(key, []).append(cols)
        blocks = {key: np.hstack(parts) for key, parts in grouped.items()}
        return cls(base_layout, record_registers, blocks)

    def trace(self) -> float:
        return float(sum(self.record_weights().values()))

    def record_weights(self) -> dict[tuple[int, ...], float]:
        """Trace of each block: the squared Frobenius norm of its factor."""
        return {key: float(np.vdot(x, x).real) for key, x in self.blocks.items()}

    def trace_distance(self, other: "RecordedView") -> float:
        """Half trace norm of the difference, block by block.

        Exact because both operators are block diagonal over the same
        classical record basis, where the trace norm is additive.  Within a
        block, the QR of the stacked factors ``[X Y] = Q R`` gives
        ``X X† - Y Y† = Q (R J R†) Q†`` with ``J = diag(I_p, -I_q)``, and Q has
        orthonormal columns, so the small core ``R J R†`` carries the whole
        nonzero spectrum.
        """
        if (
            self.base_layout.registers != other.base_layout.registers
            or self.record_registers != other.record_registers
        ):
            raise ValueError("recorded views live over different layouts")
        total = 0.0
        empty = np.zeros((self.base_layout.total_dim, 0), dtype=complex)
        for key in sorted(set(self.blocks) | set(other.blocks)):
            x = self.blocks.get(key, empty)
            y = other.blocks.get(key, empty)
            r = np.linalg.qr(np.hstack([x, y]), mode="r")
            rx, ry = r[:, : x.shape[1]], r[:, x.shape[1] :]
            total += trace_distance_matrices(rx @ rx.conj().T, ry @ ry.conj().T)
        return total

    def full_layout(self) -> RegisterLayout:
        return self.base_layout.extend(self.record_registers)


def view_records(n: int, keep_z: bool) -> tuple[tuple[str, int], ...]:
    """Record registers of a view: the sent graph Zp, after the response Z if kept."""
    sent = ("Zp", num_graph_codes(n))
    return (("Z", len(enumerate_sn(n))), sent) if keep_z else (sent,)


def challenge_columns(layout: RegisterLayout, vec: np.ndarray) -> np.ndarray:
    """The challenge slices of ``vec`` as the columns of a ``(dim, dim_A)`` factor.

    Column ``a`` keeps the A=a amplitudes of ``vec`` and zeroes the rest, so
    the factor times its adjoint is ``vec vec†`` with register A dephased.
    """
    axis = layout.axis("A")
    dims = layout.dims
    left = int(np.prod(dims[:axis], dtype=int))
    t = vec.reshape(left, dims[axis], -1)
    cols = np.eye(dims[axis])[:, None, :, None] * t[None]
    return cols.reshape(dims[axis], -1).T


def _check_aux(ver: VerifierModel, aux: StateVector) -> None:
    if aux.layout.registers != (("W", ver.dim_w),):
        raise ValueError(
            f"auxiliary input must live on a W-only layout of dim {ver.dim_w}, "
            f"got {aux.layout.registers}"
        )


def real_view_recorded(
    inst: Instance, ver: VerifierModel, aux: StateVector, keep_z: bool = False
) -> RecordedView:
    """Verifier view of one real round, averaged over the prover's choices.

    Per relabeling tau: run the verifier unitary on the initial product
    state, split the output by challenge value (the dephasing of A), and
    record the sent graph in Zp.  With ``keep_z`` the prover's step-(c)
    response is recorded too, so each challenge slice goes to the record
    value of its own response.  The verifier runs once, on the block of all
    n! initial states.
    """
    _check_aux(ver, aux)
    n = inst.n
    layout = view_layout(ver.dims, n)
    base = aux.amps
    dim_vay = layout.total_dim // ver.dim_w
    perms = enumerate_sn(n)
    scale = np.sqrt(1.0 / len(perms))

    codes = [encode(act(tau, inst.g0)) for tau in perms]
    starts = np.zeros((dim_vay, len(perms)), dtype=complex)
    # V and A start at 0, so each relabeling's start is its Y code.
    starts[codes, np.arange(len(perms))] = scale
    outs = ver.u_v.apply_to(layout, np.kron(base[:, None], starts))

    pieces = []
    for i, (tau, code) in enumerate(zip(perms, codes)):
        cols = challenge_columns(layout, outs[:, i])
        if keep_z:
            for a in (0, 1):
                response = honest_response(inst, tau, a)
                pieces.append(((perms.index(response), code), cols[:, a : a + 1]))
        else:
            pieces.append(((code,), cols))
    return RecordedView.from_columns(layout, view_records(n, keep_z), pieces)

