"""Quantum model of the graph-isomorphism identification round.

One round: the prover relabels its first graph uniformly at random and sends
the result (register Y), the verifier processes its workspace (W holds an
arbitrary auxiliary input, V scratch space, A the challenge qubit) with a
unitary and measures A, and the prover answers with a permutation that the
verifier checks.  The verifier's end-of-round view is the W,V,Y state
together with the classical records: the sent graph, kept in an extra
register Zp (and optionally the response permutation, kept in Z), and the
measured challenge A.

A view is a :class:`RecordedView` keyed by the classical record values, A
among them: the verifier measures A, so both views are block diagonal in
it.  The record registers are never coherent, so the trace distance between
two views is the sum of per-record block distances.  Each block's factor
columns are the verifier's :class:`StartBlock` on s = dim_w * |orbit| start
coefficients beta, at A=a: ``Q_a R_a beta``, held as its s x s triangles
``R_a`` alone, taken from the Grams ``M_a^† M_a`` of the block's A=a rows,
which a drawn verifier gives from its reflectors without forming ``M_a``,
and any other verifier from its outputs, a chunk of rows at a time.  A
view keeps the s-row columns ``R_a beta`` in one zero-padded stack, and two
views on one start block are compared through one stacked QR of their
paired factors, since the trace norm does not see Q_a; no W,V,Y vector or
block is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

from .registers import (
    HADAMARD,
    ZERO_NORM_SQ,
    HouseholderOp,
    LinearOp,
    RegisterLayout,
    StateVector,
    basis_columns,
    haar_random_op,
    part_grams,
    random_state,
    trace_distance_matrices,
)
from .symm import (
    Graph,
    Permutation,
    act,
    encode,
    enumerate_sn,
    lehmer_rank,
    num_graph_codes,
    orbit_codes,
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
    """A yes-instance: two graphs with a stored isomorphism witness, and its relabeling basis.

    Z index z is the relabeling ``perms[z]``, which sends g_b as the Y code
    ``codes[b, z]``, and the prover answers challenge a after sending g0 by
    it with ``perms[responses[a, z]]``; every view, circuit and transcript
    reads these tables, built once per instance.
    """

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

    @cached_property
    def perms(self) -> np.ndarray:
        """S_n, the Z basis: the read-only ``(n!, n)`` table of :func:`enumerate_sn`."""
        return enumerate_sn(self.n)

    @cached_property
    def codes(self) -> np.ndarray:
        """Read-only ``(2, n!)`` table of ``encode(act(perms[z], g_b))``."""
        return _code_table(self.perms, self.g0, self.g1)

    @cached_property
    def responses(self) -> np.ndarray:
        """Read-only ``(2, n!)``: ``perms[responses[a, z]]`` answers a after ``perms[z]`` sent g0."""
        after_inverse = self.perms[:, np.argsort(self.tau.mapping, kind="stable")]
        table = np.stack([np.arange(len(self.perms)), lehmer_rank(after_inverse)])
        table.setflags(write=False)
        return table

    @classmethod
    def from_graphs(cls, g0: Graph, g1: Graph) -> "Instance":
        """Build an instance whose witness is the first relabeling in S_n order sending g0 to g1.

        The S_n and the code table that the search reads become the instance's.
        """
        if g0.n != g1.n:
            raise ValueError(f"size mismatch: {g0.n} vs {g1.n}")
        perms = enumerate_sn(g0.n)
        codes = _code_table(perms, g0, g1)
        hits = np.flatnonzero(codes[0] == encode(g1))
        if not hits.size:
            raise NotIsomorphicError("graphs are not isomorphic")
        inst = cls(g0, g1, Permutation(g0.n, tuple(perms[hits[0]].tolist())))
        # Filled as the two cached properties would fill them on first read.
        vars(inst).update(perms=perms, codes=codes)
        return inst

    def graph_for_challenge(self, a: int) -> Graph:
        if a not in (0, 1):
            raise ValueError(f"challenge must be 0 or 1, got {a}")
        return self.g0 if a == 0 else self.g1


def _code_table(perms: np.ndarray, *graphs: Graph) -> np.ndarray:
    """The read-only ``Instance.codes`` table: each graph's orbit codes over the S_n table."""
    codes = np.stack([orbit_codes(g, perms) for g in graphs])
    codes.setflags(write=False)
    return codes


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


def start_columns(layout: RegisterLayout, codes) -> np.ndarray:
    """Flat W,V,A,Y indices of the start states ``|w, V=0, A=0, Y=code>``, w-major, codes sorted."""
    dim_w = layout.dim_of("W")
    codes = np.sort(np.asarray(codes, dtype=np.int64), axis=None)
    codes = codes[_run_starts(codes)]
    if codes.size and not 0 <= codes[0] <= codes[-1] < layout.dim_of("Y"):
        raise ValueError(f"Y codes must be in 0..{layout.dim_of('Y') - 1}, got {codes.tolist()}")
    return (np.arange(dim_w)[:, None] * (layout.total_dim // dim_w) + codes).reshape(-1)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values (``np.unique`` imports numpy.ma)."""
    starts = np.ones(values.size, dtype=bool)
    starts[1:] = values[1:] != values[:-1]
    return starts


def adversarial_verifier(dims: tuple[int, int], n: int, seed: int, codes=None) -> VerifierModel:
    """Verifier unitary on W,V,A,Y whose start columns are those of a Haar unitary.

    Every view and identity reads ``U_V`` only on the start states
    ``|w, V=0, A=0, Y=code>`` with ``code`` in ``codes``, by default every Y
    code of n vertices; a protocol run passes ``Instance.codes[0]``, the
    messages the prover sends.  Only those s = dim_w * |codes| columns are
    drawn (:func:`haar_random_op` with ``inputs``), so U is a product of s
    reflectors and fixes a subspace of dimension at least d - 2s.
    """
    layout = view_layout(dims, n)
    if codes is None:
        codes = range(num_graph_codes(n))
    inputs = start_columns(layout, codes)
    return VerifierModel(dims, haar_random_op(layout, ("W", "V", "A", "Y"), seed, inputs))


def random_aux(dim_w: int, seed: int) -> StateVector:
    """Haar-random auxiliary input on W."""
    return StateVector(aux_layout(dim_w), random_state(dim_w, seed))


def accept(sent: Graph, a: int, response: Permutation, inst: Instance) -> bool:
    """Step-(c) check: the response must relabel the challenged graph onto the sent one."""
    target = inst.graph_for_challenge(a)
    if response.n != target.n or sent.n != target.n:
        raise ValueError("vertex counts of response, graphs, and instance must agree")
    return act(response, target) == sent


@dataclass(frozen=True)
class RecordedView:
    """Mixture of coherent blocks keyed by classical record values, in factored form.

    The view is ``sum_key Q_a F F† Q_a† (x) |key><key|`` over W,V,Y, for
    record value ``key`` (a tuple, one index per record register, A = a
    last) on the :class:`StartBlock` ``basis``.  ``stack[i, :widths[i]]``
    holds the s-row columns of F, as rows, for the record value with flat
    index ``index[i]`` (sorted, distinct); the rest of the stack is zero.
    """

    basis: StartBlock
    record_registers: tuple[tuple[str, int], ...]
    index: np.ndarray
    stack: np.ndarray
    widths: np.ndarray

    @classmethod
    def from_rows(
        cls,
        basis: StartBlock,
        record_registers: tuple[tuple[str, int], ...],
        rows: np.ndarray,
        keys: np.ndarray,
    ) -> "RecordedView":
        """Group factor columns by record value: row i of ``rows`` is a column of block ``keys[i]``."""
        flat = np.ravel_multi_index(tuple(keys.T), [dim for _, dim in record_registers])
        order = np.argsort(flat, kind="stable")
        first = _run_starts(flat[order])
        starts, group = np.flatnonzero(first), np.cumsum(first) - 1
        widths = np.diff(np.append(starts, flat.size))
        stack = np.zeros((starts.size, widths.max(initial=0), rows.shape[1]), dtype=complex)
        stack[group, np.arange(flat.size) - starts[group]] = rows[order]
        return cls(basis, record_registers, flat[order][starts], stack, widths)

    @cached_property
    def blocks(self) -> Mapping[tuple[int, ...], np.ndarray]:
        """Each record value's factor ``F``, an ``(s, c)`` view of the stack."""
        dims = [dim for _, dim in self.record_registers]
        keys = zip(*(axis.tolist() for axis in np.unravel_index(self.index, dims)))
        return {
            key: rows[:width].T for key, rows, width in zip(keys, self.stack, self.widths.tolist())
        }

    def trace_distance(self, other: "RecordedView") -> float:
        """Half trace norm of the difference, every record value at once.

        Exact because both operators are block diagonal over the same
        classical record basis, where the trace norm is additive, and their
        A=a factors share the isometry Q_a, which the trace norm does not see
        (views on two start blocks are refused).  Per record value, the QR of
        the paired factors ``[F G] = Q R`` gives
        ``F F† - G G† = Q (R J R†) Q†`` with ``J = diag(I_p, -I_q)``, and Q has
        orthonormal columns, so the small core ``R J R†`` carries the whole
        nonzero spectrum.  The pairs of the union of record values share one
        zero-padded stack; a zero column of ``[F G]`` is a zero column of R.
        """
        if self.record_registers != other.record_registers or not self.basis.same_as(other.basis):
            raise ValueError("recorded views differ in their record registers or start blocks")
        union = np.sort(np.concatenate([self.index, other.index]))
        union = union[_run_starts(union)]
        p, q = self.stack.shape[1], other.stack.shape[1]
        pairs = np.zeros((union.size, p + q, self.stack.shape[2]), dtype=complex)
        pairs[np.searchsorted(union, self.index), :p] = self.stack
        pairs[np.searchsorted(union, other.index), p:] = other.stack
        r = np.linalg.qr(pairs.swapaxes(1, 2), mode="r")
        r_adj = r.conj().swapaxes(1, 2)
        return trace_distance_matrices(r[..., :p] @ r_adj[:, :p], r[..., p:] @ r_adj[:, p:])


def view_records(n: int, keep_z: bool) -> tuple[tuple[str, int], ...]:
    """Record registers of a view: the sent graph Zp, after the response Z if kept, then A."""
    sent = (("Zp", num_graph_codes(n)), ("A", 2))
    return (("Z", math.factorial(n)),) + sent if keep_z else sent


def columns_view(
    basis: StartBlock, n: int, columns: np.ndarray, codes, responses=None
) -> RecordedView:
    """The view whose factor columns are ``columns[a, :, j]``: ``R_a beta`` of branch j.

    Branch j sent Y code ``codes[j]``: its column is one of record value
    ``(codes[j], a)``, or ``(responses[a, j], codes[j], a)`` when responses
    (broadcast over a and j) are recorded.  A column whose squared norm is
    below ``ZERO_NORM_SQ`` carries no amplitude and is left out.
    """
    kept = np.sum(np.abs(columns) ** 2, axis=1) >= ZERO_NORM_SQ
    keys = ([] if responses is None else [responses]) + [codes, np.arange(2)[:, None]]
    keys = np.stack(np.broadcast_arrays(*keys), axis=-1)[kept]
    rows = columns.swapaxes(1, 2)[kept]
    return RecordedView.from_rows(basis, view_records(n, responses is not None), rows, keys)


def check_aux(dim_w: int, aux: StateVector) -> None:
    """Refuse an auxiliary input that does not live on a W-only layout of dimension ``dim_w``."""
    if aux.layout.registers != (("W", dim_w),):
        raise ValueError(
            f"auxiliary input must live on a W-only layout of dim {dim_w}, "
            f"got {aux.layout.registers}"
        )


class StartBlock(NamedTuple):
    """``U_start``, the verifier's unitary on the start states ``|w, V=0, A=0, Y=code>``.

    The start state with W = w and Y = ``codes[m]`` is coefficient
    ``w * |codes| + m`` of s = dim_w * |codes|; ``codes`` are sorted and
    distinct.  On a protocol run they are g0's orbit, and every view
    ``zk-check`` certifies reads ``U_V`` through these s columns alone.  The
    A=a rows ``M_a`` of ``U_start`` have s <= side/2 columns, and
    ``triangles[a]`` is an s x s upper triangular ``R_a`` with ``M_a = Q_a R_a``
    for an isometry ``Q_a``: the R of their thin QR, with a positive diagonal
    where ``M_a`` has full rank.  Every view reads ``R_a`` only through
    ``R_a^† R_a = M_a^† M_a``, the Gram it is taken from; ``Q_a`` is never
    formed.  The block is held as the triangles alone, read through ``ver``,
    the verifier it was formed from, and alone splits s into (w, code):
    :meth:`code_columns` reads W coefficients at given codes, and
    :meth:`code_grams` is the Gram's dim_w x dim_w block at each code.  (A
    named tuple, not a frozen dataclass, costs a fresh interpreter 0.5 ms less.)
    """

    codes: np.ndarray
    triangles: np.ndarray
    ver: VerifierModel

    def columns(self, codes) -> np.ndarray:
        """The position in ``self.codes`` of each of ``codes``, which must all be among them."""
        codes = np.asarray(codes, dtype=np.int64)
        found = np.searchsorted(self.codes, codes)
        if not np.array_equal(self.codes[np.minimum(found, self.codes.size - 1)], codes):
            raise ValueError(f"Y codes {codes.tolist()} are not all among {self.codes.tolist()}")
        return found

    def code_columns(self, u: np.ndarray, rows) -> np.ndarray:
        """``R_a (u[a, :, j] (x) e_{rows[j]})`` for u broadcast to (2, dim_w, J): shape (2, s, J)."""
        triangles = self.triangles.reshape(2, -1, self.ver.dim_w, self.codes.size)
        return sum(triangles[:, :, w, rows] * u[..., w, None, :] for w in range(self.ver.dim_w))

    def code_grams(self) -> np.ndarray:
        """K: ``K[a, m]`` is the dim_w x dim_w block of ``R_a^† R_a`` at code m, one per code."""
        r = self.triangles.reshape(2, -1, self.ver.dim_w, self.codes.size).transpose(0, 3, 2, 1)
        return r.conj() @ r.swapaxes(2, 3)

    def same_as(self, other: "StartBlock") -> bool:
        """Whether both are of one verifier object and codes: equal triangles may hide two Q_a."""
        return self.ver is other.ver and np.array_equal(self.codes, other.codes)


def start_block(ver: VerifierModel, n: int, codes) -> StartBlock:
    """The :class:`StartBlock` of the distinct ``codes``, from its two challenge halves' Grams.

    A verifier drawn on exactly these columns gives them from its reflectors; any other, a draw's
    adjoint too, is applied to the basis columns, and its outputs are read by :func:`part_grams`.
    """
    layout, u = view_layout(ver.dims, n), ver.u_v
    inputs, parts = start_columns(layout, codes), ver.dims[0] * ver.dims[1]
    drawn = isinstance(u, HouseholderOp) and not u.inverse and u.targets == layout.names
    if drawn and np.array_equal(u.inputs, inputs):
        grams = u.input_grams(parts, 2)
    else:
        grams = part_grams(u.apply_to(layout, basis_columns(layout.total_dim, inputs)), parts, 2)
    triangles = np.stack([_triangle(gram) for gram in grams])
    # The W = 0 start columns are the sorted distinct codes themselves.
    return StartBlock(inputs[: inputs.size // ver.dim_w], triangles, ver)


def _triangle(gram: np.ndarray) -> np.ndarray:
    """An upper triangular ``R`` with ``R^† R = G``, the Gram ``M^† M`` of one challenge half.

    It is the conjugate transpose of G's Cholesky factor, which is the R of
    M's thin QR with a positive diagonal (Golub and Van Loan).  A singular G,
    which the Cholesky refuses, takes the R of ``sqrt(Λ) W^†`` from its
    spectrum ``G = W Λ W^†`` instead, its rounding negatives read as 0.
    """
    try:
        return np.linalg.cholesky(gram).conj().T
    except np.linalg.LinAlgError:
        spectrum, vectors = np.linalg.eigh(gram)
        return np.linalg.qr(np.sqrt(np.maximum(spectrum, 0))[:, None] * vectors.conj().T, mode="r")


def real_view_recorded(
    inst: Instance,
    ver: VerifierModel,
    aux: StateVector,
    keep_z: bool = False,
    block: StartBlock | None = None,
) -> RecordedView:
    """Verifier view of one real round, averaged over the prover's choices.

    Per relabeling tau, the verifier's output on the initial product state
    is ``U_V |aux, 0, 0, tau(g0)>``: the :class:`StartBlock` on ``aux (x)
    e_m``, m the column of tau's code, weighted 1/sqrt(n!), split by the
    measured challenge a (:func:`columns_view`); with ``keep_z`` the prover's
    step-(c) response to a (``Instance.responses``) is recorded too.
    ``block`` is the start block of ``inst.codes[0]``; without one it is
    formed here, by the same :func:`start_block`.
    """
    n, codes = inst.n, inst.codes[0]
    check_aux(ver.dim_w, aux)
    block = start_block(ver, n, codes) if block is None else block
    columns = block.code_columns(aux.amps[:, None], block.columns(codes)) / np.sqrt(codes.size)
    return columns_view(block, n, columns, codes, inst.responses if keep_z else None)
