"""Dense oracles for the factored runtime path.

The package keeps states as raw amplitude blocks, operators in factored
form and verifier views as record-keyed factors on the verifier's start
basis, and never builds an operator's dense matrix.  The oracles here are
the dense forms the tests compare against: an operator applied to the
identity (:func:`to_matrix`), an operator applied by moving its target axes
(:func:`moved_apply`), row-major index arithmetic, the graph-code decoder,
S_n as :class:`~zkamp.symm.Permutation` objects with ``compose``,
``invert``, the orbit comprehension and the honest response that the
integer S_n tables are checked against, and the isomorphism search by
relabeling that ``protocol.Instance.from_graphs`` is checked against, kron embeddings of
operators, density operators with their channels and trace distance,
checked state operations and the collapsing measurement that
``simulator.sample_round`` is checked against, the amplified state run
through the step's operator chain with its Born table, the dense Haar draw,
the draw's masked fill from a scaled copy that pins the seed -> verifier
map, and the Householder T recurrence, the verifier's start outputs, the
branches' dense spread on the block's codes and the norm chain read off
them, the views read off full-length W,V,A,Y vectors
(:class:`DenseRecordedView`) with their dense assembly and per-record
distance, the sampled measure-then-reflect round, and the
two-dimensional evolution with the phase search that re-evolves every
candidate step count from the start.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from zkamp.amplify import PhasePair, _initial_two_dim, closing_phases, subspace_matrix
from zkamp.registers import (
    ATOL_NORM,
    ATOL_OP,
    BYTE_BUDGET,
    NORM_SLACK,
    ZERO_NORM_SQ,
    DiagonalOp,
    HouseholderOp,
    LayoutMismatchError,
    LinearOp,
    OpChain,
    RegisterLayout,
    StateVector,
    XorOp,
    _gaussian_columns,
    basis_columns,
    dense_bytes,
    trace_distance_matrices,
)
from zkamp.protocol import check_aux, start_columns, view_layout, view_records
from zkamp.simulator import attempt_output, grover_step, measure_then_reflect
from zkamp.symm import Graph, Permutation, act, encode, num_graph_codes, vertex_pairs

# Largest full view layout, records included, that dense_view assembles.
DENSE_VIEW_LIMIT = 4096


def flatten(layout, indices):
    """Row-major flat index of a multi-index (first register most significant)."""
    if len(indices) != len(layout.registers):
        raise ValueError("multi-index length does not match register count")
    flat = 0
    for idx, (name, dim) in zip(indices, layout.registers):
        if not 0 <= idx < dim:
            raise ValueError(f"index {idx} out of range for register {name!r} (dim {dim})")
        flat = flat * dim + idx
    return flat


def unflatten(layout, flat):
    """The multi-index of a row-major flat index; inverse of :func:`flatten`."""
    if not 0 <= flat < layout.total_dim:
        raise ValueError(f"flat index {flat} out of range [0, {layout.total_dim})")
    out = []
    for dim in reversed(layout.dims):
        out.append(flat % dim)
        flat //= dim
    return tuple(reversed(out))


def permutations(n):
    """S_n as :class:`Permutation` objects in lexicographic order: the rows of ``symm.enumerate_sn``."""
    return [Permutation(n, mapping) for mapping in itertools.permutations(range(n))]


def identity(n):
    return Permutation(n, tuple(range(n)))


def compose(p, q):
    """Permutation acting as p after q."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return Permutation(p.n, tuple(p.mapping[q.mapping[i]] for i in range(p.n)))


def invert(p):
    inverse = [0] * p.n
    for i, j in enumerate(p.mapping):
        inverse[j] = i
    return Permutation(p.n, tuple(inverse))


def orbit_code_list(g):
    """``encode(act(p, g))`` for each p of :func:`permutations`, by bit positions alone, as a list."""
    bit = {pair: 1 << k for k, pair in enumerate(vertex_pairs(g.n))}
    edges = tuple(g.edges)
    return [
        sum(bit[min(p[u], p[v]), max(p[u], p[v])] for u, v in edges)
        for p in itertools.permutations(range(g.n))
    ]


def honest_response(inst, tau, a):
    """The prover's answer to challenge ``a`` after having sent ``act(tau, g0)``.

    For a = 1 the answer routes through the witness, so that relabeling g1
    with it reproduces the sent graph.
    """
    if a == 0:
        return tau
    if a == 1:
        return compose(tau, invert(inst.tau))
    raise ValueError(f"challenge must be 0 or 1, got {a}")


def find_isomorphism(g0, g1):
    """First permutation in enumeration order mapping g0 onto g1, or None; by relabeling."""
    if g0.n != g1.n:
        raise ValueError(f"size mismatch: {g0.n} vs {g1.n}")
    for p in permutations(g0.n):
        if act(p, g0) == g1:
            return p
    return None


def decode(code, n):
    """The graph on n vertices whose basis index is ``code``; inverse of ``symm.encode``."""
    if not 0 <= code < num_graph_codes(n):
        raise ValueError(f"code {code} out of range for n={n}")
    pairs = vertex_pairs(n)
    return Graph(n, (pairs[k] for k in range(len(pairs)) if code >> k & 1))


def embed_matrix(layout, targets, matrix):
    """Dense layout-sized matrix for an operator on a register subset."""
    total = layout.total_dim
    axes = list(layout.axes(targets))
    rest_axes = [i for i in range(len(layout.dims)) if i not in axes]
    tdims = [layout.dims[a] for a in axes]
    rdims = [layout.dims[a] for a in rest_axes]
    big = np.kron(matrix, np.eye(math.prod(rdims), dtype=complex))
    # big acts on targets (x) rest; permute row and column tensor axes back to
    # layout order.
    perm = axes + rest_axes
    inv = np.argsort(perm)
    n = len(layout.dims)
    tensor = big.reshape(tdims + rdims + tdims + rdims)
    tensor = tensor.transpose(list(inv) + [n + i for i in inv])
    return np.ascontiguousarray(tensor.reshape(total, total))


def local_matrix(op):
    """The matrix of one operator on its own targets, row major in layout order."""
    if isinstance(op, LinearOp):
        return op.matrix
    if isinstance(op, DiagonalOp):
        return np.diag(op.phases)
    if isinstance(op, XorOp):
        image = xor_image(op)
        mat = np.zeros((image.size, image.size), dtype=complex)
        mat[image, np.arange(image.size)] = 1.0
        return mat
    if isinstance(op, HouseholderOp):
        # Π† Q D Π, with Q a dense product of the panel matrices I - V T V†
        # of the drawn reflectors, D the k phases padded with ones, and Π the
        # permutation matrix of the order.
        drawn = drawn_reflectors(op)
        side, (k, width) = len(drawn), op.tfactors.shape
        q = np.eye(side, dtype=complex)
        for s in range(0, k, max(width, 1)):
            e = min(s + width, k)
            v = np.zeros((side, e - s), dtype=complex)
            v[s:] = drawn[s:, s:e]
            q = q @ (np.eye(side) - v @ op.tfactors[s:e, : e - s] @ v.conj().T)
        mat = q * np.concatenate([op.phases, np.ones(side - k)])
        if op.order is not None:
            perm = np.zeros((side, side))
            perm[np.arange(side), op.order] = 1.0
            mat = perm.T @ mat @ perm
        return mat.conj().T if op.inverse else mat
    raise TypeError(f"no local matrix for {type(op).__name__}")


def xor_image(op):
    """An ``XorOp``'s flat image: ``y * width + c`` maps to ``(y ^ codes[c]) * width + c``."""
    width = op.codes.size
    y, c = np.divmod(np.arange(op.layout.dim_of(op.targets[0]) * width), width)
    return (y ^ op.codes[c]) * width + c


def drawn_reflectors(op):
    """A ``HouseholderOp``'s reflectors as drawn: its stored rows taken back by the order."""
    return op.reflectors if op.order is None else op.reflectors[op.order]


def householder_gather_act(op, flat):
    """``op._act(flat)`` by gathering the rows, applying the drawn panels and scattering back.

    The reference for the stored form, which applies the placed panels in
    place: ``Π x`` is ``x[order]``, one gather, each panel acts on the
    trapezoid rows ``s:`` of the drawn reflectors, and ``Π†`` is a scatter.
    """
    drawn, k = drawn_reflectors(op), op.columns
    out = flat.copy() if op.order is None else flat[op.order]
    width = max(op.tfactors.shape[1], 1)
    panels = [
        (s, drawn[s:, s : s + width], op.tfactors[s : s + width, : min(width, k - s)])
        for s in range(0, k, width)
    ]
    if op.inverse:
        for s, v, t in panels:
            out[s:] -= v @ (t.conj().T @ (v.conj().T @ out[s:]))
        out[:k] *= op.phases.conj()[:, None]
    else:
        out[:k] *= op.phases[:, None]
        for s, v, t in reversed(panels):
            out[s:] -= v @ (t @ (v.conj().T @ out[s:]))
    if op.order is None:
        return out
    scattered = np.empty_like(out)
    scattered[op.order] = out
    return scattered


def to_matrix(op, layout):
    """Dense layout-sized matrix of an operator: its action on every basis vector."""
    total = layout.total_dim
    if dense_bytes(total) > BYTE_BUDGET:
        raise MemoryError(
            f"refusing to materialize a {total}x{total} dense operator; "
            "apply the factored form instead"
        )
    return op.apply_to(layout, np.eye(total, dtype=complex))


def moved_apply(op, layout, amps):
    """``op.apply_to(layout, amps)`` by moving the target axes, the reference for the no-move forms.

    The targets are moved to the front in layout order and flattened into the
    rows of a matrix, the operator's local action (a product, a scaling, a
    scatter by :func:`xor_image`, or a Householder operator's ``_act`` on the matrix
    as a view with pre = 1) is applied to it, and the result is moved back;
    a chain applies its factors in turn.  Unlike ``apply_to``, it takes
    targets that are apart for every kind.
    """
    if isinstance(op, OpChain):
        for factor in op.factors:
            amps = moved_apply(factor, layout, amps)
        return amps

    def act(flat):
        if isinstance(op, LinearOp):
            return op.matrix @ flat
        if isinstance(op, DiagonalOp):
            return op.phases[:, None] * flat
        if isinstance(op, XorOp):
            out = np.empty_like(flat)
            out[xor_image(op)] = flat
            return out
        return op._act(flat[None])[0]

    axes = layout.axes(op.targets)
    moved = np.moveaxis(amps.reshape(layout.dims + amps.shape[1:]), axes, range(len(axes)))
    out = act(moved.reshape(math.prod(moved.shape[: len(axes)]), -1))
    return np.moveaxis(out.reshape(moved.shape), range(len(axes)), axes).reshape(amps.shape)


def kron_oracle(op, layout):
    """Oracle for ``to_matrix(op, layout)``."""
    if isinstance(op, OpChain):
        out = np.eye(layout.total_dim, dtype=complex)
        for factor in op.factors:
            out = kron_oracle(factor, layout) @ out
        return out
    return embed_matrix(layout, op.targets, local_matrix(op))


@dataclass(frozen=True)
class DensityOperator:
    """PSD unit-trace operator over a layout."""

    layout: RegisterLayout
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.layout.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({d}, {d})")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL_OP:
            raise ValueError(f"density operator is not Hermitian within {ATOL_OP}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > ATOL_OP:
            raise ValueError(f"density operator trace {tr} is not 1")
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < -ATOL_OP:
            raise ValueError(f"density operator has eigenvalue {lo} < -{ATOL_OP}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def pure_density(state):
    """The density operator of a state vector."""
    return DensityOperator(state.layout, np.outer(state.amps, state.amps.conj()))


def dephase(rho, register):
    """Measure-and-forget channel: kill coherences of one register."""
    return DensityOperator(rho.layout, dephase_matrix(rho.layout, rho.matrix, register))


def dephase_matrix(layout, matrix, register):
    """Raw-matrix dephasing used on unnormalized blocks."""
    axis = layout.axis(register)
    d = layout.dims[axis]
    left = math.prod(layout.dims[:axis])
    right = layout.total_dim // (left * d)
    t = matrix.reshape(left, d, right, left, d, right)
    mask = np.eye(d)[None, :, None, None, :, None]
    return (t * mask).reshape(layout.total_dim, layout.total_dim)


def partial_trace(rho, keep):
    """Trace out every register not named in ``keep`` (original order kept)."""
    layout = rho.layout
    kept = layout.keep(keep)
    if not kept.registers:
        raise ValueError("keep set must be nonempty")
    n = len(layout.dims)
    row = list(range(n))
    col = [i if name not in kept.names else n + i for i, name in enumerate(layout.names)]
    kept_axes = layout.axes(kept.names)
    out_axes = list(kept_axes) + [col[i] for i in kept_axes]
    reduced = np.einsum(rho.matrix.reshape(layout.dims + layout.dims), row + col, out_axes)
    return DensityOperator(kept, reduced.reshape(kept.total_dim, kept.total_dim))


def require_same_layout(a, b):
    if a.registers != b.registers:
        raise LayoutMismatchError(f"layouts differ: {a.registers} vs {b.registers}")


def trace_distance(r1, r2):
    """Half the trace norm of the difference, via the Hermitian spectrum."""
    require_same_layout(r1.layout, r2.layout)
    return trace_distance_matrices(r1.matrix, r2.matrix)


def basis_state(layout, assignment):
    """Computational basis state with every register assigned an index."""
    unknown = set(assignment) - set(layout.names)
    if unknown:
        raise KeyError(f"unknown registers {sorted(unknown)}; layout has {layout.names}")
    missing = set(layout.names) - set(assignment)
    if missing:
        raise KeyError(f"registers {sorted(missing)} not assigned")
    amps = np.zeros(layout.total_dim, dtype=complex)
    amps[flatten(layout, [assignment[name] for name in layout.names])] = 1.0
    return StateVector(layout, amps)


def overlap(a, b):
    """Inner product of two state vectors over the same layout."""
    require_same_layout(a.layout, b.layout)
    return complex(np.vdot(a.amps, b.amps))


def fidelity(a, b):
    """Squared overlap magnitude; insensitive to global phase."""
    return float(abs(overlap(a, b)) ** 2)


def apply(op, state):
    """Apply a unitary (tensored with identity elsewhere) to a state.

    A projector that actually shrinks the state is rejected, so measurements
    go through :func:`project` and its branch probability.
    """
    out = op.apply_to(state.layout, state.amps)
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > NORM_SLACK:
        raise ValueError(
            f"operator application changed the norm to {norm}; use project() for measurements"
        )
    return StateVector(state.layout, out)


def project(proj, state):
    """Born probability and collapsed state for a projective outcome.

    Returns ``(0.0, None)`` when the branch has no support, so numerical
    noise is never renormalized into a fake state.
    """
    if getattr(proj, "kind", None) != "projector":
        raise ValueError("project() requires a projector operator")
    out = proj.apply_to(state.layout, state.amps)
    norm = float(np.linalg.norm(out))
    if norm < ATOL_NORM:
        return 0.0, None
    return norm**2, StateVector(state.layout, out / norm)


def measurement_probabilities(state, register):
    """Born probability of each computational outcome of one register."""
    axis = state.layout.axis(register)
    dims = state.layout.dims
    moved = np.moveaxis(state.amps.reshape(dims), axis, 0)
    return np.sum(np.abs(moved.reshape(dims[axis], -1)) ** 2, axis=1)


def measure(state, register, rng):
    """Sample a computational-basis measurement of one register.

    Returns the outcome, its probability and the collapsed state, the
    renormalized conditional vector for that outcome.  Deterministic given
    the generator state; one ``rng.choice`` per call, so three calls in turn
    are the reference for ``simulator.sample_round``.
    """
    probs = measurement_probabilities(state, register)
    outcome = int(rng.choice(len(probs), p=probs / probs.sum()))
    mask = np.zeros(len(probs))
    mask[outcome] = 1.0
    collapsed = DiagonalOp(state.layout, (register,), mask, kind="projector").apply_to(
        state.layout, state.amps
    )
    collapsed = collapsed / np.linalg.norm(collapsed)
    return outcome, float(probs[outcome]), StateVector(state.layout, collapsed)


def haar_random_unitary(dim, seed):
    """Dense oracle of ``zkamp.registers.haar_random_op``: Mezzadri's Q D of a Ginibre matrix.

    The matrix is built from the same draw.  Each column of
    ``_gaussian_columns`` gives one reflector by LAPACK's ``zlarfg``, and U is
    their product, one reflector at a time, times D = sign(beta).  By the
    Bartlett decomposition, ``G = U R`` is a complex Ginibre matrix when R
    has the diagonal ``|beta|`` and i.i.d. complex Gaussians above it.  The
    oracle returns Q D from ``np.linalg.qr(G)``, which equals U.
    """
    cols = _gaussian_columns(dim, seed)
    beta = np.empty(dim)
    u = np.eye(dim, dtype=complex)
    # Q = H_0 H_1 ... H_{d-1}, accumulated from the right: H_j only touches
    # the trailing block once the later reflectors have been applied.
    for j in reversed(range(dim)):
        x = cols[j:, j]
        alpha = x[0]
        norm = float(np.linalg.norm(x))
        beta[j] = -norm if alpha.real >= 0 else norm
        tau = (beta[j] - alpha) / beta[j]
        v = x / (alpha - beta[j])
        v[0] = 1.0
        block = u[j:, j:]
        block -= (tau * v)[:, None] * (v.conj() @ block)
    u *= np.sign(beta)
    rng = np.random.default_rng((seed, 1))
    upper = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    r = np.triu(upper, 1) + np.diag(np.abs(beta))
    q, r = np.linalg.qr(u @ r)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def reference_draw(side, seed, k=None):
    """``haar_random_op``'s reflectors, tau and D as first drawn, before its in-place fill.

    The Gaussian trapezoid is filled through a boolean mask from a scaled
    copy of the values, and normalised by LAPACK's ``zlarfg`` on the
    column-major view: the seed -> verifier map the runtime must keep bit for
    bit.
    """
    k = side if k is None else k
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(k * (2 * side - k + 1)).view(complex) / np.sqrt(2)
    lower_t = np.zeros((k, side), dtype=complex)
    lower_t[np.arange(side) >= np.arange(k)[:, None]] = values
    reflectors = lower_t.T
    alpha = reflectors.diagonal().copy()
    beta = np.where(alpha.real >= 0, -1.0, 1.0) * np.linalg.norm(reflectors, axis=0)
    tau = (beta - alpha) / beta
    reflectors /= alpha - beta
    np.fill_diagonal(reflectors, 1.0)
    return reflectors, tau, np.sign(beta)


def compact_wy_factors(reflectors, tau):
    """Oracle for ``HouseholderOp.tfactors``: LAPACK's ``zlarft`` recurrence per 64-column panel.

    Panel columns ``s:s + 64`` have ``T[j, j] = tau_j`` and
    ``T[:j, j] = -tau_j T[:j, :j] (V† V)[:j, j]``.
    """
    side = len(tau)
    width = min(64, side)
    tfactors = np.zeros((side, width), dtype=complex)
    for s in range(0, side, width):
        v = reflectors[s:, s : s + width]
        gram = v.conj().T @ v
        t = tfactors[s : s + width, : v.shape[1]]
        for j in range(v.shape[1]):
            t[j, j] = tau[s + j]
            t[:j, j] = -tau[s + j] * (t[:j, :j] @ gram[:j, j])
    return tfactors


@dataclass(frozen=True)
class DenseRecordedView:
    """A verifier view with full-length factors: ``blocks[key]`` is X, block X X† on ``base_layout``.

    The reference for ``protocol.RecordedView``, whose factors are the same
    blocks' coordinates on the verifier's start basis.  ``blocks`` maps each
    record value (a tuple, one index per record register) to its
    ``(base_layout.total_dim, c)`` factor.
    """

    base_layout: RegisterLayout
    record_registers: tuple
    blocks: dict


def branch_view(dims, n, branches, codes, responses=None):
    """The :class:`DenseRecordedView` whose factor columns are the A=a parts of ``branches``.

    Column j of ``branches`` is a W,V,A,Y branch vector that sent Y code
    ``codes[j]``.  Its A=a part is a column of the factor of record value
    ``(codes[j], a)``, or of ``(responses[a, j], codes[j], a)`` when
    responses (broadcast over a and j) are recorded.  A part whose squared
    norm is below ``ZERO_NORM_SQ`` is left out.
    """
    slices = branches.reshape(dims[0] * dims[1], 2, -1, branches.shape[1])
    kept = np.sum(np.abs(slices) ** 2, axis=(0, 2)) >= ZERO_NORM_SQ
    keys = ([] if responses is None else [responses]) + [codes, np.arange(2)[:, None]]
    keys = np.stack(np.broadcast_arrays(*keys), axis=-1)
    columns = {}
    for a, j in zip(*np.nonzero(kept)):
        key = tuple(int(k) for k in keys[a, j])
        columns.setdefault(key, []).append(slices[:, a, :, j].reshape(-1))
    base = view_layout(dims, n).keep(("W", "V", "Y"))
    blocks = {key: np.stack(cols, axis=1) for key, cols in sorted(columns.items())}
    return DenseRecordedView(base, view_records(n, responses is not None), blocks)


def recorded_view(circ, amplified, keep_z=False):
    """Simulated view of a full-length amplified state: its (B, Z) branch columns by challenge."""
    codes = circ.inst.codes.reshape(-1)
    responses = np.arange(codes.size) % (codes.size // 2) if keep_z else None
    branches = amplified.reshape(-1, codes.size)
    return branch_view(circ.ver.dims, circ.inst.n, branches, codes, responses)


def simulated_view(circ, aux, keep_z=False):
    """The :func:`recorded_view` of :func:`operator_amplified_state`."""
    return recorded_view(circ, operator_amplified_state(circ, aux), keep_z)


def real_view(inst, ver, aux, keep_z=False):
    """Real view read off the verifier applied to each start state ``|aux, 0, 0, tau(g0)>``."""
    check_aux(ver.dim_w, aux)
    layout = view_layout(ver.dims, inst.n)
    codes = inst.codes[0]
    starts = np.zeros((layout.total_dim // ver.dim_w, codes.size), dtype=complex)
    starts[codes, np.arange(codes.size)] = 1.0
    outs = ver.u_v.apply_to(layout, np.kron(aux.amps[:, None], starts)) / np.sqrt(codes.size)
    return branch_view(ver.dims, inst.n, outs, codes, inst.responses if keep_z else None)


def start_outputs(ver, n, codes):
    """``U_V`` on the one-hot start columns of ``codes``: the side x s block of ``start_block``.

    Column ``w * |codes| + m`` is ``U_V |w, 0, 0, codes[m]>``, for the
    sorted distinct codes.
    """
    layout = view_layout(ver.dims, n)
    return ver.u_v.apply_to(layout, basis_columns(layout.total_dim, start_columns(layout, codes)))


def challenge_halves(ver, n, codes):
    """The A=a rows ``M_a`` of :func:`start_outputs`, in W,V,Y order: shape (2, side/2, s)."""
    outputs = start_outputs(ver, n, codes)
    side, s = outputs.shape
    halves = outputs.reshape(ver.dims[0] * ver.dims[1], 2, -1, s).swapaxes(0, 1)
    return halves.reshape(2, side // 2, s)


def householder_triangles(ver, n, codes):
    """The R of LAPACK's Householder QR of each :func:`challenge_halves`: shape (2, s, s).

    The reference for ``protocol.start_block``'s triangles, which are the R
    of the same thin QRs with a positive diagonal.
    """
    return np.linalg.qr(challenge_halves(ver, n, codes), mode="r")


def branch_spread(circ, block):
    """Each (B, Z) branch's weights on ``block.codes``: column j is ``sigma_j``.

    The reference for ``simulator.branch_weights``: the circuit's B split, Z
    split and writer run on the zero state of the (Y, B, Z) sub-layout, whose
    branch j is ``c_j`` at Y = ``code_j``; ``sigma_j`` is ``c_j`` at the row
    of ``code_j``.  Raises ``AssertionError`` on weight off ``inst.codes``.
    """
    inst = circ.inst
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
    return spread


def witness_codes(inst):
    """``encode(act(pi tau^b, g0))`` at ``[b, z]``, pi the z-th of :func:`permutations`, by relabeling g0."""
    tau_pow = (identity(inst.n), inst.tau)
    perms = permutations(inst.n)
    return np.array([[encode(act(compose(pi, t), inst.g0)) for pi in perms] for t in tau_pow])


def norm_chain(circ, aux):
    """The seven lines of ``amplification_check``'s norm chain, read off W,V,A,Y branch vectors.

    The reference for the runtime chain, which reads each branch's A=a part
    as its s-row column on the start block's triangles.  Here the branches
    are :func:`start_outputs` on ``aux (x) e_m``, split by the A axis.
    """
    inst, view = circ.inst, view_layout(circ.ver.dims, circ.inst.n)
    n_fact = len(inst.perms)
    scale = 1.0 / (2 * n_fact)
    tables = np.array([inst.codes, witness_codes(inst), inst.codes[[0, 0]]])
    codes = np.unique(inst.codes[0])
    guessed, substituted, plain = np.searchsorted(codes, tables)
    outputs = start_outputs(circ.ver, inst.n, codes).reshape(view.total_dim, circ.dim_w, -1)
    outs = np.tensordot(aux.amps, outputs, axes=(0, 1)).reshape(*view.dims, -1)
    by_challenge = np.moveaxis(outs, view.axis("A"), 0).reshape(2, -1, codes.size)
    branches = by_challenge[:, :, guessed]  # (challenge a, rest, guess b, relabeling z)
    collapsed = np.einsum("brbz->brz", branches)
    slice_sq = np.sum(np.abs(by_challenge) ** 2, axis=1)  # (challenge a, code)
    guess = np.arange(2)[:, None]
    projected = circ.success_proj.apply_to(circ.layout, attempt_output(circ, aux))
    return (
        float(np.linalg.norm(projected) ** 2),
        scale * float(np.linalg.norm(branches * np.eye(2)[:, None, :, None]) ** 2),
        scale * float(np.linalg.norm(collapsed) ** 2),
        scale * float(np.sum(np.linalg.norm(collapsed, axis=1) ** 2)),
        scale * float(np.sum(slice_sq[guess, substituted])),
        scale * float(np.sum(slice_sq[guess, plain])),
        n_fact / (2 * n_fact),
    )


def born_table(circ, state):
    """``p(b, z, a)`` of a full-length simulator state, indexed [b, z, a]."""
    dims = dict(circ.layout.registers)
    probs = np.abs(state.reshape(circ.layout.dims)) ** 2
    return np.moveaxis(probs, circ.layout.axes(("B", "Z", "A")), (0, 1, 2)).reshape(
        dims["B"], dims["Z"], dims["A"], -1
    ).sum(axis=3)


def record_weights(view):
    """Trace of each block of a view: the squared Frobenius norm of its factor."""
    return {key: float(np.vdot(x, x).real) for key, x in view.blocks.items()}


def view_trace(view):
    return float(sum(record_weights(view).values()))


# The order of a view's registers in the round: the verifier's W, V, A, Y, then the records.
ROUND_ORDER = ("W", "V", "A", "Y", "Z", "Zp")


def full_layout(view):
    """A :class:`DenseRecordedView`'s base and record registers together, in the round's order."""
    registers = view.base_layout.registers + view.record_registers
    return RegisterLayout(sorted(registers, key=lambda reg: ROUND_ORDER.index(reg[0])))


def dense_view(view):
    """Dense operator of a :class:`DenseRecordedView` over its :func:`full_layout`.

    Assembled block by block over the base registers followed by the record
    registers, then reordered, so the measured challenge A sits between V
    and Y again.
    """
    layout = full_layout(view)
    if layout.total_dim > DENSE_VIEW_LIMIT:
        raise MemoryError(
            f"dense view would be {layout.total_dim}x{layout.total_dim}; "
            "compare the view blocks instead"
        )
    stored = view.base_layout.extend(view.record_registers)
    record_layout = RegisterLayout(view.record_registers)
    rec_dim = record_layout.total_dim
    full = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for key, x in view.blocks.items():
        offset = flatten(record_layout, key)
        full[offset::rec_dim, offset::rec_dim] = x @ x.conj().T
    order = list(stored.axes(layout.names))
    axes = order + [len(order) + axis for axis in order]
    full = full.reshape(stored.dims * 2).transpose(axes).reshape(full.shape)
    return DensityOperator(layout, full)


def per_key_trace_distance(v1, v2):
    """Trace distance of two views, one record value at a time.

    The reference for the stacked distance: per key, the QR of the factors
    side by side, ``[X Y] = Q R``, and the spectrum of the core
    ``R diag(I, -I) R†``.
    """
    total = 0.0
    for key in sorted(set(v1.blocks) | set(v2.blocks)):
        x, y = v1.blocks.get(key), v2.blocks.get(key)
        x = np.zeros((y.shape[0], 0), dtype=complex) if x is None else x
        y = np.zeros((x.shape[0], 0), dtype=complex) if y is None else y
        r = np.linalg.qr(np.hstack([x, y]), mode="r")
        rx, ry = r[:, : x.shape[1]], r[:, x.shape[1] :]
        total += trace_distance_matrices(rx @ rx.conj().T, ry @ ry.conj().T)
    return total


def operator_amplified_state(circ, aux):
    """The attempt output after one phase-i :func:`grover_step`, run as its operator chain.

    The reference for ``simulator.amplified_columns``, which runs the same
    step in closed form on the verifier's start basis.
    """
    s2 = grover_step(circ, 1j, 1j).apply_to(circ.layout, attempt_output(circ, aux))
    norm = float(np.linalg.norm(s2))
    if abs(norm - 1.0) > NORM_SLACK:
        raise AssertionError(f"amplified state has norm {norm}")
    return s2 / norm


def success_probability(circ, aux):
    """Squared norm of the projected attempt output."""
    out = attempt_output(circ, aux)
    return float(np.linalg.norm(circ.success_proj.apply_to(circ.layout, out)) ** 2)


def watrous_round(circ, aux, rng):
    """Measure-then-reflect alternative to the phase-i step.

    Measure the success projector on the attempt output; on failure, keep
    the reflected failure part of ``measure_then_reflect``.
    """
    prob, succ, reflected = measure_then_reflect(circ, aux)
    succeeded = rng.random() < prob
    return succeeded, StateVector(circ.layout, succ if succeeded else reflected)


def evolve_two_dim(lam, steps):
    """The (succ, fail) amplitudes of the attempt output after the given phased steps."""
    state = _initial_two_dim(lam)
    for phases in steps:
        state = subspace_matrix(lam, phases) @ state
    return state


def quadratic_feasible_k(lam, k_max=64):
    """The O(k^2) phase search: each candidate k evolves its k - 1 plain steps from the start.

    Returns ``(k, pair, residual)`` like ``amplify.smallest_feasible_k``, or None.
    """
    plain = [PhasePair(-1.0, -1.0)]
    for k in range(1, k_max + 1):
        pair = closing_phases(lam, evolve_two_dim(lam, plain * (k - 1)))
        residual = float(abs(evolve_two_dim(lam, plain * (k - 1) + [pair])[1]))
        if residual <= ATOL_OP:
            return k, pair, residual
    return None
