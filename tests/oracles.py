"""Dense oracles for the factored runtime path.

The package keeps states as raw amplitude blocks, operators in factored
form and verifier views as record-keyed factors, and builds every dense
matrix by applying an operator to the identity (``zkamp.registers.to_matrix``).
The oracles here are the independent dense forms the tests compare against:
kron embeddings of operators, density operators with their channels and
trace distance, checked state operations, the dense Haar draw, the dense
verifier view, and the sampled measure-then-reflect round.
"""

import math
from dataclasses import dataclass

import numpy as np

from zkamp.registers import (
    ATOL_NORM,
    ATOL_OP,
    NORM_SLACK,
    DiagonalOp,
    HouseholderOp,
    LayoutMismatchError,
    LinearOp,
    OpChain,
    PermutationOp,
    RegisterLayout,
    StateVector,
    _gaussian_columns,
    trace_distance_matrices,
)
from zkamp.simulator import attempt_output, measure_then_reflect

# Largest full view layout, records included, that dense_view assembles.
DENSE_VIEW_LIMIT = 4096


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
    if isinstance(op, PermutationOp):
        side = len(op.image)
        mat = np.zeros((side, side), dtype=complex)
        mat[op.image, np.arange(side)] = 1.0
        return mat
    if isinstance(op, HouseholderOp):
        # Q D as a dense product of the panel matrices I - V T V†.
        side, width = op.tfactors.shape
        q = np.eye(side, dtype=complex)
        for s in range(0, side, width):
            e = min(s + width, side)
            v = np.zeros((side, e - s), dtype=complex)
            v[s:] = op.reflectors[s:, s:e]
            q = q @ (np.eye(side) - v @ op.tfactors[s:e, : e - s] @ v.conj().T)
        mat = q * op.phases
        return mat.conj().T if op.inverse else mat
    raise TypeError(f"no local matrix for {type(op).__name__}")


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
    amps[layout.flatten([assignment[name] for name in layout.names])] = 1.0
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


def record_weights(view):
    """Trace of each block of a ``RecordedView``: the squared Frobenius norm of its factor."""
    return {key: float(np.vdot(x, x).real) for key, x in view.blocks.items()}


def view_trace(view):
    return float(sum(record_weights(view).values()))


def full_layout(view):
    """The layout of a ``RecordedView``'s base registers with its record registers appended."""
    return view.base_layout.extend(view.record_registers)


def dense_view(view):
    """Dense operator of a ``RecordedView``, the record registers appended to its layout."""
    layout = full_layout(view)
    if layout.total_dim > DENSE_VIEW_LIMIT:
        raise MemoryError(
            f"dense view would be {layout.total_dim}x{layout.total_dim}; "
            "compare RecordedView blocks instead"
        )
    record_layout = RegisterLayout(view.record_registers)
    rec_dim = record_layout.total_dim
    full = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    for key, x in view.blocks.items():
        offset = record_layout.flatten(key)
        full[offset::rec_dim, offset::rec_dim] = x @ x.conj().T
    return DensityOperator(layout, full)


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
