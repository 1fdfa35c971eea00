"""Exact finite-dimensional quantum register algebra.

Dense, double-precision linear algebra over named tensor-product registers:
state vectors, unitaries and 0/1 diagonal projectors acting on register
subsets, computational-basis measurement and trace distance.  Flattening is
row major with the first register most significant, and that convention is
the single source of truth for every index computation in the package: every
operator acts through ``_on_targets``, and a dense matrix is only ever an
operator applied to the identity (:func:`to_matrix`).

A Haar-random unitary is kept as Householder panels by :func:`haar_random_op`
(:class:`HouseholderOp`).  Its reflectors are drawn directly, each from its
own Gaussian column, as the Householder QR of a Ginibre matrix would make
them, so neither that matrix, its QR, Q nor ``U† U`` is ever formed.  It is
validated by a spectral-norm bound built from small panel matrices.

All values are immutable after construction and every operation is pure
(given its rng), so everything here is safe to share across threads.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Operator identities are accepted at 1e-10; norm and trace preservation at
# 1e-12 (double precision accumulated over <= 1e4-dim contractions).
ATOL_OP = 1e-10
ATOL_NORM = 1e-12
# A state handed between operations may drift from unit norm by this much
# before it is refused as unnormalized.
NORM_SLACK = 1e-9
# A branch whose squared norm is below this carries no amplitude.
ZERO_NORM_SQ = 1e-24

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class LayoutMismatchError(ValueError):
    """Two values live over incompatible register layouts."""


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers defining a tensor-product index space."""

    registers: tuple[tuple[str, int], ...]

    def __init__(self, registers: Iterable[tuple[str, int]]):
        regs = tuple((str(name), int(dim)) for name, dim in registers)
        names = [name for name, _ in regs]
        if len(set(names)) != len(names):
            raise ValueError(f"register names must be distinct, got {names}")
        for name, dim in regs:
            if dim < 1:
                raise ValueError(f"register {name!r} has dimension {dim} < 1")
        object.__setattr__(self, "registers", regs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.registers)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, name: str) -> int:
        """Position of a register in the layout order."""
        for i, (reg, _) in enumerate(self.registers):
            if reg == name:
                return i
        raise KeyError(f"unknown register {name!r}; layout has {self.names}")

    def dim_of(self, name: str) -> int:
        return self.registers[self.axis(name)][1]

    def axes(self, names: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.axis(name) for name in names)

    def flatten(self, indices: Sequence[int]) -> int:
        """Row-major flat index of a multi-index (first register most significant)."""
        if len(indices) != len(self.registers):
            raise ValueError("multi-index length does not match register count")
        flat = 0
        for idx, (name, dim) in zip(indices, self.registers):
            if not 0 <= idx < dim:
                raise ValueError(f"index {idx} out of range for register {name!r} (dim {dim})")
            flat = flat * dim + idx
        return flat

    def unflatten(self, flat: int) -> tuple[int, ...]:
        if not 0 <= flat < self.total_dim:
            raise ValueError(f"flat index {flat} out of range [0, {self.total_dim})")
        out = []
        for dim in reversed(self.dims):
            out.append(flat % dim)
            flat //= dim
        return tuple(reversed(out))

    def keep(self, names: Sequence[str]) -> "RegisterLayout":
        """Sub-layout containing only the given registers, original order."""
        wanted = set(names)
        missing = wanted - set(self.names)
        if missing:
            raise KeyError(f"unknown registers {sorted(missing)}")
        return RegisterLayout(tuple(reg for reg in self.registers if reg[0] in wanted))

    def extend(self, extra: Iterable[tuple[str, int]]) -> "RegisterLayout":
        return RegisterLayout(self.registers + tuple(extra))


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector over a layout.

    Public operations only ever hand out unit vectors; unnormalized
    intermediates are kept as raw ndarrays internally.
    """

    layout: RegisterLayout
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (self.layout.total_dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.layout.total_dim},)"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_SLACK:
            raise ValueError(f"state vector norm {norm} is not 1")
        # Scrub the residual O(eps) norm drift so chained operations cannot
        # accumulate past the 1e-12 contract.
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


def _canonical_targets(layout: RegisterLayout, targets: Sequence[str]) -> tuple[str, ...]:
    """Targets sorted into layout order; duplicates and unknown names rejected."""
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate targets in {targets}")
    axes = layout.axes(targets)
    order = np.argsort(axes)
    return tuple(targets[i] for i in order)


def _init_validated(op, layout: RegisterLayout, targets: Sequence[str], **data) -> None:
    """Store a new operator's fields, run its ``_validate(side)``, then freeze its arrays.

    The one place an operator is checked: adjoints skip it (``_trusted_variant``),
    since for square U, ``||U U† - I||_2 = ||U† U - I||_2 = max |s_i^2 - 1|``.
    """
    targets = _canonical_targets(layout, targets)
    for name, value in (("layout", layout), ("targets", targets), *data.items()):
        object.__setattr__(op, name, value)
    op._validate(math.prod(layout.dim_of(name) for name in targets))
    for value in data.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


def _trusted_variant(op, **data):
    """Copy of a validated operator with ``data`` replaced, not validated again."""
    out = copy.copy(op)
    for name, value in data.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(out, name, value)
    return out


@dataclass(frozen=True)
class LinearOp:
    """Dense unitary on a subset of registers.

    The matrix is indexed row major over the targets in layout order.  An op
    may be applied to any state whose layout carries the same (name, dim)
    pairs for every target, so one operator serves both the four-register
    verifier-view space and the six-register simulator space.
    """

    layout: RegisterLayout
    targets: tuple[str, ...]
    matrix: np.ndarray

    def __init__(self, layout: RegisterLayout, targets: Sequence[str], matrix):
        _init_validated(self, layout, targets, matrix=np.asarray(matrix, dtype=complex))

    kind: str = field(default="unitary", init=False)

    def _validate(self, side: int) -> None:
        mat = self.matrix
        if mat.shape != (side, side):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({side}, {side})")
        err = np.max(np.abs(mat.conj().T @ mat - np.eye(side)))
        if err > ATOL_OP:
            raise ValueError(f"matrix is not unitary (deviation {err:.3e})")

    def adjoint(self) -> "LinearOp":
        return _trusted_variant(self, matrix=self.matrix.conj().T)

    def apply_to(self, layout: RegisterLayout, amps: np.ndarray) -> np.ndarray:
        _check_targets_compatible(self, layout)
        return _on_targets(layout, self.targets, amps, lambda flat: self.matrix @ flat)


@dataclass(frozen=True)
class DiagonalOp:
    """Diagonal in the computational basis of its targets.

    ``kind="unitary"`` holds unit-modulus phases; ``kind="projector"`` holds
    a mask whose entries are exactly 0 or 1.
    """

    layout: RegisterLayout
    targets: tuple[str, ...]
    phases: np.ndarray
    kind: str

    def __init__(self, layout: RegisterLayout, targets: Sequence[str], phases, kind: str = "unitary"):
        _init_validated(self, layout, targets, phases=np.asarray(phases, dtype=complex), kind=kind)

    def _validate(self, side: int) -> None:
        if self.phases.shape != (side,):
            raise ValueError(f"diagonal has shape {self.phases.shape}, expected ({side},)")
        if self.kind == "unitary":
            if np.max(np.abs(np.abs(self.phases) - 1.0)) > ATOL_NORM:
                raise ValueError("diagonal entries must have unit modulus")
        elif self.kind == "projector":
            if not np.all((self.phases == 0) | (self.phases == 1)):
                raise ValueError("projector diagonal entries must be exactly 0 or 1")
        else:
            raise ValueError(f"kind must be 'unitary' or 'projector', got {self.kind!r}")

    def adjoint(self) -> "DiagonalOp":
        return _trusted_variant(self, phases=self.phases.conj())

    def apply_to(self, layout: RegisterLayout, amps: np.ndarray) -> np.ndarray:
        _check_targets_compatible(self, layout)
        return _on_targets(layout, self.targets, amps, lambda flat: self.phases[:, None] * flat)


@dataclass(frozen=True)
class PermutationOp:
    """Unitary relabeling of the computational basis of its targets.

    ``image[j]`` is the flat target index that basis state ``j`` maps to, so
    the dense matrix has a single 1 per column at row ``image[j]``.
    """

    layout: RegisterLayout
    targets: tuple[str, ...]
    image: np.ndarray

    def __init__(self, layout: RegisterLayout, targets: Sequence[str], image):
        _init_validated(self, layout, targets, image=np.asarray(image, dtype=np.int64))

    kind: str = field(default="unitary", init=False)

    def _validate(self, side: int) -> None:
        if self.image.shape != (side,):
            raise ValueError(f"image has shape {self.image.shape}, expected ({side},)")
        if sorted(self.image.tolist()) != list(range(side)):
            raise ValueError("image is not a permutation of the target basis")

    def adjoint(self) -> "PermutationOp":
        inverse = np.empty_like(self.image)
        inverse[self.image] = np.arange(len(self.image))
        return _trusted_variant(self, image=inverse)

    def apply_to(self, layout: RegisterLayout, amps: np.ndarray) -> np.ndarray:
        _check_targets_compatible(self, layout)

        def permute(flat: np.ndarray) -> np.ndarray:
            out = np.empty_like(flat)
            out[self.image] = flat
            return out

        return _on_targets(layout, self.targets, amps, permute)


@dataclass(frozen=True)
class HouseholderOp:
    """Unitary ``Q D`` on a subset of registers, with Q kept as Householder panels.

    Q is the product of the reflectors ``I - tau_j v_j v_j†`` held in the
    columns of ``reflectors`` (unit lower triangular), grouped into
    compact-WY panels ``I - V T V†`` (Schreiber and Van Loan): panel columns
    ``s:e`` use ``V = reflectors[s:, s:e]`` and the upper triangular
    ``T = tfactors[s:e, :e - s]``, so the width of ``tfactors`` is the panel
    width.  D is the diagonal ``phases``.  Applying the panels costs about
    one dense product, and neither Q nor ``U† U`` is ever formed.
    """

    layout: RegisterLayout
    targets: tuple[str, ...]
    reflectors: np.ndarray
    tfactors: np.ndarray
    phases: np.ndarray

    def __init__(
        self, layout: RegisterLayout, targets: Sequence[str], reflectors, tfactors, phases
    ):
        _init_validated(
            self,
            layout,
            targets,
            reflectors=np.asarray(reflectors, dtype=complex),
            tfactors=np.asarray(tfactors, dtype=complex),
            phases=np.asarray(phases, dtype=complex),
        )

    kind: str = field(default="unitary", init=False)
    # The adjoint holds the same data and applies ``D̄ Q†`` instead.
    inverse: bool = field(default=False, init=False)

    def _panels(self):
        """``(start, V, T)`` of each panel, first panel first."""
        side, width = self.tfactors.shape
        for s in range(0, side, width):
            e = min(s + width, side)
            yield s, self.reflectors[s:, s:e], self.tfactors[s:e, : e - s]

    def _validate(self, side: int) -> None:
        t_shape = self.tfactors.shape
        if (
            self.reflectors.shape != (side, side)
            or len(t_shape) != 2
            or t_shape[0] != side
            or not 1 <= t_shape[1] <= side
            or self.phases.shape != (side,)
        ):
            raise ValueError(
                f"Householder data has shapes {self.reflectors.shape}, {self.tfactors.shape}, "
                f"{self.phases.shape}; expected ({side}, {side}), ({side}, w <= {side}), ({side},)"
            )
        bound = self._deviation_bound()
        if bound > ATOL_OP:
            raise ValueError(f"Householder panels are not unitary (deviation bound {bound:.3e})")

    def _deviation_bound(self) -> float:
        """An upper bound on ``||U† U - I||_2`` for the panels and phases as applied.

        Each panel has ``Q† Q - I = V (T† G T - T - T†) V†`` with ``G = V† V``,
        so its deviation is at most ``||G||_2 ||T† G T - T - T†||_2``, both
        norms from the spectra of small Hermitian matrices.  Deviations
        compose as ``||(AB)† AB - I|| <= (1 + ||A† A - I||)(1 + ||B† B - I||) - 1``,
        and D deviates by ``max ||d|^2 - 1|``.
        """
        bound = 1 + float(np.max(np.abs(np.abs(self.phases) ** 2 - 1)))
        for _, v, t in self._panels():
            gram = v.conj().T @ v
            core = t.conj().T @ gram @ t - t - t.conj().T
            bound *= 1 + _hermitian_norm(gram) * _hermitian_norm(core)
        return bound - 1

    def adjoint(self) -> "HouseholderOp":
        return _trusted_variant(self, inverse=not self.inverse)

    def apply_to(self, layout: RegisterLayout, amps: np.ndarray) -> np.ndarray:
        _check_targets_compatible(self, layout)
        return _on_targets(layout, self.targets, amps, self._act)

    def _act(self, flat: np.ndarray) -> np.ndarray:
        if self.inverse:
            out = flat.copy()
            for s, v, t in self._panels():
                out[s:] -= v @ (t.conj().T @ _adjoint_times(v, out[s:]))
            return self.phases.conj()[:, None] * out
        out = self.phases[:, None] * flat
        for s, v, t in reversed(list(self._panels())):
            out[s:] -= v @ (t @ _adjoint_times(v, out[s:]))
        return out


def _adjoint_times(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``v† x``, conjugating the narrower of the two: ``conj(v^T conj(x))`` is the same sum."""
    if x.shape[1] < v.shape[1]:
        return (v.T @ x.conj()).conj()
    return v.conj().T @ x


def _hermitian_norm(h: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


@dataclass(frozen=True)
class OpChain:
    """Product of unitaries, applied first factor first.

    ``OpChain((f, g, h))`` acts as the matrix product ``h @ g @ f``.
    """

    factors: tuple

    def __post_init__(self):
        self._validate()

    def _validate(self) -> None:
        if not self.factors:
            raise ValueError("empty operator chain")
        for op in self.factors:
            if getattr(op, "kind", None) != "unitary":
                raise ValueError("chain factors must be unitary operators")

    kind: str = field(default="unitary", init=False)

    @property
    def targets(self) -> tuple[str, ...]:
        seen: list[str] = []
        for op in self.factors:
            for name in op.targets:
                if name not in seen:
                    seen.append(name)
        return tuple(seen)

    def adjoint(self) -> "OpChain":
        return _trusted_variant(self, factors=tuple(op.adjoint() for op in reversed(self.factors)))

    def apply_to(self, layout: RegisterLayout, amps: np.ndarray) -> np.ndarray:
        for op in self.factors:
            amps = op.apply_to(layout, amps)
        return amps


def _check_targets_compatible(op, layout: RegisterLayout) -> None:
    """Raise unless ``layout`` gives every target of ``op`` its dimension."""
    for name in op.targets:
        try:
            dim = layout.dim_of(name)
        except KeyError:
            raise LayoutMismatchError(
                f"operator targets {op.targets} but layout has {layout.names}"
            ) from None
        if dim != op.layout.dim_of(name):
            raise LayoutMismatchError(
                f"register {name!r} has dim {dim} in the state layout "
                f"but {op.layout.dim_of(name)} in the operator layout"
            )


def _on_targets(layout: RegisterLayout, targets: Sequence[str], amps: np.ndarray, act) -> np.ndarray:
    """``act`` applied to raw amplitudes viewed as a (target basis, rest) matrix.

    ``amps`` is one amplitude vector, or a block of them with the layout index
    first and any trailing batch axes.  The targets are moved to the front in
    layout order and flattened into the rows; ``act`` returns a matrix of the
    same shape, which is moved back.
    """
    axes = layout.axes(targets)
    moved = np.moveaxis(amps.reshape(layout.dims + amps.shape[1:]), axes, range(len(axes)))
    out = act(moved.reshape(math.prod(moved.shape[: len(axes)]), -1))
    return np.moveaxis(out.reshape(moved.shape), range(len(axes)), axes).reshape(amps.shape)


_EMBED_DIM_LIMIT = 8192


def to_matrix(op, layout: RegisterLayout) -> np.ndarray:
    """Dense layout-sized matrix of an operator: its action on every basis vector."""
    total = layout.total_dim
    if total > _EMBED_DIM_LIMIT:
        raise MemoryError(
            f"refusing to materialize a {total}x{total} dense operator; "
            "apply the factored form instead"
        )
    return op.apply_to(layout, np.eye(total, dtype=complex))


def measurement_probabilities(state: StateVector, register: str) -> np.ndarray:
    """Born probability of each computational outcome of one register."""
    axis = state.layout.axis(register)
    dims = state.layout.dims
    moved = np.moveaxis(state.amps.reshape(dims), axis, 0)
    return np.sum(np.abs(moved.reshape(dims[axis], -1)) ** 2, axis=1)


def measure(
    state: StateVector, register: str, rng: np.random.Generator
) -> tuple[int, float, StateVector]:
    """Sample a computational-basis measurement of one register.

    Deterministic given the generator state; the collapsed state is the
    renormalized conditional vector for the sampled outcome.
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


def trace_distance_matrices(m1: np.ndarray, m2: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(m1 - m2))))


def _gaussian_columns(dim: int, seed: int) -> np.ndarray:
    """Lower triangle of unit-variance complex Gaussians, deterministic per seed.

    One draw of ``dim (dim + 1) / 2`` values fills the columns in order:
    column j holds ``dim - j`` of them, from row j down.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(dim * (dim + 1)).view(complex) / np.sqrt(2)
    # The upper triangle of the transpose, filled row by row, is the lower
    # triangle filled column by column.
    lower_t = np.zeros((dim, dim), dtype=complex)
    lower_t[np.tri(dim, dtype=bool).T] = values
    return lower_t.T


# Columns per compact-WY panel of a Householder operator.
_PANEL_WIDTH = 64


def haar_random_op(layout: RegisterLayout, targets: Sequence[str], seed: int) -> HouseholderOp:
    """Haar-distributed unitary ``Q D`` on ``targets``, deterministic per seed, without forming Q.

    Householder QR of a complex Ginibre matrix reduces column j to an i.i.d.
    Gaussian vector of length ``side - j``, independent of the earlier
    reflectors (Gaussian rotation invariance), so the reflectors are drawn
    directly, one per column of :func:`_gaussian_columns` (Stewart 1980).
    Each follows LAPACK's ``zlarfg``: for a column ``x`` with head ``alpha``,
    ``beta = -sign(Re alpha) ||x||``, ``tau = (beta - alpha) / beta`` and
    ``v = x / (alpha - beta)`` with a unit head.  ``beta`` is R's diagonal,
    so ``D = sign(beta)`` makes the distribution exactly Haar (Mezzadri 2007).
    """
    side = math.prod(layout.dim_of(name) for name in targets)
    reflectors = _gaussian_columns(side, seed)
    alpha = reflectors.diagonal().copy()
    beta = np.where(alpha.real >= 0, -1.0, 1.0) * np.linalg.norm(reflectors, axis=0)
    tau = (beta - alpha) / beta
    reflectors /= alpha - beta
    np.fill_diagonal(reflectors, 1.0)
    return HouseholderOp(
        layout, targets, reflectors, _compact_wy_factors(reflectors, tau), np.sign(beta)
    )


def _compact_wy_factors(reflectors: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The T factors of :class:`HouseholderOp` panels for the given reflectors and ``tau``.

    Each panel's T follows the forward recurrence of LAPACK's ``zlarft``:
    ``T[j, j] = tau_j`` and ``T[:j, j] = -tau_j T[:j, :j] (V† V)[:j, j]``.
    """
    side = len(tau)
    width = min(_PANEL_WIDTH, side)
    tfactors = np.zeros((side, width), dtype=complex)
    for s in range(0, side, width):
        v = reflectors[s:, s : s + width]
        gram = v.conj().T @ v
        t = tfactors[s : s + width, : v.shape[1]]
        for j in range(v.shape[1]):
            t[j, j] = tau[s + j]
            t[:j, j] = -tau[s + j] * (t[:j, :j] @ gram[:j, j])
    return tfactors


def random_state(dim: int, seed: int) -> np.ndarray:
    """Haar-random unit vector, deterministic per seed."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
