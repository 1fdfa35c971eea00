"""Exact finite-dimensional quantum register algebra.

Dense, double-precision linear algebra over named tensor-product registers:
state vectors, unitaries and 0/1 diagonal projectors acting on register
subsets, and trace distance.  Flattening is row major with the first register
most significant, and that convention is the single source of truth for every
index computation in the package: every operator acts through
``_on_targets``, on one vector or a block of them.  A diagonal broadcasts its
phases over the layout's shape, so it alone may act on registers that are
apart.  Every other operator needs adjacent targets, and applies itself
(``_act``) to the (pre, side, post) view they make, which copies nothing: an
XOR writer is one gather on the middle axis, a Householder operator updates
one copy in place, and a dense unitary is a right product on trailing
targets, a product on leading ones and a batched product on wide middle
ones.  Only a narrow middle dense product (a single state under a 2x2 split)
moves its axes, where that is faster.  An operator's dense matrix and a
collapsing measurement are built only by the tests, as their oracles.

A Haar-random unitary is kept as Householder panels by :func:`haar_random_op`
(:class:`HouseholderOp`).  Its reflectors are drawn directly, each from its
own Gaussian column, as the Householder QR of a Ginibre matrix would make
them, so neither that matrix, its QR, Q nor ``U† U`` is ever formed.  When
only some columns of the unitary are ever read, only that many reflectors
are drawn, and a row order says which columns they are; the operator keeps
one copy of the reflectors with their rows already in layout order, so it
updates a copy of a block in place, in one pass, and never gathers or
scatters its rows.  Each panel's Gram matrix gives both its T factor, in
closed form, and its part of a spectral-norm bound that validates the
operator.

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
# Peak bytes and dense multiply-adds one command may use; ``cli.preflight``
# refuses, before anything is built, a command estimated above either.
BYTE_BUDGET = 2**30
WORK_BUDGET = 10**11

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

    ``_validate`` may derive more fields, such as ``HouseholderOp.tfactors``.
    The one place an operator is checked: adjoints skip it (``_trusted_variant``),
    since for square U, ``||U U† - I||_2 = ||U† U - I||_2 = max |s_i^2 - 1|``.
    """
    targets = _canonical_targets(layout, targets)
    for name, value in (("layout", layout), ("targets", targets), *data.items()):
        object.__setattr__(op, name, value)
    op._validate(math.prod(layout.dim_of(name) for name in targets))
    for value in vars(op).values():
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


def _on_targets(op, layout: RegisterLayout, amps: np.ndarray) -> np.ndarray:
    """``op`` on raw amplitudes, on its targets' own axes: every ``apply_to`` but a chain's.

    ``amps`` is one amplitude vector, or a block of them with the layout index
    first and any trailing batch axes; ``layout`` must give every target of
    ``op`` its dimension.  A :class:`DiagonalOp` multiplies by its phases
    broadcast over the layout's shape, so its targets may be apart, as the
    (A, B) success projector's are.  Any other operator needs targets that
    are adjacent in ``layout``, and gets them as the middle axis of a
    (pre, side, post) view, which copies nothing, from its own ``_act``.
    """
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
    axes = layout.axes(op.targets)
    shape = layout.dims + amps.shape[1:]
    if isinstance(op, DiagonalOp):
        spread = [dim if axis in axes else 1 for axis, dim in enumerate(shape)]
        return (amps.reshape(shape) * op.phases.reshape(spread)).reshape(amps.shape)
    first, last = axes[0], axes[-1] + 1
    if last - first != len(axes):
        raise LayoutMismatchError(
            f"operator targets {op.targets} are not adjacent in layout {layout.names}; "
            "only a diagonal acts on registers that are apart"
        )
    pre, side = math.prod(shape[:first]), math.prod(shape[first:last])
    return op._act(amps.reshape(pre, side, -1)).reshape(amps.shape)


# A LinearOp on middle targets is one batched product over the leading
# registers when each product covers at least this many amplitudes (its side
# times the trailing size); below it the per-product call costs more than
# moving the axes.  On one BLAS thread, (pre, side, post) = (1024, 2, 6) runs
# 5 to 7 times slower batched and (64, 2, 2304) 4 times faster; on arrays
# that fit in cache the two forms cross between 256 and 512 amplitudes.
_BATCHED_MIN = 512


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

    apply_to = _on_targets

    def _act(self, x: np.ndarray) -> np.ndarray:
        """``M`` on the middle axis of a (pre, side, post) view.

        Leading targets (pre = 1) are one product and trailing ones
        (post = 1) the right product ``x @ M^T``.  Middle targets are one
        batched product from ``_BATCHED_MIN`` amplitudes per product, and
        below it one product on the view with the middle axis moved to the
        front, the only form that moves axes.
        """
        pre, side, post = x.shape
        if post == 1 and pre > 1:
            return x[:, :, 0] @ self.matrix.T
        if pre == 1 or side * post >= _BATCHED_MIN:
            return np.matmul(self.matrix, x)
        out = self.matrix @ np.moveaxis(x, 1, 0).reshape(side, -1)
        return np.moveaxis(out.reshape(side, pre, post), 0, 1)


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

    apply_to = _on_targets


@dataclass(frozen=True)
class XorOp:
    """``|y, c> -> |y XOR codes[c], c>``: a code per control value written into y by bitwise XOR.

    The first target, in layout order, is the data register y, whose dimension
    is a power of two, and the rest are the control c, with one code per
    control value.  XOR is an involution, so the operator is its own adjoint
    and keeps no image table: ``_act`` forms its gather index only while it acts.
    """

    layout: RegisterLayout
    targets: tuple[str, ...]
    codes: np.ndarray

    def __init__(self, layout: RegisterLayout, targets: Sequence[str], codes):
        _init_validated(self, layout, targets, codes=np.asarray(codes, dtype=np.int64))

    kind: str = field(default="unitary", init=False)

    def _validate(self, side: int) -> None:
        data = self.targets[0]
        dim_y = self.layout.dim_of(data)
        if dim_y & (dim_y - 1):
            raise ValueError(f"data register {data!r} has dimension {dim_y}, not a power of two")
        if self.codes.shape != (side // dim_y,):
            raise ValueError(f"codes have shape {self.codes.shape}, expected ({side // dim_y},)")
        if not np.all((self.codes >= 0) & (self.codes < dim_y)):
            raise ValueError(f"a code is outside 0..{dim_y - 1}")

    def adjoint(self) -> "XorOp":
        return self

    apply_to = _on_targets

    def _act(self, x: np.ndarray) -> np.ndarray:
        width = self.codes.size
        y = np.arange(x.shape[1] // width)[:, None]
        return np.take(x, ((y ^ self.codes) * width + np.arange(width)).reshape(-1), axis=1)


def _check_order(order: np.ndarray, side: int) -> None:
    """Refuse, in O(side), a row ``order`` that is not a permutation of ``range(side)``."""
    if order.shape != (side,):
        raise ValueError(f"row order has shape {order.shape}, expected ({side},)")
    in_range = bool(np.all((order >= 0) & (order < side)))
    if not in_range or np.any(np.bincount(order, minlength=side) != 1):
        raise ValueError("row order is not a permutation of the target basis")


# Columns per compact-WY panel of a Householder operator.
_PANEL_WIDTH = 64
# :func:`part_grams` reads all its rows, outputs or reflectors, in chunks of at most this many, so
# that beside them it holds a chunk's rows at one middle index and their conjugate.
GRAM_ROWS = 2**10


def part_grams(rows: np.ndarray, parts: int, split: int) -> np.ndarray:
    """``X_i† X_i`` for X_i the rows at middle index i of (parts, split, rest)."""
    v = rows.reshape(parts, split, -1, rows.shape[1])
    rest, k = v.shape[2:]
    step, cut = max(GRAM_ROWS // (split * rest), 1), min(GRAM_ROWS // split, rest)
    grams = np.zeros((split, k, k), dtype=complex)
    for p in range(0, parts, step):
        for r in range(0, rest, cut):
            for i in range(split):
                chunk = v[p : p + step, i, r : r + cut].reshape(-1, k)
                grams[i] += chunk.conj().T @ chunk
                del chunk  # so that no two copies are held at once
    return grams


@dataclass(frozen=True)
class HouseholderOp:
    """Unitary ``Π† (Q D) Π`` on a subset of registers, with Q kept as Householder panels.

    Q is the product of the k reflectors ``I - tau_j v_j v_j†`` drawn as the
    columns of a ``(d, k)`` unit lower trapezoidal array, the ``reflectors``
    argument, and D the diagonal with the k ``phases`` first and ones after
    them, so ``Q D`` acts as the identity on every vector orthogonal to the
    first k basis states and to the reflectors.  Π is the row ``order``
    (``(Π x)[i] = x[order[i]]``); without an order Π is the identity.  The
    operator stores ``Π† Q D Π`` directly: one copy of the reflectors with
    drawn row i placed at row ``order[i]``, and the phases on rows
    ``order[:k]``.  Π† V has the Gram of V, so nothing else changes.  The
    reflectors are grouped into compact-WY panels ``I - V T V†`` (Schreiber
    and Van Loan) of ``_PANEL_WIDTH`` columns: panel columns ``s:e`` use
    ``V = reflectors[:, s:e]`` (rows ``s:`` only without an order, where the
    rows above are zero) and the upper triangular ``T = tfactors[s:e, :e - s]``.
    ``_act`` copies a (pre, d, post) view once and updates the copy in place,
    in one pass, by the phases and each panel ``x -= V (T (V† x))`` on the
    middle axis, with every product broadcast over pre, so the targets may
    sit at any adjacent position.  That costs about ``2 d k`` multiply-adds
    per vector; neither Q, ``U† U`` nor, in :meth:`input_grams`, U's input
    columns are ever formed.
    """

    layout: RegisterLayout
    targets: tuple[str, ...]
    reflectors: np.ndarray
    tau: np.ndarray
    phases: np.ndarray
    order: np.ndarray | None

    def __init__(
        self, layout: RegisterLayout, targets: Sequence[str], reflectors, tau, phases, order=None
    ):
        _init_validated(
            self,
            layout,
            targets,
            reflectors=np.asarray(reflectors, dtype=complex),
            tau=np.asarray(tau, dtype=complex),
            phases=np.asarray(phases, dtype=complex),
            order=None if order is None else np.asarray(order, dtype=np.int64),
        )

    kind: str = field(default="unitary", init=False)
    # Built by ``_validate`` from the drawn reflectors and ``tau``.
    tfactors: np.ndarray = field(init=False)
    # The adjoint holds the same data and applies ``Π† D̄ Q† Π`` instead.
    inverse: bool = field(default=False, init=False)

    @property
    def columns(self) -> int:
        """k, the number of reflectors; columns ``inputs``, ``order[:k]``, are the Haar ones of a draw."""
        return len(self.tau)

    def _panels(self):
        """``(rows, V, T)`` of each stored panel, first panel first; V is zero off ``rows``."""
        k = self.columns
        for s in range(0, k, _PANEL_WIDTH):
            e = min(s + _PANEL_WIDTH, k)
            rows = slice(s, None) if self.order is None else slice(None)
            yield rows, self.reflectors[rows, s:e], self.tfactors[s:e, : e - s]

    def _validate(self, side: int) -> None:
        """Build each panel's T from its Gram ``G = V† V``, bound the deviation with G, place the rows.

        ``T⁻¹ = diag(1/tau) + striu(G)`` (Joffrain et al., TOMS 2006), the
        closed form of LAPACK's ``zlarft`` recurrence; it is inverted as
        ``(I + diag(tau) striu(G))⁻¹ diag(tau)``, which needs no division by tau.
        G is taken on the drawn rows ``s:`` of each panel.  The placed copy is
        C-ordered, where a row scatter is fastest, and replaces the drawn one.
        """
        drawn = self.reflectors
        k = len(self.tau) if self.tau.ndim == 1 else -1
        if drawn.shape != (side, k) or self.phases.shape != (k,):
            raise ValueError(
                f"Householder data has shapes {drawn.shape}, {self.tau.shape}, {self.phases.shape}; "
                f"expected ({side}, k), (k,), (k,)"
            )
        if k > side:
            raise ValueError(f"{k} reflectors on {side} rows: k must be at most {side}")
        if self.order is not None:
            _check_order(self.order, side)
        tfactors = np.zeros((k, min(_PANEL_WIDTH, k)), dtype=complex)
        grams = []
        for s in range(0, k, _PANEL_WIDTH):
            v = drawn[s:, s : s + _PANEL_WIDTH]
            gram = v.conj().T @ v
            tau = self.tau[s : s + len(gram)]
            t = np.eye(len(tau)) + tau[:, None] * np.triu(gram, 1)
            tfactors[s : s + len(gram), : len(gram)] = np.linalg.inv(t) * tau
            grams.append(gram)
        object.__setattr__(self, "tfactors", tfactors)
        bound = self._deviation_bound(grams)
        if bound > ATOL_OP:
            raise ValueError(f"Householder panels are not unitary (deviation bound {bound:.3e})")
        if self.order is not None:
            placed = np.empty((side, k), dtype=complex)
            placed[self.order] = drawn
            object.__setattr__(self, "reflectors", placed)

    def _deviation_bound(self, grams) -> float:
        """An upper bound on ``||U† U - I||_2`` for the panels and phases as applied.

        ``grams`` holds each panel's ``G = V† V``.  Each panel has
        ``Q† Q - I = V (T† G T - T - T†) V†``, so its deviation is at most
        ``||G||_2 ||T† G T - T - T†||_2``, both norms from the spectra of
        small Hermitian matrices.  Deviations compose as
        ``||(AB)† AB - I|| <= (1 + ||A† A - I||)(1 + ||B† B - I||) - 1``, D
        deviates by ``max ||d|^2 - 1|`` over its k phases (the rest are 1),
        and Π, a permutation, by nothing.
        """
        bound = 1 + float(np.max(np.abs(np.abs(self.phases) ** 2 - 1), initial=0.0))
        for (_, _, t), gram in zip(self._panels(), grams):
            core = t.conj().T @ gram @ t - t - t.conj().T
            bound *= 1 + _hermitian_norm(gram) * _hermitian_norm(core)
        return bound - 1

    def adjoint(self) -> "HouseholderOp":
        return _trusted_variant(self, inverse=not self.inverse)

    apply_to = _on_targets

    @property
    def inputs(self) -> np.ndarray:
        return np.arange(self.columns) if self.order is None else self.order[: self.columns]

    def input_grams(self, parts: int, split: int) -> np.ndarray:
        """``U_S† P_i U_S`` for the input columns S and each row part i: shape (split, k, k).

        P_i keeps index i of the middle axis of the rows read as (parts, split, rest).  With
        ``Z = T V[S]†``, for Q's whole T and the head rows V[S], ``U_S = (E_S - V Z) D``: its
        head rows are ``Y = D - V[S] Z D`` and its other rows ``-V Z D``.  So the Gram is
        ``Y_i† Y_i + D̄ Z† H_i Z D``, for the head rows Y_i in part i and the Gram H_i of part
        i's other rows of V: two Grams, so Y's O(1) terms cancel against nothing.  H_i is part
        i's Gram from :func:`part_grams` (``d k^2`` multiply-adds) less its head rows' Gram,
        taken out once.  Z is solved panel by panel, last first, from the stored T factors and
        the whole ``V† V``, the parts' Grams summed: ``O(k^3)``, with no division by tau.
        """
        if self.inverse:
            raise ValueError("input Grams are of the operator, not of its adjoint")
        k, heads = self.columns, self.inputs
        grams = part_grams(self.reflectors, parts, split)
        rest = len(self.reflectors) // (parts * split)
        head_rows, z = self.reflectors[heads], np.zeros((k, k), dtype=complex)
        whole = grams.sum(axis=0)
        in_part = ((heads // rest) % split == np.arange(split)[:, None])[:, :, None]
        grams -= (in_part * head_rows.conj()).swapaxes(1, 2) @ head_rows
        for s in reversed(range(0, k, _PANEL_WIDTH)):
            e = min(s + _PANEL_WIDTH, k)
            z[s:e] = self.tfactors[s:e, : e - s] @ (head_rows[:, s:e].conj().T - whole[s:e] @ z)
        z *= self.phases
        y = np.diag(self.phases) - head_rows @ z
        grams = z.conj().T @ grams @ z
        grams += (in_part * y.conj()).swapaxes(1, 2) @ y
        return grams

    def _act(self, x: np.ndarray) -> np.ndarray:
        """The operator on a copy of a (pre, side, post) block, updated in place in one pass."""
        out = x.copy()
        heads = slice(self.columns) if self.order is None else self.order[: self.columns]
        phases = (self.phases.conj() if self.inverse else self.phases)[:, None]
        panels = list(self._panels())
        if not self.inverse:
            panels.reverse()
            out[:, heads] *= phases
        for rows, v, t in panels:
            w = v.conj().T @ out[:, rows]
            out[:, rows] -= v @ ((t.conj().T if self.inverse else t) @ w)
        if self.inverse:
            out[:, heads] *= phases
        return out


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

    def on_basis(self, layout: RegisterLayout, rows: np.ndarray) -> np.ndarray:
        """``apply_to(layout, basis_columns(d, rows))``, the first factor acting on its side only.

        Basis vector ``(pre, t, post)``, t its index over the first factor's targets, goes to
        ``op e_t`` placed at ``(pre, :, post)`` (for targets that are apart, at every target
        index with the other digits kept).  So the first factor acts once, through its own
        ``apply_to``, on the distinct t, on the layout with every other register at dimension 1
        (which refuses what the whole layout refuses), and one indexed assignment places its
        images in a d x len(rows) block, on which the rest of the chain acts.
        """
        amps = _basis_images(self.factors[0], layout, np.asarray(rows, dtype=np.int64))
        for op in self.factors[1:]:
            amps = op.apply_to(layout, amps)
        return amps


def _basis_images(op, layout: RegisterLayout, rows: np.ndarray) -> np.ndarray:
    """The first factor's part of :meth:`OpChain.on_basis`, whose index arrays die with it."""
    sub = RegisterLayout((name, dim if name in op.targets else 1) for name, dim in layout.registers)
    strides = np.array([math.prod(layout.dims[axis + 1 :]) for axis in range(len(layout.dims))])
    spots = np.stack(np.unravel_index(np.arange(sub.total_dim), sub.dims), axis=1) @ strides
    part = rows[:, None] // strides % sub.dims @ strides  # each row's target digits, in place
    parts, which = np.unique(part, return_inverse=True)
    images = op.apply_to(sub, basis_columns(sub.total_dim, np.searchsorted(spots, parts)))
    amps = np.zeros((layout.total_dim, rows.size), dtype=complex)
    amps[spots[:, None] + (rows - part), np.arange(rows.size)] = images[:, which]
    return amps


def dense_bytes(side: int) -> int:
    """Budget bytes of one dense side of a layout: four complex matrices of that side."""
    return 4 * 16 * side**2


def basis_columns(d: int, rows: np.ndarray) -> np.ndarray:
    """The d x len(rows) block of the basis vectors at ``rows``."""
    columns = np.zeros((d, rows.size), dtype=complex)
    columns[rows, np.arange(rows.size)] = 1.0
    return columns


def trace_distance_matrices(m1: np.ndarray, m2: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(m1 - m2))))


def _gaussian_columns(dim: int, seed: int, k: int | None = None) -> np.ndarray:
    """The first k columns (all ``dim`` by default) of a lower triangle of complex Gaussians.

    The values have unit variance and are deterministic per seed.  The
    generator fills the columns in order, in place: column j holds ``dim - j``
    of them, from row j down.  Its stream does not depend on how it is split
    into calls, so k columns are the first k of the full triangle, bit for bit.
    """
    k = dim if k is None else k
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if not 0 <= k <= dim:
        raise ValueError(f"column count must be in 0..{dim}, got {k}")
    rng = np.random.default_rng(seed)
    lower = np.zeros((dim, k), dtype=complex, order="F")
    for j in range(k):
        rng.standard_normal(out=lower[j:, j].view(np.float64))
    # The reciprocal, which the pinned seed -> verifier map was scaled by, bit for bit.
    lower *= 1.0 / np.sqrt(2)
    return lower


def haar_random_op(
    layout: RegisterLayout, targets: Sequence[str], seed: int, inputs=None
) -> HouseholderOp:
    """Unitary on ``targets`` whose ``inputs`` columns are Haar, deterministic per seed, unformed.

    Householder QR of a complex Ginibre matrix reduces column j to an i.i.d.
    Gaussian vector of length ``side - j``, independent of the earlier
    reflectors (Gaussian rotation invariance), so the reflectors are drawn
    directly, one per column of :func:`_gaussian_columns` (Stewart 1980).
    Each follows LAPACK's ``zlarfg``: for a column ``x`` with head ``alpha``,
    ``beta = -sign(Re alpha) ||x||``, ``tau = (beta - alpha) / beta`` and
    ``v = x / (alpha - beta)`` with a unit head.  ``beta`` is R's diagonal,
    so ``D = sign(beta)`` makes the distribution exactly Haar (Mezzadri 2007).

    With ``inputs=None`` all ``side`` reflectors are drawn and the operator is
    Haar.  Otherwise only the first ``k = len(inputs)`` are, and the row order
    puts the flat target indices ``inputs`` first and the rest after them in
    increasing order.  Reflectors k and later fix the first k basis states,
    so column ``inputs[j]`` of the result is column j of the full draw moved
    by that order: the input columns are jointly Haar-distributed, and the
    operator fixes every vector orthogonal to them and to the k reflectors.
    The reflectors, tau, D and the order go to :class:`HouseholderOp`
    unchanged, which builds its panel T factors from them and places the
    reflectors' rows by the order.
    """
    side = math.prod(layout.dim_of(name) for name in targets)
    order = None
    if inputs is not None:
        inputs = np.asarray(inputs, dtype=np.int64).reshape(-1)
        rest = np.ones(side, dtype=bool)
        rest[inputs] = False
        order = np.concatenate([inputs, np.flatnonzero(rest)])
    reflectors = _gaussian_columns(side, seed, None if inputs is None else len(inputs))
    alpha = reflectors.diagonal().copy()
    beta = np.where(alpha.real >= 0, -1.0, 1.0) * np.linalg.norm(reflectors, axis=0)
    tau = (beta - alpha) / beta
    reflectors /= alpha - beta
    np.fill_diagonal(reflectors, 1.0)
    return HouseholderOp(layout, targets, reflectors, tau, np.sign(beta), order)


def random_state(dim: int, seed: int) -> np.ndarray:
    """Haar-random unit vector, deterministic per seed."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
