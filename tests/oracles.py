"""Dense kron oracles for the operator algebra.

The package builds every dense matrix by applying an operator to the
identity (``zkamp.registers.to_matrix``).  The oracles here build the same
matrices independently: each factor's local matrix is embedded with ``kron``
and a tensor transpose, and a chain multiplies its embedded factors.
"""

import math

import numpy as np

from zkamp.registers import DiagonalOp, HouseholderOp, LinearOp, OpChain, PermutationOp


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
