"""Differential tests: factored recorded views against the dense oracle.

Every view block is stored as a factor X with block = X X^dagger, and two
blocks are compared through the QR core of [X Y].  These tests rebuild the
dense operators and check the factored trace, record weights and trace
distance against them, for honest and Haar verifiers, with and without the
response record, on pairs of views whose distance is zero (same auxiliary
input) and nonzero (different auxiliary inputs).
"""

import functools
import itertools

import numpy as np
import pytest

from zkamp.protocol import (
    Instance,
    adversarial_verifier,
    honest_response,
    honest_verifier,
    random_aux,
    real_view_recorded,
    view_layout,
)
from zkamp.registers import RegisterLayout, trace_distance_matrices
from zkamp.simulator import build_circuit, simulate_round_recorded
from zkamp.symm import Graph, act, encode, enumerate_sn

from oracles import (
    DENSE_VIEW_LIMIT,
    dense_view,
    dephase_matrix,
    flatten,
    full_layout,
    record_weights,
    trace_distance,
    unflatten,
    view_trace,
)

GRAPHS = {
    2: (Graph(2, [(0, 1)]), Graph(2, [(0, 1)])),
    3: (Graph(3, [(0, 1), (1, 2)]), Graph(3, [(0, 1), (0, 2)])),
}
CASES = list(
    itertools.product((2, 3), ((1, 1), (2, 3), (3, 2)), (False, True), ("honest", "haar"))
)
AGREE = 1e-12


def case_id(case):
    n, dims, keep_z, verifier = case
    return f"n{n}-{dims[0]}x{dims[1]}-{'keepz' if keep_z else 'zp'}-{verifier}"


@functools.lru_cache(maxsize=None)
def build(case):
    n, dims, keep_z, verifier = case
    seed = 1000 + CASES.index(case)
    inst = Instance.from_graphs(*GRAPHS[n])
    if verifier == "honest":
        ver = honest_verifier(dims, n)
    else:
        ver = adversarial_verifier(dims, n, seed)
    aux, other_aux = random_aux(dims[0], seed + 1), random_aux(dims[0], seed + 2)
    sim = simulate_round_recorded(build_circuit(inst, ver), aux, keep_z=keep_z)
    real = real_view_recorded(inst, ver, aux, keep_z=keep_z)
    real_other = real_view_recorded(inst, ver, other_aux, keep_z=keep_z)
    return inst, ver, aux, sim, real, real_other


def fits_dense(view):
    return full_layout(view).total_dim <= DENSE_VIEW_LIMIT


_dense_cache = {}


def dense(view):
    """``dense_view(view)``, assembled once per (cached) view."""
    if id(view) not in _dense_cache:
        _dense_cache[id(view)] = dense_view(view)
    return _dense_cache[id(view)]


def dense_distance(v1, v2):
    """The dense oracle: the full operators where they fit, else dense blocks."""
    if fits_dense(v1):
        return trace_distance(dense(v1), dense(v2))
    dim = v1.base_layout.total_dim
    zero = np.zeros((dim, dim), dtype=complex)
    blocks = [{k: x @ x.conj().T for k, x in v.blocks.items()} for v in (v1, v2)]
    return sum(
        trace_distance_matrices(blocks[0].get(k, zero), blocks[1].get(k, zero))
        for k in set(blocks[0]) | set(blocks[1])
    )


def dephased_real_blocks(inst, ver, aux, keep_z):
    """Real view blocks built densely: dephased outer products of branch outputs."""
    n = inst.n
    layout = view_layout(ver.dims, n)
    perms = enumerate_sn(n)
    a_axis = layout.axis("A")
    blocks = {}
    for tau in perms:
        code = encode(act(tau, inst.g0))
        start = np.zeros(layout.total_dim // ver.dim_w, dtype=complex)
        start[flatten(layout.keep(["V", "A", "Y"]), (0, 0, code))] = 1.0
        vec = ver.u_v.apply_to(layout, np.kron(aux.amps, start))
        if not keep_z:
            block = dephase_matrix(layout, np.outer(vec, vec.conj()), "A") / len(perms)
            blocks[(code,)] = blocks.get((code,), 0) + block
            continue
        for a in (0, 1):
            part = np.zeros(layout.dims, dtype=complex)
            np.moveaxis(part, a_axis, 0)[a] = np.moveaxis(vec.reshape(layout.dims), a_axis, 0)[a]
            part = part.reshape(-1)
            key = (perms.index(honest_response(inst, tau, a)), code)
            blocks[key] = blocks.get(key, 0) + np.outer(part, part.conj()) / len(perms)
    return blocks


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_factored_distance_matches_dense(case):
    dim_w = case[1][0]
    _, _, _, sim, real, real_other = build(case)
    same = sim.trace_distance(real)
    assert same < 1e-10
    assert abs(same - dense_distance(sim, real)) <= AGREE
    differ = sim.trace_distance(real_other)
    assert abs(differ - dense_distance(sim, real_other)) <= AGREE
    if dim_w > 1:
        # A one-dimensional W admits a single auxiliary state up to phase.
        assert differ > 1e-3
    assert abs(real_other.trace_distance(sim) - differ) <= AGREE


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_factored_trace_and_weights_match_dense(case):
    for view in build(case)[3:]:
        record_layout = RegisterLayout(view.record_registers)
        rec_dim = record_layout.total_dim
        weights = record_weights(view)
        if fits_dense(view):
            full = dense(view).matrix
            assert abs(view_trace(view) - np.trace(full).real) <= AGREE
            for flat in range(rec_dim):
                key = unflatten(record_layout, flat)
                expected = np.trace(full[flat::rec_dim, flat::rec_dim]).real
                assert abs(weights.get(key, 0.0) - expected) <= AGREE
        else:
            for key, x in view.blocks.items():
                assert abs(weights[key] - np.trace(x @ x.conj().T).real) <= AGREE
        assert abs(view_trace(view) - 1.0) <= AGREE


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_real_view_factors_match_dephased_outer_products(case):
    n, dims, keep_z, _ = case
    inst, ver, aux, _, real, _ = build(case)
    oracle = dephased_real_blocks(inst, ver, aux, keep_z)
    assert set(real.blocks) == set(oracle)
    for key, x in real.blocks.items():
        np.testing.assert_allclose(x @ x.conj().T, oracle[key], atol=AGREE)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_factor_columns_bounded_by_branches(case):
    n, _, keep_z, _ = case
    inst, _, _, sim, real, _ = build(case)
    perms = enumerate_sn(n)
    real_branches, sim_branches = {}, {}
    for tau in perms:
        code = encode(act(tau, inst.g0))
        if keep_z:
            keys = {(perms.index(honest_response(inst, tau, a)), code) for a in (0, 1)}
        else:
            keys = {(code,)}
        for key in keys:
            real_branches[key] = real_branches.get(key, 0) + 1
    for b, graph in enumerate((inst.g0, inst.g1)):
        for z, pi in enumerate(perms):
            code = encode(act(pi, graph))
            key = (z, code) if keep_z else (code,)
            sim_branches[key] = sim_branches.get(key, 0) + 1
    for view, branches in ((real, real_branches), (sim, sim_branches)):
        assert set(view.blocks) <= set(branches)
        for key, x in view.blocks.items():
            assert x.shape[0] == view.base_layout.total_dim
            assert x.shape[1] <= 2 * branches[key]
