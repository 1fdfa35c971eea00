"""Differential tests: factored recorded views against the dense oracle.

Every view block is stored as its factor's coordinates F on the verifier's
start basis, block = Q_a F F^dagger Q_a^dagger, one column per branch at the
block's measured challenge A, and two views are compared through one stacked
QR of their paired factors.  These tests rebuild the dense operators from
the full-length oracle views and check the factored trace, record weights,
factor Gram matrices and trace distance against them, for honest and Haar
verifiers, with and without the response record, on pairs of views whose
distance is zero (same auxiliary input) and nonzero (different auxiliary
inputs).  The stacked distance is also checked against the per-record-value
QR reference, on protocol views and on hand-made ones with disjoint keys,
unequal block widths and no blocks at all.
"""

import functools
import itertools

import numpy as np
import pytest

from zkamp.protocol import (
    Instance,
    RecordedView,
    adversarial_verifier,
    honest_verifier,
    random_aux,
    real_view_recorded,
    start_block,
    view_layout,
)
from zkamp.registers import RegisterLayout, trace_distance_matrices
from zkamp.simulator import build_circuit, simulate_round_recorded
from zkamp.symm import Graph, act, encode

from oracles import (
    DENSE_VIEW_LIMIT,
    dense_view,
    flatten,
    full_layout,
    honest_response,
    partial_trace,
    per_key_trace_distance,
    permutations,
    real_view,
    record_weights,
    simulated_view,
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
    circ = build_circuit(inst, ver)
    sim = simulate_round_recorded(circ, aux, keep_z=keep_z)
    real = real_view_recorded(inst, ver, aux, keep_z=keep_z)
    real_other = real_view_recorded(inst, ver, other_aux, keep_z=keep_z)
    oracles = (
        simulated_view(circ, aux, keep_z),
        real_view(inst, ver, aux, keep_z),
        real_view(inst, ver, other_aux, keep_z),
    )
    return inst, ver, aux, (sim, real, real_other), oracles


def fits_dense(view):
    return full_layout(view).total_dim <= DENSE_VIEW_LIMIT


_dense_cache = {}


def dense(view):
    """``dense_view(view)``, assembled once per (cached) view."""
    if id(view) not in _dense_cache:
        _dense_cache[id(view)] = dense_view(view)
    return _dense_cache[id(view)]


def dense_distance(v1, v2):
    """The dense oracle on two full-length views: the full operators where they fit, else blocks."""
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
    """Real view blocks built densely: the A=a blocks of each branch output's outer product."""
    n = inst.n
    layout = view_layout(ver.dims, n)
    perms = permutations(n)
    blocks = {}
    for tau in perms:
        code = encode(act(tau, inst.g0))
        start = np.zeros(layout.total_dim // ver.dim_w, dtype=complex)
        start[flatten(layout.keep(["V", "A", "Y"]), (0, 0, code))] = 1.0
        vec = ver.u_v.apply_to(layout, np.kron(aux.amps, start))
        rho = np.outer(vec, vec.conj()).reshape(layout.dims * 2) / len(perms)
        for a in (0, 1):
            block = rho[:, :, a, :, :, :, a, :].reshape(layout.total_dim // 2, -1)
            key = (perms.index(honest_response(inst, tau, a)), code, a) if keep_z else (code, a)
            blocks[key] = blocks.get(key, 0) + block
    return blocks


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_factored_distance_matches_dense(case):
    dim_w = case[1][0]
    _, _, _, (sim, real, real_other), (o_sim, o_real, o_real_other) = build(case)
    same = sim.trace_distance(real)
    assert same < 1e-10
    assert abs(same - dense_distance(o_sim, o_real)) <= AGREE
    differ = sim.trace_distance(real_other)
    assert abs(differ - dense_distance(o_sim, o_real_other)) <= AGREE
    if dim_w > 1:
        # A one-dimensional W admits a single auxiliary state up to phase.
        assert differ > 1e-3
    assert abs(real_other.trace_distance(sim) - differ) <= AGREE


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_factored_trace_and_weights_match_dense(case):
    _, _, _, views, oracles = build(case)
    for view, oracle in zip(views, oracles):
        record_layout = RegisterLayout(view.record_registers)
        weights = record_weights(view)
        if fits_dense(oracle):
            full = dense(oracle)
            assert abs(view_trace(view) - np.trace(full.matrix).real) <= AGREE
            # The record marginal, in the round's order of the record registers.
            marginal = partial_trace(full, record_layout.names)
            for flat in range(record_layout.total_dim):
                key = dict(zip(record_layout.names, unflatten(record_layout, flat)))
                index = flatten(marginal.layout, [key[name] for name in marginal.layout.names])
                expected = marginal.matrix[index, index].real
                assert abs(weights.get(tuple(key.values()), 0.0) - expected) <= AGREE
        else:
            for key, x in oracle.blocks.items():
                assert abs(weights[key] - np.trace(x @ x.conj().T).real) <= AGREE
        assert abs(view_trace(view) - 1.0) <= AGREE


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_factor_grams_match_the_full_length_factors(case):
    # F = R_a beta and X = M_a beta = Q_a F have one Gram matrix per key.
    for view, oracle in zip(*build(case)[3:]):
        assert set(view.blocks) == set(oracle.blocks)
        for key, f in view.blocks.items():
            x = oracle.blocks[key]
            np.testing.assert_allclose(f.conj().T @ f, x.conj().T @ x, rtol=0, atol=AGREE)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_real_view_factors_match_dephased_outer_products(case):
    # On the full-length oracle view; the Gram test ties the start-basis factors to it.
    n, dims, keep_z, _ = case
    inst, ver, aux, _, (_, real, _) = build(case)
    oracle = dephased_real_blocks(inst, ver, aux, keep_z)
    assert set(real.blocks) == set(oracle)
    for key, x in real.blocks.items():
        np.testing.assert_allclose(x @ x.conj().T, oracle[key], atol=AGREE)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_factor_columns_bounded_by_branches(case):
    # A key holds at most one column per branch: the branch's part at the key's challenge.
    n, dims, keep_z, _ = case
    inst, _, _, (sim, real, _), _ = build(case)
    perms = permutations(n)
    real_branches, sim_branches = {}, {}
    for tau in perms:
        code = encode(act(tau, inst.g0))
        for a in (0, 1):
            key = (perms.index(honest_response(inst, tau, a)), code, a) if keep_z else (code, a)
            real_branches[key] = real_branches.get(key, 0) + 1
    for b, graph in enumerate((inst.g0, inst.g1)):
        for z, pi in enumerate(perms):
            code = encode(act(pi, graph))
            for a in (0, 1):
                key = (z, code, a) if keep_z else (code, a)
                sim_branches[key] = sim_branches.get(key, 0) + 1
    s = dims[0] * len(set(inst.codes[0].tolist()))
    for view, branches in ((real, real_branches), (sim, sim_branches)):
        assert view.record_registers[-1] == ("A", 2)
        assert set(view.blocks) <= set(branches)
        for key, x in view.blocks.items():
            assert x.shape[0] == s
            assert x.shape[1] <= branches[key]


# The stacked distance against the per-record-value reference, on protocol
# views and on hand-made ones.  The empty and the complete graph have a
# one-code orbit, so every branch lands on one record value: the widest blocks.
REFERENCE_GRAPHS = {
    **GRAPHS,
    4: (Graph(4, [(0, 1), (1, 2), (2, 3)]), Graph(4, [(0, 3), (1, 2), (2, 0)])),
    "empty": (Graph(3, []), Graph(3, [])),
    "complete": (Graph(3, [(0, 1), (1, 2), (0, 2)]),) * 2,
}
REFERENCE_CASES = [
    (graphs, keep_z, verifier, "householder")
    for graphs in REFERENCE_GRAPHS
    for keep_z in (False, True)
    for verifier in ("honest", "haar")
] + [(3, keep_z, "haar", "dft") for keep_z in (False, True)]
REFERENCE_AGREE = 1e-13


def reference_id(case):
    graphs, keep_z, verifier, completion = case
    return f"{graphs}-{'keepz' if keep_z else 'zp'}-{verifier}-{completion}"


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=reference_id)
def test_stacked_distance_matches_per_key_reference(case):
    graphs, keep_z, verifier, completion = case
    inst = Instance.from_graphs(*REFERENCE_GRAPHS[graphs])
    dims = (2, 2)
    seed = 2000 + REFERENCE_CASES.index(case)
    if verifier == "honest":
        ver = honest_verifier(dims, inst.n)
    else:
        ver = adversarial_verifier(dims, inst.n, seed)
    aux, other_aux = random_aux(dims[0], seed + 1), random_aux(dims[0], seed + 2)
    sim = simulate_round_recorded(build_circuit(inst, ver, completion), aux, keep_z=keep_z)
    real = real_view_recorded(inst, ver, aux, keep_z=keep_z)
    real_other = real_view_recorded(inst, ver, other_aux, keep_z=keep_z)
    assert sim.trace_distance(real) < 1e-10
    assert sim.trace_distance(real_other) > 1e-3
    for v1, v2 in ((sim, real), (sim, real_other), (real_other, sim), (real, real)):
        assert abs(v1.trace_distance(v2) - per_key_trace_distance(v1, v2)) <= REFERENCE_AGREE
    for view in (sim, real):
        assert all(type(value) is int for key in view.blocks for value in key)


# A start basis with s = 6: dims 2x1 and three Y codes.
HAND_BASIS = start_block(adversarial_verifier((2, 1), 3, 5), 3, [3, 5, 6])


def hand_view(widths, seed):
    """A view on ``HAND_BASIS`` whose block ``key`` has ``widths[key]`` random columns."""
    rng = np.random.default_rng(seed)
    dim = HAND_BASIS.triangles.shape[-1]
    keys = [key for key, width in widths.items() for _ in range(width)]
    rows = rng.standard_normal((len(keys), dim)) + 1j * rng.standard_normal((len(keys), dim))
    records = (("Zp", 4), ("A", 2))
    return RecordedView.from_rows(
        HAND_BASIS, records, rows, np.array(keys, dtype=np.int64).reshape(-1, 2)
    )


HAND_VIEWS = {
    "disjoint-keys": ({(0, 0): 1, (1, 1): 2}, {(2, 0): 2, (3, 1): 1}),
    # Widths up to 4 + 3 > 6, so some pairs have more columns than rows.
    "unequal-widths": ({(0, 0): 1, (1, 1): 3, (3, 0): 2}, {(0, 0): 4, (1, 1): 1, (3, 0): 3}),
    "one-empty": ({(0, 1): 2, (2, 0): 1}, {}),
    "both-empty": ({}, {}),
}


@pytest.mark.parametrize("name", HAND_VIEWS)
def test_stacked_distance_on_hand_made_views(name):
    widths1, widths2 = HAND_VIEWS[name]
    v1, v2 = hand_view(widths1, 1), hand_view(widths2, 2)
    for view, widths in ((v1, widths1), (v2, widths2)):
        assert {key: x.shape[1] for key, x in view.blocks.items()} == widths
    stacked = v1.trace_distance(v2)
    assert abs(stacked - per_key_trace_distance(v1, v2)) <= REFERENCE_AGREE
    assert abs(v2.trace_distance(v1) - stacked) <= REFERENCE_AGREE
    if not set(widths1) & set(widths2):
        # No record value in common: the halves of the two traces add up.
        assert abs(stacked - (view_trace(v1) + view_trace(v2)) / 2) <= REFERENCE_AGREE
    assert v1.trace_distance(v1) <= REFERENCE_AGREE
