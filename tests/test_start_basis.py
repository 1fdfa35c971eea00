"""``zk-check`` on the verifier's start block against the full-length oracles.

Every branch of the amplified state and of the real outputs is the start
block ``U_start`` on s start coefficients, so its A=a part is ``M_a beta =
Q_a R_a beta`` for the thin QR of the block's A=a rows.  The runtime keeps
``R_a beta`` alone.  These tests rebuild ``Q_a`` from the oracle's start
outputs and check the step, the attempt output, the views' distances and
key sets, the Born table and ``verify-eq2``'s norm chain against the
operator chain and the readings of full-length vectors, on a grid of
instances, dimensions, verifiers, completions and records, and check that
the views-and-distance stage holds no full-length state.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from zkamp import cli
from zkamp.protocol import (
    Instance,
    VerifierModel,
    adversarial_verifier,
    aux_layout,
    honest_verifier,
    random_aux,
    real_view_recorded,
    _triangle,
    start_block,
    view_layout,
)
from zkamp.registers import HADAMARD, DiagonalOp, LinearOp, OpChain, StateVector, XorOp
from zkamp.simulator import (
    COMPLETIONS,
    amplification_check,
    amplified_columns,
    attempt_output,
    branch_weights,
    build_circuit,
    grover_step,
    recorded_view,
    sample_round,
    coefficient_step,
    simulate_round_recorded,
)
from zkamp.symm import Graph

from oracles import (
    born_table,
    branch_spread,
    challenge_halves,
    householder_triangles,
    identity,
    norm_chain,
    operator_amplified_state,
    per_key_trace_distance,
    real_view,
    recorded_view as full_recorded_view,
    start_outputs,
)

INSTANCES = {
    2: Instance.from_graphs(Graph(2, [(0, 1)]), Graph(2, [(0, 1)])),
    3: Instance.from_graphs(Graph(3, [(0, 1), (1, 2)]), Graph(3, [(0, 1), (0, 2)])),
    4: Instance.from_graphs(
        Graph(4, [(0, 1), (1, 2), (2, 3)]), Graph(4, [(0, 3), (1, 2), (2, 0)])
    ),
}
# The n = 5 path pair that the CLI tests run at dims 2x2 and 4x1.
N5 = Instance.from_graphs(
    Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), Graph(5, [(0, 2), (2, 1), (1, 3), (3, 4)])
)
KINDS = ("honest", "adversarial")
AGREE = 1e-14
N4_KEEPZ = ["zk-check", "--n", "4", "--g0", "01,12,23", "--g1", "03,12,20", "--keep-z"]


def circuit(n, dims, kind, completion=COMPLETIONS[0]):
    inst = INSTANCES[n]
    if kind == "honest":
        ver = honest_verifier(dims, n)
    else:
        ver = adversarial_verifier(dims, n, 10 * n + dims[1], inst.codes[0])
    return build_circuit(inst, ver, completion)


def isometries(block, n):
    """``Q_a = M_a R_a^-1`` for the triangles ``block`` keeps: an isometry with ``M_a = Q_a R_a``."""
    halves, triangles = challenge_halves(block.ver, n, block.codes), block.triangles
    q = np.linalg.solve(triangles.swapaxes(1, 2), halves.swapaxes(1, 2)).swapaxes(1, 2)
    assert np.max(np.abs(q @ triangles - halves)) <= AGREE
    assert np.max(np.abs(q.conj().swapaxes(1, 2) @ q - np.eye(triangles.shape[-1]))) <= AGREE
    return q


def column_born_table(columns):
    """``p(b, z, a)`` of factor columns: the squared norm of branch ``b n! + z`` at A=a."""
    return np.sum(np.abs(columns) ** 2, axis=1).reshape(2, 2, -1).transpose(1, 2, 0)


def by_challenge(state, dims, branches):
    """A full-length simulator state's branch columns split by A: (2, side/2, branches)."""
    halves = state.reshape(dims[0] * dims[1], 2, -1, branches).swapaxes(0, 1)
    return halves.reshape(2, -1, branches)


class TestTriangles:
    """The block's triangles against the Householder R of its two challenge halves."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (4, 1), (8, 8)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_triangles_are_the_householder_r_up_to_phases(self, n, dims, kind):
        ver = circuit(n, dims, kind).ver
        block = start_block(ver, n, INSTANCES[n].codes[0])
        reference = householder_triangles(ver, n, block.codes)
        diagonals = [np.diagonal(r, axis1=1, axis2=2) for r in (block.triangles, reference)]
        phases = diagonals[0] / diagonals[1]
        assert np.max(np.abs(np.abs(phases) - 1)) <= AGREE
        assert np.max(np.abs(block.triangles - phases[..., None] * reference)) <= AGREE

    @pytest.mark.parametrize("kind", ["flip-a-on-w1", "diagonal-on-w-y"])
    def test_rank_deficient_half_takes_the_householder_r(self, kind):
        # Flipping A only at W = 1 leaves each half the columns of one W value;
        # a diagonal on W,Y leaves the A=1 half zero.  Either Gram is singular,
        # so its Cholesky refuses it.
        inst, dims = INSTANCES[3], (2, 2)
        layout = view_layout(dims, 3)
        if kind == "flip-a-on-w1":
            flat = np.arange(8)
            u = LinearOp(layout, ("W", "V", "A"), np.eye(8)[flat ^ (flat >= 4)])
        else:
            u = DiagonalOp(layout, ("W", "Y"), np.exp(1j * np.arange(16)))
        ver = VerifierModel(dims, u)
        block = start_block(ver, 3, inst.codes[0])
        halves = challenge_halves(ver, 3, block.codes)
        triangles = block.triangles
        np.testing.assert_array_equal(triangles, np.triu(triangles))
        grams = triangles.conj().swapaxes(1, 2) @ triangles
        assert np.max(np.abs(grams - halves.conj().swapaxes(1, 2) @ halves)) <= AGREE
        aux, other = random_aux(2, 1), random_aux(2, 2)
        real, real_other = real_view_recorded(inst, ver, aux), real_view_recorded(inst, ver, other)
        distance = real.trace_distance(real_other)
        reference = per_key_trace_distance(real_view(inst, ver, aux), real_view(inst, ver, other))
        assert abs(distance - reference) <= AGREE


    def test_triangle_of_a_singular_gram_alone(self):
        # The Gram of unit columns (x, 0, y, (x + y) / 2) has rank 2 and an exact zero pivot, so
        # the Cholesky refuses it; the triangle then comes from its spectrum, with no half to read.
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        m = np.stack([x, np.zeros(6), y, (x + y) / 2], axis=1)
        gram = m.conj().T @ m
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
        r = _triangle(gram)
        np.testing.assert_array_equal(r, np.triu(r))
        assert np.max(np.abs(r.conj().T @ r - gram)) <= AGREE


class TestStep:
    """The start-basis step against the step's operator chain."""

    @pytest.mark.parametrize(
        "n, dims, kind, completion",
        [(n, (2, 2), kind, c) for n in INSTANCES for kind in KINDS for c in COMPLETIONS]
        + [(3, dims, kind, COMPLETIONS[0]) for dims in ((1, 1), (1, 4), (8, 8)) for kind in KINDS],
    )
    def test_amplified_columns_are_the_operator_chain(self, n, dims, kind, completion):
        circ = circuit(n, dims, kind, completion)
        aux = random_aux(dims[0], n + dims[0])
        block = start_block(circ.ver, n, circ.inst.codes[0])
        full = isometries(block, n) @ amplified_columns(circ, aux, block)
        oracle = by_challenge(operator_amplified_state(circ, aux), dims, circ.inst.codes.size)
        assert np.max(np.abs(full - oracle)) <= AGREE

    @pytest.mark.parametrize("phases", [(-1.0, 1.0), (1j, 1j), (np.exp(0.3j), np.exp(1.1j))])
    def test_step_on_any_w_vector(self, phases):
        # I + (phi - 1) cols cols^† after the success phase, on the branches of
        # an unnormalised W vector x with the circuit's weights, not only on aux.
        circ = circuit(3, (2, 2), "adversarial")
        block = start_block(circ.ver, 3, circ.inst.codes[0])
        weights, rows = branch_weights(circ, block)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        outputs = start_outputs(circ.ver, 3, block.codes).reshape(-1, 2, block.codes.size)
        state = np.tensordot(outputs, x, axes=(1, 0))[:, rows] * weights
        u = coefficient_step(circ, block, weights, rows, np.outer(x, weights), *phases)
        closed = isometries(block, 3) @ block.code_columns(u, rows)
        chain = grover_step(circ, *phases).apply_to(circ.layout, state.reshape(-1))
        assert np.max(np.abs(closed - by_challenge(chain, (2, 2), weights.size))) <= AGREE

    @pytest.mark.parametrize("varphi", [1 + 1e-9, 0.5j, 0])
    def test_success_phase_off_the_unit_circle_is_refused(self, varphi):
        # The step reads (varphi - 1) P + 1 off the projector's phases, so it
        # refuses the success phases that grover_step's diagonal refuses.
        circ = circuit(3, (2, 2), "adversarial")
        block = start_block(circ.ver, 3, circ.inst.codes[0])
        weights, rows = branch_weights(circ, block)
        u = np.outer(np.ones(2), weights)
        with pytest.raises(ValueError, match="unit modulus"):
            grover_step(circ, 1j, varphi)
        with pytest.raises(ValueError, match="unit modulus"):
            coefficient_step(circ, block, weights, rows, u, 1j, varphi)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "n, dims, completion, split_phase",
        [(3, (2, 2), COMPLETIONS[0], 0), (3, (4, 1), COMPLETIONS[0], 0), (4, (2, 2), "dft", 0)]
        + [(3, (2, 2), COMPLETIONS[0], 0.7)],
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_k_steps_are_the_operator_chain(self, k, n, dims, completion, split_phase, kind):
        # Composition is k calls: the coefficients after k mixed phase pairs
        # against grover_step applied k times to the attempt output.
        circ = circuit(n, dims, kind, completion)
        if split_phase:
            # A B split whose first column carries a phase makes the weights c_j complex.
            _, *rest = circ.attempt.factors
            phased = np.diag([1, np.exp(1j * split_phase)]) @ HADAMARD
            split_b = LinearOp(circ.layout, ("B",), phased)
            circ = dataclasses.replace(circ, attempt=OpChain((split_b, *rest)))
        aux = random_aux(dims[0], 3 * n + dims[0])
        block = start_block(circ.ver, n, circ.inst.codes[0])
        weights, rows = branch_weights(circ, block)
        u, state = np.outer(aux.amps, weights), attempt_output(circ, aux)
        for phases in [(1j, 1j), (-1, -1), (np.exp(0.3j), np.exp(1.1j))][:k]:
            u = coefficient_step(circ, block, weights, rows, u, *phases)
            state = grover_step(circ, *phases).apply_to(circ.layout, state)
        closed = isometries(block, n) @ block.code_columns(u, rows)
        assert np.max(np.abs(closed - by_challenge(state, dims, weights.size))) <= AGREE

    def test_weights_give_the_attempt_output(self):
        circ = circuit(4, (2, 2), "adversarial", "dft")
        aux = random_aux(2, 5)
        block = start_block(circ.ver, 4, circ.inst.codes[0])
        weights, rows = branch_weights(circ, block)
        outputs = start_outputs(circ.ver, 4, block.codes).reshape(-1, 2, block.codes.size)
        attempt = np.tensordot(outputs, aux.amps, axes=(1, 0))[:, rows] * weights
        assert np.max(np.abs(attempt.reshape(-1) - attempt_output(circ, aux))) <= AGREE

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("completion", COMPLETIONS)
    def test_weights_are_the_spread_nonzeros(self, n, completion):
        inst = INSTANCES[n] if n in INSTANCES else N5
        circ = build_circuit(inst, honest_verifier((1, 1), n), completion)
        block = start_block(circ.ver, n, inst.codes[0])
        weights, rows = branch_weights(circ, block)
        reference = branch_spread(circ, block)
        spread = np.zeros_like(reference)
        spread[rows, np.arange(weights.size)] = weights
        np.testing.assert_array_equal(spread, reference)

    def test_block_handed_in_runs_the_same_code(self):
        circ = circuit(3, (2, 2), "adversarial")
        inst, aux = circ.inst, random_aux(2, 6)
        block = start_block(circ.ver, 3, inst.codes[0])
        handed = real_view_recorded(inst, circ.ver, aux, True, block)
        formed = real_view_recorded(inst, circ.ver, aux, True)
        np.testing.assert_array_equal(handed.stack, formed.stack)
        sim = recorded_view(circ, block, amplified_columns(circ, aux, block), True)
        np.testing.assert_array_equal(sim.stack, simulate_round_recorded(circ, aux, True).stack)

    def test_writer_weight_off_the_orbit_is_refused(self):
        # The path instance's writer sends path codes; an instance of two empty
        # graphs sends only code 0, so the weights leave its orbit.
        import dataclasses

        circ = circuit(3, (2, 2), "adversarial")
        empty = Graph(3, [])
        faulted = dataclasses.replace(circ, inst=Instance(empty, empty, identity(3)))
        block = start_block(circ.ver, 3, circ.inst.codes[0])
        branch_weights(circ, block)
        with pytest.raises(AssertionError, match="off the codes"):
            branch_weights(faulted, block)

    def test_writer_with_a_changed_code_is_refused(self):
        # The converse: the instance is intact, and the circuit's writer XORs
        # one code that is not the instance's into Y.
        circ = circuit(3, (2, 2), "adversarial")
        split_b, split_z, writer, u_v = circ.attempt.factors
        codes = writer.codes.copy()
        codes[5] ^= 1
        changed = XorOp(circ.layout, writer.targets, codes)
        faulted = dataclasses.replace(circ, attempt=OpChain((split_b, split_z, changed, u_v)))
        block = start_block(circ.ver, 3, circ.inst.codes[0])
        with pytest.raises(AssertionError, match="off the codes"):
            branch_weights(faulted, block)


CHAIN_GRID = [
    (n, dims, kind, completion)
    for n in INSTANCES
    for dims in ((1, 1), (2, 2), (1, 4))
    for kind in KINDS
    for completion in COMPLETIONS
] + [(3, (8, 8), kind, completion) for kind in KINDS for completion in COMPLETIONS]


@pytest.mark.parametrize("n, dims, kind, completion", CHAIN_GRID)
def test_norm_chain_agrees_with_the_full_length_reading(n, dims, kind, completion):
    # The chain reads each branch as its R_a column; the reference reads the
    # W,V,A,Y branch vectors Q_a R_a of the same columns.
    circ = circuit(n, dims, kind, completion)
    aux = random_aux(dims[0], 5 * n + dims[1])
    chain = amplification_check(circ, aux).norm_chain
    reference = norm_chain(circ, aux)
    assert len(chain) == len(reference) == 7
    assert max(abs(x - y) for x, y in zip(chain, reference)) <= AGREE


GRID = [
    (n, dims, kind, completion, keep_z)
    for n in INSTANCES
    for dims in ((1, 1), (2, 2), (1, 4))
    for kind in KINDS
    for completion in COMPLETIONS
    for keep_z in (False, True)
] + [
    (3, (8, 8), kind, completion, keep_z)
    for kind in KINDS
    for completion in COMPLETIONS
    for keep_z in (False, True)
]


def grid_id(case):
    n, dims, kind, completion, keep_z = case
    return f"n{n}-{dims[0]}x{dims[1]}-{kind}-{completion}-{'keepz' if keep_z else 'zp'}"


def assert_agrees_with_oracle(circ, aux, other_aux, keep_z):
    inst, ver = circ.inst, circ.ver
    block = start_block(ver, inst.n, inst.codes[0])
    amplified = amplified_columns(circ, aux, block)
    sim = recorded_view(circ, block, amplified, keep_z)
    real = real_view_recorded(inst, ver, aux, keep_z, block)
    real_other = real_view_recorded(inst, ver, other_aux, keep_z, block)
    state = operator_amplified_state(circ, aux)
    oracles = (
        full_recorded_view(circ, state, keep_z),
        real_view(inst, ver, aux, keep_z),
        real_view(inst, ver, other_aux, keep_z),
    )
    for view, oracle in zip((sim, real, real_other), oracles):
        assert set(view.blocks) == set(oracle.blocks)
    assert sim.trace_distance(real) <= 1e-10
    for pair, oracle_pair in (((sim, real), oracles[:2]), ((sim, real_other), oracles[::2])):
        assert abs(pair[0].trace_distance(pair[1]) - per_key_trace_distance(*oracle_pair)) <= AGREE
    assert np.max(np.abs(column_born_table(amplified) - born_table(circ, state))) <= AGREE


@pytest.mark.parametrize("case", GRID, ids=grid_id)
def test_views_and_born_table_agree_with_the_full_length_oracle(case):
    n, dims, kind, completion, keep_z = case
    circ = circuit(n, dims, kind, completion)
    aux, other_aux = random_aux(dims[0], 7 * n + dims[1]), random_aux(dims[0], 7 * n + dims[1] + 1)
    assert_agrees_with_oracle(circ, aux, other_aux, keep_z)


@pytest.mark.parametrize("keep_z", [False, True])
def test_entangled_aux_agrees_with_the_full_length_oracle(keep_z):
    # W is a 4-dim register holding a state entangled across its 2x2 split.
    circ = build_circuit(INSTANCES[3], adversarial_verifier((4, 2), 3, seed=3))
    bell = StateVector(aux_layout(4), np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert_agrees_with_oracle(circ, bell, random_aux(4, 8), keep_z)


def test_views_and_distance_hold_no_full_length_state():
    # One d-length state of the n = 4 circuit is 16 d = 393 KB; the views, the
    # Born table and the distance hold s-row factors (s = 24) alone.
    cfg = cli.config_from_args(cli.build_parser().parse_args([*N4_KEEPZ, "--seed", "7"]))
    inst = cli.build_instance(cfg)
    (_, (_, aux_seed, _), circ), = cli._trials(cfg, inst)
    aux = random_aux(cfg.dims[0], aux_seed)
    block = start_block(circ.ver, inst.n, inst.codes[0])
    tracemalloc.start()
    try:
        amplified = amplified_columns(circ, aux, block)
        sim = recorded_view(circ, block, amplified, keep_z=True)
        real = real_view_recorded(inst, circ.ver, aux, keep_z=True, block=block)
        distance = sim.trace_distance(real)
        sample_round(circ, amplified, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert distance <= 1e-10
    assert peak < 16 * circ.layout.total_dim


def test_circuit_holds_no_writer_table():
    # The writer holds its 2 n! codes: on the n = 5 path pair, building the
    # circuit traces less than one int64 table over the 245760-entry (Y, B, Z)
    # sub-layout, 1.97 MB.
    ver = adversarial_verifier((1, 1), 5, 7, N5.codes[0])
    tracemalloc.start()
    try:
        circ = build_circuit(N5, ver)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * circ.layout.keep(("Y", "B", "Z")).total_dim


@pytest.mark.parametrize("dims", [(2, 2), (4, 1)])
def test_amplified_columns_hold_a_few_outputs(dims):
    # A branch is its weight and its code: the step forms no (Y, B, Z) state
    # and no s x 2 n! coefficients, so on the n = 5 path pair its traced peak
    # stays within 5 copies of its (2, s, 2 n!) output.
    argv = ["zk-check", "--g0", "n=5;edges=01,12,23,34", "--g1", "n=5;edges=02,21,13,34"]
    argv += ["--dim-w", str(dims[0]), "--dim-v", str(dims[1]), "--seed", "7"]
    cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
    inst = cli.build_instance(cfg)
    (_, (_, aux_seed, _), circ), = cli._trials(cfg, inst)
    aux = random_aux(cfg.dims[0], aux_seed)
    block = start_block(circ.ver, inst.n, inst.codes[0])
    tracemalloc.start()
    try:
        amplified = amplified_columns(circ, aux, block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert amplified.shape == (2, block.triangles.shape[-1], inst.codes.size)
    assert peak <= 5 * amplified.nbytes


def test_negative_control_calls_form_one_basis_each():
    # Without a block handed in, each view forms its own from the same verifier.
    circ = circuit(3, (2, 2), "adversarial")
    aux, other = random_aux(2, 1), random_aux(2, 2)
    sim = simulate_round_recorded(circ, aux, keep_z=True)
    assert sim.trace_distance(real_view_recorded(circ.inst, circ.ver, aux, keep_z=True)) <= 1e-10
    assert sim.trace_distance(real_view_recorded(circ.inst, circ.ver, other, keep_z=True)) > 1e-3
