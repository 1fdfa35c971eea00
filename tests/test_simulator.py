"""Attempt unitary, amplification identities, and view equality."""

import dataclasses

import numpy as np
import pytest

from zkamp import cli, simulator
from zkamp.protocol import (
    Instance,
    adversarial_verifier,
    aux_layout,
    honest_verifier,
    random_aux,
    real_view_recorded,
    start_block,
    view_layout,
)
from zkamp.registers import DiagonalOp, OpChain, StateVector
from zkamp.simulator import (
    COMPLETIONS,
    amplification_check,
    amplified_columns,
    attempt_output,
    branch_weights,
    build_circuit,
    coefficient_step,
    grover_step,
    phase_on_start,
    phase_on_success,
    sample_round,
    sim_layout,
    simulate_round_recorded,
    success_block_residual,
    success_projector,
    uniform_superposition_unitary,
)
from zkamp.symm import Graph, Permutation, act, encode

from oracles import (
    basis_state,
    branch_view,
    dense_view,
    fidelity,
    kron_oracle,
    measure,
    moved_apply,
    operator_amplified_state,
    overlap,
    per_key_trace_distance,
    permutations,
    project,
    real_view,
    simulated_view,
    success_probability,
    to_matrix,
    trace_distance,
    view_trace,
    watrous_round,
)

PATH3 = Graph(3, [(0, 1), (1, 2)])
PATH3B = Graph(3, [(0, 1), (0, 2)])
EDGE2 = Graph(2, [(0, 1)])
DIMS = (2, 2)

TOL = 1e-10


def gmw_circuit(n=3, verifier_seed=None, completion="householder", dims=DIMS):
    if n == 2:
        inst = Instance.from_graphs(EDGE2, EDGE2)
    else:
        inst = Instance.from_graphs(PATH3, PATH3B)
    if verifier_seed is None:
        ver = honest_verifier(dims, n)
    else:
        ver = adversarial_verifier(dims, n, verifier_seed)
    return build_circuit(inst, ver, completion=completion)


def defining_formula_output(circ, aux):
    """Oracle: assemble the attempt output directly from its defining formula.

    (1 / sqrt(2 n!)) sum over guess b and relabeling pi of the verifier's
    output on |aux, 0, 0, code(pi(g_b))>, placed at branch (b, pi).
    """
    inst, ver = circ.inst, circ.ver
    n = inst.n
    perms = permutations(n)
    view = view_layout(ver.dims, n)
    dim_vay = view.total_dim // ver.dim_w
    full = np.zeros((view.total_dim, 2, len(perms)), dtype=complex)
    for b, graph in enumerate((inst.g0, inst.g1)):
        for z, pi in enumerate(perms):
            code = encode(act(pi, graph))
            start = np.zeros(dim_vay, dtype=complex)
            start[code] = 1.0
            full[:, b, z] = ver.u_v.apply_to(view, np.kron(aux.amps, start))
    return full.reshape(-1) / np.sqrt(2 * len(perms))


class TestBuildCircuit:
    @pytest.mark.parametrize("seed", [None, 0, 1])
    @pytest.mark.parametrize("completion", ["householder", "dft"])
    def test_matches_defining_formula(self, seed, completion):
        circ = gmw_circuit(3, verifier_seed=seed, completion=completion)
        aux = random_aux(2, seed=17)
        got = attempt_output(circ, aux)
        expected = defining_formula_output(circ, aux)
        assert np.linalg.norm(got - expected) < 1e-12

    def test_output_is_normalized(self):
        circ = gmw_circuit(3, verifier_seed=4)
        for seed in range(3):
            out = attempt_output(circ, random_aux(2, seed))
            assert abs(np.linalg.norm(out) - 1) < 1e-12

    def test_rigid_instance_record_support(self):
        circ = gmw_circuit(2)
        out = attempt_output(circ, basis_state(aux_layout(2), {"W": 0}))
        tensor = out.reshape(circ.layout.dims)
        y_weights = np.sum(np.abs(tensor) ** 2, axis=(0, 1, 2, 4, 5))
        code = encode(EDGE2)
        assert abs(y_weights[code] - 1) < 1e-12

    def test_guess_branches_uniform_before_verifier(self):
        circ = gmw_circuit(3, verifier_seed=9)
        pre_verifier = OpChain(circ.attempt.factors[:3])
        out = pre_verifier.apply_to(circ.layout, circ.initial_amps(random_aux(2, 1)))
        tensor = out.reshape(circ.layout.dims)
        weights = np.sum(np.abs(tensor) ** 2, axis=(0, 1, 2, 3))
        np.testing.assert_allclose(weights, np.full((2, 6), 1 / 12), atol=1e-12)

    def test_attempt_is_unitary_dense(self):
        circ = gmw_circuit(2, verifier_seed=3)
        m = to_matrix(circ.attempt, circ.layout)
        assert np.max(np.abs(m.conj().T @ m - np.eye(circ.layout.total_dim))) < 1e-10

    def test_uniform_superposition_completions(self):
        for dim in (2, 6, 24):
            for completion in ("householder", "dft"):
                u = uniform_superposition_unitary(dim, completion)
                assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12
                np.testing.assert_allclose(u[:, 0], np.full(dim, 1 / np.sqrt(dim)), atol=1e-12)
        h = uniform_superposition_unitary(6, "householder")
        f = uniform_superposition_unitary(6, "dft")
        assert np.linalg.norm(h - f) > 1e-3


class TestSuccessProjector:
    def test_eigenvalues_on_basis_states(self):
        layout = sim_layout(DIMS, 2)
        proj = success_projector(layout)
        agree = basis_state(layout, {"W": 0, "V": 0, "A": 0, "Y": 0, "B": 0, "Z": 0})
        differ = basis_state(layout, {"W": 0, "V": 0, "A": 0, "Y": 0, "B": 1, "Z": 0})
        np.testing.assert_allclose(proj.apply_to(layout, agree.amps), agree.amps)
        np.testing.assert_allclose(proj.apply_to(layout, differ.amps), 0 * differ.amps)

    def test_rank_is_half_the_space(self):
        layout = sim_layout(DIMS, 2)
        proj = success_projector(layout)
        rank = np.trace(to_matrix(proj, layout)).real
        assert abs(rank - layout.total_dim / 2) < 1e-9

    def test_dimension_mismatch(self):
        from zkamp.registers import RegisterLayout

        bad = RegisterLayout([("W", 2), ("A", 2), ("B", 3)])
        with pytest.raises(ValueError):
            success_projector(bad)


class TestPhaseOps:
    def test_unit_phase_required(self):
        layout = sim_layout(DIMS, 2)
        with pytest.raises(ValueError):
            phase_on_start(layout, 1.5)
        with pytest.raises(ValueError):
            phase_on_success(success_projector(layout), 0.5 + 0.5j)

    def test_start_phase_identity_at_one(self):
        layout = sim_layout(DIMS, 2)
        s = StateVector(layout, np.ones(layout.total_dim) / np.sqrt(layout.total_dim))
        out = phase_on_start(layout, 1.0).apply_to(layout, s.amps)
        np.testing.assert_allclose(out, s.amps)

    def test_start_phase_minus_one_is_reflection(self):
        layout = sim_layout(DIMS, 2)
        dense = to_matrix(phase_on_start(layout, -1.0), layout)
        dim_w = 2
        dim_rest = layout.total_dim // dim_w
        start_proj = np.zeros((dim_rest, dim_rest))
        start_proj[0, 0] = 1
        expected = np.eye(layout.total_dim) - 2 * np.kron(np.eye(dim_w), start_proj)
        np.testing.assert_allclose(dense, expected, atol=1e-14)

    def test_start_phase_i_eigenspaces(self):
        circ = gmw_circuit(2)
        aux = random_aux(2, seed=2)
        raw0 = circ.initial_amps(aux)
        op = phase_on_start(circ.layout, 1j)
        np.testing.assert_allclose(op.apply_to(circ.layout, raw0), 1j * raw0, atol=1e-14)
        other = basis_state(
            circ.layout, {"W": 1, "V": 0, "A": 1, "Y": 0, "B": 0, "Z": 0}
        ).amps
        np.testing.assert_allclose(op.apply_to(circ.layout, other), other, atol=1e-14)

    def test_success_phase_identity_and_reflection(self):
        layout = sim_layout(DIMS, 2)
        proj = success_projector(layout)
        np.testing.assert_allclose(phase_on_success(proj, 1.0).phases, np.ones(4), atol=1e-14)
        np.testing.assert_allclose(
            phase_on_success(proj, -1.0).phases, np.ones(4) - 2 * proj.phases, atol=1e-14
        )

    def test_success_phase_spectrum(self):
        layout = sim_layout(DIMS, 2)
        proj = success_projector(layout)
        varphi = np.exp(0.73j)
        eigs = np.linalg.eigvals(to_matrix(phase_on_success(proj, varphi), layout))
        dist_to_one = np.abs(eigs - 1.0)
        dist_to_phase = np.abs(eigs - varphi)
        assert np.all(np.minimum(dist_to_one, dist_to_phase) < 1e-10)
        assert np.any(dist_to_phase < 1e-10) and np.any(dist_to_one < 1e-10)


class TestHalfProbabilityBlock:
    def test_honest_verifier(self):
        assert success_block_residual(gmw_circuit(3)) < TOL

    @pytest.mark.parametrize("seed", range(4))
    def test_haar_verifiers(self, seed):
        assert success_block_residual(gmw_circuit(3, verifier_seed=seed)) < TOL

    def test_rigid_instance(self):
        assert success_block_residual(gmw_circuit(2)) < TOL

    def test_matches_dense_block_away_from_half(self):
        # Keeping only A = B = 0 moves the block far from I/2, so the value
        # compared is the block itself, not rounding.
        circ = gmw_circuit(2, verifier_seed=5)
        layout = circ.layout
        mask = np.zeros(layout.dim_of("A") * layout.dim_of("B"))
        mask[0] = 1.0
        narrowed = DiagonalOp(layout, ("A", "B"), mask, kind="projector")
        circ = dataclasses.replace(circ, success_proj=narrowed)
        a = kron_oracle(circ.attempt, layout)
        conj = a.conj().T @ kron_oracle(narrowed, layout) @ a
        starts = np.arange(circ.dim_w) * (layout.total_dim // circ.dim_w)
        top = conj[np.ix_(starts, starts)]
        expected = np.linalg.norm(top - np.eye(circ.dim_w) / 2, ord=2)
        assert expected > 0.1
        assert abs(success_block_residual(circ) - expected) <= 1e-12

    def test_success_probability_matches(self):
        circ = gmw_circuit(3, verifier_seed=6)
        for seed in range(3):
            assert abs(success_probability(circ, random_aux(2, seed)) - 0.5) < TOL

    def test_projective_measurement_on_attempt_output(self):
        circ = gmw_circuit(3, verifier_seed=1)
        s1 = StateVector(circ.layout, attempt_output(circ, random_aux(2, 50)))
        prob, collapsed = project(circ.success_proj, s1)
        assert abs(prob - 0.5) < TOL
        assert collapsed is not None and abs(np.linalg.norm(collapsed.amps) - 1) < 1e-12


class TestAmplificationStep:
    def test_trivial_phases_give_identity(self):
        circ = gmw_circuit(2)
        step = grover_step(circ, 1.0, 1.0)
        s = attempt_output(circ, random_aux(2, 3))
        np.testing.assert_allclose(step.apply_to(circ.layout, s), s, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_phase_i_identity(self, seed):
        circ = gmw_circuit(3, verifier_seed=seed)
        check = amplification_check(circ, random_aux(2, seed + 40))
        assert check.residual < TOL
        assert abs(check.success_prob - 1.0) < TOL

    def test_output_norm_is_one(self):
        # |i - 1|^2 * 1/2 = 1, so the step output needs no renormalization.
        circ = gmw_circuit(3, verifier_seed=8)
        s1 = attempt_output(circ, random_aux(2, 5))
        s2 = grover_step(circ, 1j, 1j).apply_to(circ.layout, s1)
        assert abs(np.linalg.norm(s2) - 1) < TOL

    def test_swapped_order_differs(self):
        circ = gmw_circuit(3, verifier_seed=2)
        check = amplification_check(circ, random_aux(2, 11))
        assert check.swapped_order_residual > 1e-2

    def test_swapped_order_honest_value(self):
        # With the honest verifier the start slice of the attempt output is
        # empty, so the swapped order reduces to i times the attempt output
        # and sits at distance exactly 1 from the correct result.
        circ = gmw_circuit(3)
        check = amplification_check(circ, random_aux(2, 12))
        assert abs(check.swapped_order_residual - 1.0) < 1e-9


class TestDerivationChains:
    @pytest.mark.parametrize("seed", [None, 3])
    def test_norm_chain(self, seed):
        circ = gmw_circuit(3, verifier_seed=seed)
        values = amplification_check(circ, random_aux(2, 21)).norm_chain
        assert len(values) == 7
        assert values[-1] == 0.5
        for a, b in zip(values, values[1:]):
            assert abs(a - b) < TOL

    @pytest.mark.parametrize("seed", [None, 5])
    def test_block_chain(self, seed):
        circ = gmw_circuit(3, verifier_seed=seed)
        residuals = amplification_check(circ, random_aux(2, 22)).derivation
        assert list(residuals) == [
            "start_slice_coefficient",
            "complement_coefficient",
            "collapses_to_conjugated_projector",
            "equals_projected_attempt",
        ]
        for name, value in residuals.items():
            assert value < TOL, name

    @pytest.mark.parametrize("seed", [None, 5])
    def test_last_step_is_the_identity_residual(self, seed):
        # The factor-by-factor walk runs the same factors in the same order as
        # the step's chain, so it reproduces the chain's residual bit for bit.
        circ = gmw_circuit(3, verifier_seed=seed)
        aux = random_aux(2, 23)
        check = amplification_check(circ, aux)
        assert check.derivation["equals_projected_attempt"] == check.residual
        s1 = attempt_output(circ, aux)
        stepped = grover_step(circ, 1j, 1j).apply_to(circ.layout, s1)
        target = (1j - 1) * circ.success_proj.apply_to(circ.layout, s1)
        assert float(np.linalg.norm(stepped - target)) == check.residual

    def test_norm_chain_line_zero_is_the_success_probability(self):
        circ = gmw_circuit(3, verifier_seed=6)
        aux = random_aux(2, 24)
        s1 = StateVector(circ.layout, attempt_output(circ, aux))
        line0 = amplification_check(circ, aux).norm_chain[0]
        assert line0 == pytest.approx(success_probability(circ, aux), abs=1e-15)
        assert line0 == pytest.approx(project(circ.success_proj, s1)[0], abs=1e-15)

    def test_wrong_start_phase_breaks_the_chain(self, monkeypatch):
        # With the start phase -1 the step no longer collapses onto the
        # conjugated projector, and each intermediate after it drifts.
        circ = gmw_circuit(3, verifier_seed=5)
        original = simulator.phase_on_start
        monkeypatch.setattr(simulator, "phase_on_start", lambda layout, phi: original(layout, -1.0))
        check = amplification_check(circ, random_aux(2, 25))
        assert check.derivation["start_slice_coefficient"] < TOL
        assert check.derivation["collapses_to_conjugated_projector"] > 0.1
        assert check.residual > 0.1

    def test_needs_protocol_circuit(self):
        circ = dataclasses.replace(gmw_circuit(3), inst=None)
        with pytest.raises(ValueError, match="protocol circuit"):
            amplification_check(circ, random_aux(2, 26))


class TestSimulatedView:
    @pytest.mark.parametrize("verifier_seed", [None, 0, 1])
    def test_matches_real_view_n3(self, verifier_seed):
        circ = gmw_circuit(3, verifier_seed=verifier_seed)
        aux = random_aux(2, seed=33)
        sim = simulate_round_recorded(circ, aux)
        real = real_view_recorded(circ.inst, circ.ver, aux)
        assert sim.trace_distance(real) < TOL

    def test_matches_real_view_dense(self):
        # On the full-length oracle views, assembled densely.
        circ = gmw_circuit(3, verifier_seed=2)
        aux = random_aux(2, seed=34)
        sim = dense_view(simulated_view(circ, aux))
        d = trace_distance(sim, dense_view(real_view(circ.inst, circ.ver, aux)))
        assert d < TOL

    def test_matches_real_view_n2(self):
        circ = gmw_circuit(2, verifier_seed=7)
        aux = random_aux(2, seed=35)
        assert simulate_round_recorded(circ, aux).trace_distance(
            real_view_recorded(circ.inst, circ.ver, aux)
        ) < TOL

    def test_entangled_aux(self):
        # W is a 4-dim register holding a state entangled across its 2x2
        # split; the view equality is an identity in the aux input, so it
        # must survive entanglement.
        inst = Instance.from_graphs(PATH3, PATH3B)
        ver = adversarial_verifier((4, 2), 3, seed=3)
        circ = build_circuit(inst, ver)
        bell = StateVector(aux_layout(4), np.array([1, 0, 0, 1]) / np.sqrt(2))
        sim = simulate_round_recorded(circ, bell)
        real = real_view_recorded(inst, ver, bell)
        assert sim.trace_distance(real) < TOL

    def test_keep_z_variant(self):
        circ = gmw_circuit(3, verifier_seed=5)
        aux = random_aux(2, seed=36)
        sim = simulate_round_recorded(circ, aux, keep_z=True)
        real = real_view_recorded(circ.inst, circ.ver, aux, keep_z=True)
        assert sim.record_registers == (("Z", 6), ("Zp", 8), ("A", 2))
        assert sim.trace_distance(real) < TOL

    def test_amplification_is_load_bearing_for_the_response_record(self):
        # Branch-averaging the raw attempt output (no amplification step)
        # already reproduces the view without the response record: which
        # message the verifier saw never depended on the guess.  With the
        # response recorded, half the unamplified weight sits on branches
        # whose guess disagrees with the challenge, and the distance to the
        # real view is exactly 1/2; the amplified round still matches.
        circ = gmw_circuit(3, verifier_seed=3)
        aux = random_aux(2, seed=45)
        inst, ver = circ.inst, circ.ver
        codes = inst.codes.reshape(-1)
        responses = np.arange(codes.size) % (codes.size // 2)
        branches = attempt_output(circ, aux).reshape(-1, codes.size)
        unamplified = branch_view(ver.dims, 3, branches, codes)
        assert per_key_trace_distance(unamplified, real_view(inst, ver, aux)) < TOL
        unamplified_z = branch_view(ver.dims, 3, branches, codes, responses)
        unamplified_gap = per_key_trace_distance(unamplified_z, real_view(inst, ver, aux, True))
        assert abs(unamplified_gap - 0.5) < 1e-9
        real_z = real_view_recorded(inst, ver, aux, keep_z=True)
        assert simulate_round_recorded(circ, aux, keep_z=True).trace_distance(real_z) < TOL

    @pytest.mark.parametrize("completion", ["householder", "dft"])
    def test_completion_independent(self, completion):
        circ = gmw_circuit(3, verifier_seed=1, completion=completion)
        aux = random_aux(2, seed=37)
        sim = simulate_round_recorded(circ, aux)
        real = real_view_recorded(circ.inst, circ.ver, aux)
        assert sim.trace_distance(real) < TOL

    def test_simulated_view_trace_one(self):
        circ = gmw_circuit(3, verifier_seed=4)
        view = simulate_round_recorded(circ, random_aux(2, 38))
        assert abs(view_trace(view) - 1) < 1e-10


class TestSampledRound:
    def test_always_accepts_after_amplification(self):
        circ = gmw_circuit(3, verifier_seed=6)
        rng = np.random.default_rng(99)
        block = start_block(circ.ver, 3, circ.inst.codes[0])
        amplified = amplified_columns(circ, random_aux(2, 39), block)
        for _ in range(5):
            round_ = sample_round(circ, amplified, rng)
            assert round_.challenge == round_.guess
            assert round_.accepted
            assert round_.sent == act(
                round_.permutation, circ.inst.graph_for_challenge(round_.guess)
            )

    def test_deterministic_per_seed(self):
        circ = gmw_circuit(3, verifier_seed=6)
        block = start_block(circ.ver, 3, circ.inst.codes[0])
        amplified = amplified_columns(circ, random_aux(2, 40), block)
        r1 = sample_round(circ, amplified, np.random.default_rng(5))
        r2 = sample_round(circ, amplified, np.random.default_rng(5))
        assert (r1.guess, r1.permutation) == (r2.guess, r2.permutation)


N3 = ["--n", "3", "--g0", "01,12", "--g1", "01,02"]
N4 = ["--n", "4", "--g0", "01,12,23", "--g1", "03,12,20"]


def zk_check_states(argv, amplified=True):
    """The circuit, full-length state and factor columns ``zk-check argv --seed 7`` samples from.

    The state is the operator chain's amplified state, and the columns the
    start-block ones that ``zk-check`` draws from.  With ``amplified=False``
    both are of the attempt output instead (the start-block step with both
    phases 1), whose challenge is not yet tied to the guess.
    """
    cfg = cli.config_from_args(cli.build_parser().parse_args(["zk-check", *argv, "--seed", "7"]))
    inst = cli.build_instance(cfg)
    (_, (_, aux_seed, _), circ), = cli._trials(cfg, inst, cfg.extras.get("verifier", "adversarial"))
    aux = random_aux(cfg.dims[0], aux_seed)
    block = start_block(circ.ver, inst.n, inst.codes[0])
    if amplified:
        return circ, operator_amplified_state(circ, aux), amplified_columns(circ, aux, block)
    weights, rows = branch_weights(circ, block)
    u = coefficient_step(circ, block, weights, rows, np.outer(aux.amps, weights), 1, 1)
    return circ, attempt_output(circ, aux), block.code_columns(u, rows)


SAMPLED_STATES = {
    "n3": (N3, True),
    "n3-8x8": ([*N3, "--dim-w", "8", "--dim-v", "8"], True),
    "n4-keep-z": ([*N4, "--keep-z"], True),
    "n3-dft": ([*N3, "--completion", "dft"], True),
    "n3-attempt": (N3, False),
}


class TestSampledFromBornTable:
    """``sample_round`` draws what measuring B, Z and A in turn would."""

    @pytest.mark.parametrize("name", SAMPLED_STATES)
    def test_same_draws_as_three_measurements(self, name):
        circ, state, columns = zk_check_states(*SAMPLED_STATES[name])
        perms = permutations(circ.inst.n)
        for seed in range(200):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            sampled = sample_round(circ, columns, rng)
            collapsed = StateVector(circ.layout, state)
            b, _, collapsed = measure(collapsed, "B", oracle_rng)
            z, _, collapsed = measure(collapsed, "Z", oracle_rng)
            a, _, _ = measure(collapsed, "A", oracle_rng)
            assert (sampled.guess, sampled.permutation, sampled.challenge) == (b, perms[z], a)
            assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("amplified", [True, False], ids=["amplified", "attempt"])
    def test_frequencies_match_the_born_table(self, amplified):
        circ, state, columns = zk_check_states(N3, amplified)
        born = np.einsum("wvaybz->bza", np.abs(state.reshape(circ.layout.dims)) ** 2)
        perms = permutations(circ.inst.n)
        draws, rng = 2000, np.random.default_rng(2024)
        counts = np.zeros_like(born)
        for _ in range(draws):
            r = sample_round(circ, columns, rng)
            counts[r.guess, perms.index(r.permutation), r.challenge] += 1
        sigma = np.sqrt(draws * born * (1 - born))
        assert np.all(np.abs(counts - draws * born) <= 5 * sigma + 1e-9)
        assert np.count_nonzero(born > 1e-12) == (12 if amplified else 24)


@pytest.mark.parametrize("name", ["n3", "n3-8x8", "n4-keep-z"])
def test_benchmark_operators_match_the_moving_form_bit_for_bit(name):
    # The zk-check circuits of the benchmark, on their amplified state, on
    # dim_w columns (the half-success block) and, at n = 3, on the d x d/2
    # kept columns that blocks factors.
    circ, state, _ = zk_check_states(*SAMPLED_STATES[name])
    layout, d = circ.layout, circ.layout.total_dim
    rng = np.random.default_rng(3)
    blocks = [state] + [
        rng.standard_normal((d, w)) + 1j * rng.standard_normal((d, w))
        for w in ([circ.dim_w, d // 2] if name == "n3" else [circ.dim_w])
    ]
    ops = (
        *circ.attempt.factors,
        circ.success_proj,
        phase_on_start(layout, 1j),
        phase_on_success(circ.success_proj, 1j),
    )
    for x in blocks:
        for op in ops:
            for applied in (op, op.adjoint()):
                out = applied.apply_to(layout, x)
                assert np.array_equal(out, moved_apply(applied, layout, x)), (op.targets, x.shape)


def rng_with_first_draw(predicate):
    """Seeded generator whose first uniform draw satisfies the predicate."""
    for seed in range(100):
        if predicate(np.random.default_rng(seed).random()):
            return np.random.default_rng(seed)
    raise AssertionError("no such seed in range")


class TestWatrousRound:
    def test_success_probability_half(self):
        circ = gmw_circuit(3, verifier_seed=3)
        assert abs(success_probability(circ, random_aux(2, 41)) - 0.5) < TOL

    def test_failure_branch_recovers_success_state(self):
        circ = gmw_circuit(3, verifier_seed=3)
        aux = random_aux(2, 42)
        layout = circ.layout
        s1 = attempt_output(circ, aux)
        succ = circ.success_proj.apply_to(layout, s1)
        succ = succ / np.linalg.norm(succ)

        succeeded, final = watrous_round(
            circ, aux, rng_with_first_draw(lambda u: u >= 0.5 + 1e-3)
        )
        assert not succeeded
        succ_state = StateVector(layout, succ)
        assert fidelity(final, succ_state) >= 1 - TOL
        # The reflection flips the global sign relative to the success state.
        assert abs(overlap(succ_state, final) + 1) < 1e-9

    def test_success_branch(self):
        circ = gmw_circuit(3, verifier_seed=3)
        aux = random_aux(2, 43)
        succeeded, final = watrous_round(
            circ, aux, rng_with_first_draw(lambda u: u < 0.5 - 1e-3)
        )
        assert succeeded
        projected = circ.success_proj.apply_to(circ.layout, final.amps)
        assert abs(np.linalg.norm(projected) - 1) < TOL

    def test_deterministic_per_seed(self):
        circ = gmw_circuit(3, verifier_seed=3)
        aux = random_aux(2, 44)
        a = watrous_round(circ, aux, np.random.default_rng(12))
        b = watrous_round(circ, aux, np.random.default_rng(12))
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1].amps, b[1].amps)
