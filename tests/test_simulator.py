"""Attempt unitary, amplification identities, and view equality."""

import numpy as np
import pytest

from zkamp.protocol import (
    Instance,
    adversarial_verifier,
    aux_layout,
    honest_verifier,
    random_aux,
    real_view_recorded,
    view_layout,
)
from zkamp.registers import OpChain, StateVector, to_matrix
from zkamp.simulator import (
    amplification_chain_residuals,
    amplification_check,
    amplified_state,
    attempt_output,
    build_circuit,
    grover_step,
    phase_on_start,
    phase_on_success,
    sample_round,
    sim_layout,
    simulate_round_recorded,
    success_block_residual,
    success_norm_chain,
    success_projector,
    uniform_superposition_unitary,
)
from zkamp.symm import Graph, act, encode, enumerate_sn

from oracles import (
    basis_state,
    dense_view,
    fidelity,
    overlap,
    project,
    success_probability,
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
    perms = enumerate_sn(n)
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
        values = success_norm_chain(circ, random_aux(2, 21))
        assert values[-1] == pytest.approx(0.5, abs=1e-15)
        for a, b in zip(values, values[1:]):
            assert abs(a - b) < TOL

    @pytest.mark.parametrize("seed", [None, 5])
    def test_block_chain(self, seed):
        circ = gmw_circuit(3, verifier_seed=seed)
        residuals = amplification_chain_residuals(circ, random_aux(2, 22))
        assert len(residuals) == 4
        for name, value in residuals.items():
            assert value < TOL, name


class TestSimulatedView:
    @pytest.mark.parametrize("verifier_seed", [None, 0, 1])
    def test_matches_real_view_n3(self, verifier_seed):
        circ = gmw_circuit(3, verifier_seed=verifier_seed)
        aux = random_aux(2, seed=33)
        sim = simulate_round_recorded(circ, aux)
        real = real_view_recorded(circ.inst, circ.ver, aux)
        assert sim.trace_distance(real) < TOL

    def test_matches_real_view_dense(self):
        circ = gmw_circuit(3, verifier_seed=2)
        aux = random_aux(2, seed=34)
        sim = dense_view(simulate_round_recorded(circ, aux))
        d = trace_distance(sim, dense_view(real_view_recorded(circ.inst, circ.ver, aux)))
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
        assert sim.record_registers == (("Z", 6), ("Zp", 8))
        assert sim.trace_distance(real) < TOL

    def test_amplification_is_load_bearing_for_the_response_record(self):
        # Branch-averaging the raw attempt output (no amplification step)
        # already reproduces the view without the response record: which
        # message the verifier saw never depended on the guess.  With the
        # response recorded, half the unamplified weight sits on branches
        # whose guess disagrees with the challenge, and the distance to the
        # real view is exactly 1/2; the amplified round still matches.
        from zkamp.protocol import RecordedView
        from zkamp.symm import encode, num_graph_codes

        circ = gmw_circuit(3, verifier_seed=3)
        aux = random_aux(2, seed=45)
        inst, ver = circ.inst, circ.ver
        perms = enumerate_sn(3)
        base = view_layout(ver.dims, 3)
        tensor = attempt_output(circ, aux).reshape(circ.layout.dims)

        a_axis = base.axis("A")

        def branch_average(keep_z):
            # Factor columns: each branch split by challenge value, i.e. the
            # A-dephased branch mixture X X^dagger.
            factors = {}
            for b, g in enumerate((inst.g0, inst.g1)):
                for z, pi in enumerate(perms):
                    v = tensor[..., b, z]
                    cols = []
                    for a in range(2):
                        part = np.zeros_like(v)
                        np.moveaxis(part, a_axis, 0)[a] = np.moveaxis(v, a_axis, 0)[a]
                        cols.append(part.reshape(-1))
                    code = encode(act(pi, g))
                    key = (z, code) if keep_z else (code,)
                    factors.setdefault(key, []).extend(cols)
            blocks = {key: np.stack(cols, axis=1) for key, cols in factors.items()}
            records = (("Z", len(perms)), ("Zp", num_graph_codes(3)))
            if not keep_z:
                records = records[1:]
            return RecordedView(base, records, blocks)

        assert branch_average(False).trace_distance(
            real_view_recorded(inst, ver, aux)
        ) < TOL
        real_z = real_view_recorded(inst, ver, aux, keep_z=True)
        unamplified_gap = branch_average(True).trace_distance(real_z)
        assert abs(unamplified_gap - 0.5) < 1e-9
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
        amplified = amplified_state(circ, random_aux(2, 39))
        for _ in range(5):
            round_ = sample_round(circ, amplified, rng)
            assert round_.challenge == round_.guess
            assert round_.accepted
            assert round_.sent == act(
                round_.permutation, circ.inst.graph_for_challenge(round_.guess)
            )

    def test_deterministic_per_seed(self):
        circ = gmw_circuit(3, verifier_seed=6)
        amplified = amplified_state(circ, random_aux(2, 40))
        r1 = sample_round(circ, amplified, np.random.default_rng(5))
        r2 = sample_round(circ, amplified, np.random.default_rng(5))
        assert (r1.guess, r1.permutation) == (r2.guess, r2.permutation)


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
