"""Block identities, invariant subspace, phase solving, and the schedule."""

import numpy as np
import pytest

from zkamp.amplify import (
    NotLambdaUniformError,
    PhasePair,
    TwoDimState,
    _hermitian_norm_bound,
    block_decompose,
    computed_second_probability,
    evolve_two_dim,
    final_fail_amplitude,
    iterative_schedule,
    iterative_schedule_full,
    smallest_feasible_k,
    solve_phases,
    stated_second_probability,
    subspace_matrix,
    succ_fail_states,
    toy_circuit,
    verify_block_identities,
    verify_subspace_closure,
)
from zkamp.protocol import Instance, adversarial_verifier, honest_verifier, random_aux
from zkamp.registers import DiagonalOp
from zkamp.simulator import (
    SimulatorCircuit,
    attempt_output,
    build_circuit,
    grover_step,
    watrous_round,
)
from zkamp.symm import Graph

from oracles import kron_oracle

PATH3 = Graph(3, [(0, 1), (1, 2)])
PATH3B = Graph(3, [(0, 1), (0, 2)])
EDGE2 = Graph(2, [(0, 1)])
TOL = 1e-10


def gmw_circuit(verifier_seed=None):
    inst = Instance.from_graphs(PATH3, PATH3B)
    if verifier_seed is None:
        ver = honest_verifier((2, 2), 3)
    else:
        ver = adversarial_verifier((2, 2), 3, verifier_seed)
    return build_circuit(inst, ver)


def full_space_success_after(circ, aux, pairs):
    """Oracle: run the actual operators and read off the success weight."""
    state = attempt_output(circ, aux)
    for pair in pairs:
        state = grover_step(circ, pair.phi, pair.varphi).apply_to(circ.layout, state)
    state = state / np.linalg.norm(state)
    return float(np.linalg.norm(circ.success_proj.apply_to(circ.layout, state)) ** 2)


class TestBlockDecompose:
    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_gmw_gives_half(self, seed):
        circ = gmw_circuit(seed)
        b = block_decompose(circ.attempt, circ.success_proj, circ.layout)
        assert abs(b.success_prob - 0.5) < TOL

    def test_toy_gives_one_over_m(self):
        circ = toy_circuit(3, seed=2)
        b = block_decompose(circ.attempt, circ.success_proj, circ.layout)
        assert abs(b.success_prob - 1 / 3) < TOL

    def test_aux_dependent_projector_rejected(self):
        # A projector that only counts matches when W is 0 has a W-dependent
        # success probability, so the top block cannot be a scalar.
        circ = toy_circuit(2, seed=0)
        layout = circ.layout
        mask = np.array(
            [
                1.0 if w == 0 and a == b else 0.0
                for w in range(2)
                for a in range(2)
                for b in range(2)
            ]
        )
        skewed = DiagonalOp(layout, ("W", "A", "B"), mask, kind="projector")
        with pytest.raises(NotLambdaUniformError):
            block_decompose(circ.attempt, skewed, layout)


class TestBlockIdentities:
    def test_gmw_honest(self):
        circ = gmw_circuit()
        b = block_decompose(circ.attempt, circ.success_proj, circ.layout)
        assert max(verify_block_identities(b)) < TOL

    def test_degenerate_full_projector(self):
        # P = I gives success probability 1 and a vanishing cross block.
        circ = toy_circuit(2, seed=1)
        layout = circ.layout
        full = DiagonalOp(layout, ("A", "B"), np.ones(4), kind="projector")
        b = block_decompose(circ.attempt, full, layout)
        assert abs(b.success_prob - 1.0) < TOL
        assert np.max(np.abs(b.cross)) < TOL
        assert max(verify_block_identities(b)) < TOL

    @pytest.mark.parametrize("seed", range(5))
    def test_toy_m4(self, seed):
        circ = toy_circuit(4, seed=seed)
        b = block_decompose(circ.attempt, circ.success_proj, circ.layout)
        assert abs(b.success_prob - 0.25) < TOL
        assert max(verify_block_identities(b)) < TOL


class TestBlocksAgainstDenseOracle:
    """The masked-attempt product equals a† P a built from kron-embedded factors."""

    CIRCUITS = {
        "gmw-n2": lambda: build_circuit(
            Instance.from_graphs(EDGE2, EDGE2), adversarial_verifier((2, 2), 2, 13)
        ),
        "toy-m3": lambda: toy_circuit(3, seed=14),
    }

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_blocks_match_dense_conjugated_projector(self, name):
        circ = self.CIRCUITS[name]()
        layout = circ.layout
        a = kron_oracle(circ.attempt, layout)
        conj = a.conj().T @ kron_oracle(circ.success_proj, layout) @ a
        dim_w = layout.dim_of("W")
        slice_idx = np.arange(dim_w) * (layout.total_dim // dim_w)
        comp_idx = np.setdiff1d(np.arange(layout.total_dim), slice_idx)

        b = block_decompose(circ.attempt, circ.success_proj, layout)
        np.testing.assert_allclose(
            b.success_prob * np.eye(dim_w), conj[np.ix_(slice_idx, slice_idx)], atol=1e-12
        )
        np.testing.assert_allclose(b.cross, conj[np.ix_(comp_idx, slice_idx)], atol=1e-12)
        np.testing.assert_allclose(b.rest, conj[np.ix_(comp_idx, comp_idx)], atol=1e-12)


class TestHermitianNormBound:
    """The r1/r3 norm is max|eig(H)| + ||K||_F, never below the spectral norm."""

    @pytest.mark.parametrize("seed", range(5))
    def test_bounds_spectral_norm(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 40))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        herm = g + g.conj().T
        for scale in (1.0, 1e-15):
            # Exactly Hermitian: the bound is the spectral norm, up to rounding.
            exact = np.linalg.norm(scale * herm, ord=2)
            assert abs(_hermitian_norm_bound(scale * herm) - exact) <= 1e-13 * exact
            # Nearly and far from Hermitian: the anti-Hermitian part still counts.
            for r in (herm + 1e-6 * g, g, 1j * herm, g - g.T):
                assert _hermitian_norm_bound(scale * r) >= np.linalg.norm(scale * r, ord=2)


class TestSuccFailStates:
    def test_orthonormal_and_resolve_attempt_output(self):
        circ = gmw_circuit(3)
        aux = random_aux(2, 7)
        succ, fail, lam = succ_fail_states(circ, aux)
        assert abs(np.vdot(succ.amps, fail.amps)) < TOL
        recombined = np.sqrt(lam) * succ.amps + np.sqrt(1 - lam) * fail.amps
        assert np.linalg.norm(recombined - attempt_output(circ, aux)) < TOL

    def test_projector_eigenvectors(self):
        circ = toy_circuit(3, seed=4)
        succ, fail, _ = succ_fail_states(circ, random_aux(2, 8))
        p = circ.success_proj
        assert np.linalg.norm(p.apply_to(circ.layout, succ.amps) - succ.amps) < TOL
        assert np.linalg.norm(p.apply_to(circ.layout, fail.amps)) < TOL

    @staticmethod
    def always_succeeding_circuit():
        circ = toy_circuit(2, seed=5)
        full = DiagonalOp(circ.layout, ("A", "B"), np.ones(4), kind="projector")
        return SimulatorCircuit(circ.layout, circ.attempt, full)

    def test_boundary_rejected(self):
        degenerate = self.always_succeeding_circuit()
        with pytest.raises(ValueError):
            succ_fail_states(degenerate, random_aux(2, 9))

    def test_watrous_round_rejects_certain_success(self):
        # The shared split refuses the boundary instead of normalizing an
        # empty failure branch.
        degenerate = self.always_succeeding_circuit()
        with pytest.raises(ValueError, match="at the boundary"):
            watrous_round(degenerate, random_aux(2, 9), np.random.default_rng(0))


class TestSubspaceMatrix:
    @pytest.mark.parametrize("lam", [0.17, 0.5, 0.83])
    def test_plain_grover_form(self, lam):
        m = subspace_matrix(lam, PhasePair(-1.0, -1.0))
        root = np.sqrt(lam * (1 - lam))
        expected = -np.array([[1 - 2 * lam, 2 * root], [-2 * root, 1 - 2 * lam]])
        np.testing.assert_allclose(m, expected, atol=1e-14)

    def test_half_probability_quarter_turn(self):
        m = subspace_matrix(0.5, PhasePair(-1.0, -1.0))
        np.testing.assert_allclose(m, np.array([[0, -1], [1, 0]]), atol=1e-14)

    def test_phase_i_on_uniform_state(self):
        state = evolve_two_dim(0.5, [PhasePair(1j, 1j)])
        np.testing.assert_allclose(state[0], (1j - 1) / np.sqrt(2), atol=1e-14)
        assert abs(state[1]) < 1e-14

    def test_unitary_for_random_phases(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            lam = float(rng.uniform(0.01, 0.99))
            phases = PhasePair(np.exp(1j * rng.uniform(0, 2 * np.pi)),
                               np.exp(1j * rng.uniform(0, 2 * np.pi)))
            m = subspace_matrix(lam, phases)
            np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("lam", [0.1, 1 / 3, 0.5, 0.9])
    def test_matches_grover_rotation(self, lam):
        # sin^2(theta) = lam; one plain step is the rotation by 2 theta.
        theta = np.arcsin(np.sqrt(lam))
        rotation = np.array(
            [
                [np.cos(2 * theta), np.sin(2 * theta)],
                [-np.sin(2 * theta), np.cos(2 * theta)],
            ]
        )
        m = -subspace_matrix(lam, PhasePair(-1.0, -1.0))
        np.testing.assert_allclose(m, rotation, atol=1e-12)

    def test_two_dim_state_type(self):
        TwoDimState(np.sqrt(0.5), np.sqrt(0.5))
        with pytest.raises(ValueError):
            TwoDimState(1.0, 1.0)


class TestSubspaceClosure:
    def test_gmw_phase_i(self):
        circ = gmw_circuit(1)
        assert verify_subspace_closure(circ, random_aux(2, 10), PhasePair(1j, 1j)) < TOL

    def test_toy_plain_grover(self):
        circ = toy_circuit(3, seed=6)
        assert verify_subspace_closure(circ, random_aux(2, 11), PhasePair(-1.0, -1.0)) < TOL

    def test_random_phases(self):
        circ = gmw_circuit(2)
        aux = random_aux(2, 12)
        rng = np.random.default_rng(13)
        for _ in range(10):
            phases = PhasePair(np.exp(1j * rng.uniform(0, 2 * np.pi)),
                               np.exp(1j * rng.uniform(0, 2 * np.pi)))
            assert verify_subspace_closure(circ, aux, phases) < TOL

    def test_ten_iterations_stay_in_subspace(self):
        circ = toy_circuit(3, seed=7)
        aux = random_aux(2, 14)
        succ, fail, lam = succ_fail_states(circ, aux)
        state = attempt_output(circ, aux)
        two_dim = evolve_two_dim(lam, [])
        rng = np.random.default_rng(15)
        for _ in range(10):
            phases = PhasePair(np.exp(1j * rng.uniform(0, 2 * np.pi)),
                               np.exp(1j * rng.uniform(0, 2 * np.pi)))
            state = grover_step(circ, phases.phi, phases.varphi).apply_to(circ.layout, state)
            two_dim = subspace_matrix(lam, phases) @ two_dim
            reconstructed = two_dim[0] * succ.amps + two_dim[1] * fail.amps
            assert np.linalg.norm(state - reconstructed) < TOL


def analytic_k_min(lam):
    """Fewest steps of exact amplification: ceil(pi / (4 arcsin sqrt(lam)) - 1/2)."""
    return int(np.ceil(np.pi / (4 * np.arcsin(np.sqrt(lam))) - 0.5))


def feasibility_boundary(k):
    """Smallest lambda that k steps amplify exactly: sin^2(pi / (2 (2k + 1)))."""
    return float(np.sin(np.pi / (2 * (2 * k + 1))) ** 2)


# Seeded lambdas plus every k-boundary for k = 1..9, shifted to either side.
SOLVER_LAMBDAS = sorted(
    np.random.default_rng(2024).uniform(0.001, 0.999, 60).tolist()
    + [
        feasibility_boundary(j) + sign * shift
        for j in range(1, 10)
        for shift in (1e-12, 1e-10, 1e-9)
        for sign in (-1, 1)
    ]
)
# Within this far below a boundary the certificate may accept either verdict.
BOUNDARY_SLACK = 1e-9


class TestSolvePhases:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_verdict_matches_analytic_k_min(self, k):
        boundary = feasibility_boundary(k)
        for lam in SOLVER_LAMBDAS:
            pair = solve_phases(lam, k)
            if pair is not None:
                assert final_fail_amplitude(lam, k, pair) <= TOL, lam
            k_min = analytic_k_min(lam)
            if k == k_min:
                assert pair is not None, lam
            elif k < k_min and pair is not None:
                # 1e-15 absorbs the rounding of boundary - 1e-9 itself.
                assert 0 < boundary - lam <= BOUNDARY_SLACK + 1e-15, lam

    @pytest.mark.parametrize("lam, feasible", [(0.25, True), (0.75, False)])
    def test_exact_axis_states(self, lam, feasible):
        # One plain step puts 1/4 exactly on the success axis (c = 0) and 3/4
        # exactly on the failure axis (s = 0); neither needs a special case.
        state = evolve_two_dim(lam, [PhasePair(-1.0, -1.0)])
        assert 0.0 in (state[0].real, state[1].real)
        pair = solve_phases(lam, 2)
        assert (pair is not None) == feasible
        if feasible:
            assert final_fail_amplitude(lam, 2, pair) == 0.0

    def test_half_probability_single_step(self):
        pair = solve_phases(0.5, 1)
        assert pair is not None
        assert final_fail_amplitude(0.5, 1, pair) < TOL
        assert abs(pair.phi - 1j) < 1e-6 and abs(pair.varphi - 1j) < 1e-6

    def test_phase_i_pair_is_exact(self):
        assert final_fail_amplitude(0.5, 1, PhasePair(1j, 1j)) < TOL

    def test_plain_pair_rotates_failure_to_success(self):
        # At lam = 1/2 the (-1, -1) step maps the failure state exactly onto
        # the success axis; that is the sense in which it is exact.
        out = subspace_matrix(0.5, PhasePair(-1.0, -1.0)) @ np.array([0.0, 1.0])
        assert abs(out[1]) < 1e-15
        assert abs(abs(out[0]) - 1) < 1e-15
        # On the uncollapsed initial state the same step provably leaves
        # failure amplitude 1/sqrt(2): a quarter turn cannot map the
        # diagonal onto an axis.
        assert abs(final_fail_amplitude(0.5, 1, PhasePair(-1.0, -1.0)) - np.sqrt(0.5)) < 1e-12

    def test_small_lambda_needs_more_steps(self):
        assert solve_phases(0.1, 1) is None
        pair = solve_phases(0.1, 3)
        assert pair is not None
        assert final_fail_amplitude(0.1, 3, pair) < TOL

    def test_single_step_boundary_is_one_quarter(self):
        # At lam = 1/4 the magnitude-matching condition is tangential and
        # the unique single-step solution is the plain reflection pair.
        pair = solve_phases(0.25, 1)
        assert pair is not None
        assert final_fail_amplitude(0.25, 1, pair) < TOL
        assert abs(pair.phi - (-1.0)) < 1e-3 and abs(pair.varphi - (-1.0)) < 1e-3
        assert solve_phases(0.24, 1) is None
        assert solve_phases(0.26, 1) is not None

    def test_one_third_is_single_step(self):
        found = smallest_feasible_k(1 / 3)
        assert found is not None
        k, pair = found
        assert k == 1
        assert final_fail_amplitude(1 / 3, k, pair) < TOL

    def test_full_space_verification_gmw(self):
        circ = gmw_circuit(4)
        pair = solve_phases(0.5, 1)
        p = full_space_success_after(circ, random_aux(2, 16), [pair])
        assert abs(p - 1.0) < TOL

    def test_full_space_verification_toy(self):
        circ = toy_circuit(3, seed=8)
        k, pair = smallest_feasible_k(1 / 3)
        pairs = [PhasePair(-1.0, -1.0)] * (k - 1) + [pair]
        p = full_space_success_after(circ, random_aux(2, 17), pairs)
        assert abs(p - 1.0) < TOL

    def test_full_space_small_lambda(self):
        circ = toy_circuit(10, seed=9)
        pair = solve_phases(0.1, 3)
        pairs = [PhasePair(-1.0, -1.0)] * 2 + [pair]
        p = full_space_success_after(circ, random_aux(2, 18), pairs)
        assert abs(p - 1.0) < TOL

    def test_deterministic(self):
        a = solve_phases(0.37, 2)
        b = solve_phases(0.37, 2)
        assert a == b

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_phases(0.0, 1)
        with pytest.raises(ValueError):
            solve_phases(0.5, 0)


class TestToyCircuit:
    def test_m2_matches_gmw_structure(self):
        circ = toy_circuit(2, seed=10)
        b = block_decompose(circ.attempt, circ.success_proj, circ.layout)
        assert abs(b.success_prob - 0.5) < TOL

    @pytest.mark.parametrize("seed", range(3))
    def test_m5(self, seed):
        circ = toy_circuit(5, seed=seed)
        b = block_decompose(circ.attempt, circ.success_proj, circ.layout)
        assert abs(b.success_prob - 0.2) < TOL

    def test_block_is_identity_over_m(self):
        # The half-probability identity generalizes: the top block is I/m,
        # so the success probability is 1/m for every auxiliary input.
        from zkamp.simulator import success_probability

        circ = toy_circuit(4, seed=11)
        for seed in range(3):
            assert abs(success_probability(circ, random_aux(2, seed)) - 0.25) < TOL

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            toy_circuit(1)


class TestIterativeSchedule:
    def test_half_probability(self):
        assert iterative_schedule(0.5, 5) == pytest.approx([0.5, 1.0], abs=1e-12)

    def test_m2_second_probability_matches_stated(self):
        lam = 0.5
        probs = iterative_schedule(lam, 2)
        assert abs(probs[1] - stated_second_probability(2)) < TOL
        assert abs(computed_second_probability(lam) - stated_second_probability(2)) < TOL

    def test_m8_disagrees_with_stated(self):
        lam = 1 / 8
        probs = iterative_schedule(lam, 4)
        assert abs(probs[0] - lam) < TOL
        assert abs(probs[1] - 0.4375) < TOL
        assert abs(computed_second_probability(lam) - 0.4375) < 1e-15
        assert probs[1] != pytest.approx(stated_second_probability(8), abs=1e-3)
        assert all(p >= lam - TOL for p in probs)

    def test_full_space_agreement_toy(self):
        circ = toy_circuit(3, seed=12)
        aux = random_aux(2, 19)
        full = iterative_schedule_full(circ, aux, 4)
        two_dim = iterative_schedule(1 / 3, 4)
        assert len(full) == len(two_dim)
        for a, b in zip(full, two_dim):
            assert abs(a - b) < TOL

    def test_full_space_agreement_gmw(self):
        circ = gmw_circuit(5)
        full = iterative_schedule_full(circ, random_aux(2, 20), 5)
        assert full == pytest.approx([0.5, 1.0], abs=1e-10)

    def test_every_entry_at_least_lambda(self):
        for m in (2, 3, 5, 8):
            lam = 1 / m
            probs = iterative_schedule(lam, 6)
            assert all(p >= lam - TOL for p in probs)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            iterative_schedule(1.0, 3)
        with pytest.raises(ValueError):
            iterative_schedule(0.5, 0)
