"""Acceptance suite: one test per criterion, printing one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  All tolerances are pinned here.
"""

import json
import time

import numpy as np
import pytest

from zkamp.amplify import (
    PhasePair,
    block_decompose,
    final_fail_amplitude,
    iterative_schedule,
    iterative_schedule_full,
    smallest_feasible_k,
    solve_phases,
    subspace_matrix,
    toy_circuit,
    verify_block_identities,
)
from zkamp.cli import run as cli_run
from zkamp.protocol import (
    Instance,
    adversarial_verifier,
    aux_layout,
    honest_verifier,
    random_aux,
    real_view_recorded,
)
from zkamp.registers import OpChain, StateVector
from zkamp.simulator import (
    amplification_check,
    attempt_output,
    build_circuit,
    first_measurement,
    grover_step,
    phase_on_start,
    simulate_round_recorded,
    success_block_residual,
)
from zkamp.symm import Graph, Permutation, act

from oracles import success_probability

OP_TOL = 1e-10
ROT_TOL = 1e-12

PATH_PAIR = (Graph(3, [(0, 1), (1, 2)]), Graph(3, [(0, 1), (0, 2)]))
TRIANGLE = Graph(3, [(0, 1), (0, 2), (1, 2)])
TRIANGLE_PAIR = (TRIANGLE, TRIANGLE)
COMPLETIONS = ("householder", "dft")
DIMS = (2, 2)


def n3_instances():
    return [Instance.from_graphs(*PATH_PAIR), Instance.from_graphs(*TRIANGLE_PAIR)]


def n4_instance():
    g0 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    g1 = act(Permutation(4, (1, 0, 2, 3)), g0)
    return Instance.from_graphs(g0, g1)


def bell_aux():
    return StateVector(aux_layout(4), np.array([1, 0, 0, 1]) / np.sqrt(2))


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


class TestCriterion1HalfProbabilityBlock:
    @pytest.mark.parametrize("completion", COMPLETIONS)
    def test_twenty_verifiers_both_instances(self, completion):
        started = time.monotonic()
        worst = 0.0
        for inst in n3_instances():
            for seed in range(20):
                ver = adversarial_verifier(DIMS, 3, seed)
                circ = build_circuit(inst, ver, completion)
                worst = max(worst, success_block_residual(circ))
                assert worst <= OP_TOL
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        report(
            f"criterion 1 PASS ({completion}): half-probability block residual "
            f"<= {worst:.3e} over 20 verifiers x 2 instances in {elapsed:.2f}s"
        )


class TestCriterion2OneStepAmplification:
    @pytest.mark.parametrize("completion", COMPLETIONS)
    def test_twenty_pairs_including_entangled(self, completion):
        inst = Instance.from_graphs(*PATH_PAIR)
        worst_residual = 0.0
        worst_prob_gap = 0.0
        for seed in range(18):
            ver = adversarial_verifier(DIMS, 3, seed)
            circ = build_circuit(inst, ver, completion)
            check = amplification_check(circ, random_aux(2, 100 + seed))
            worst_residual = max(worst_residual, check.residual)
            worst_prob_gap = max(worst_prob_gap, abs(check.success_prob - 1.0))
        # Two pairs with the auxiliary register W holding a state entangled
        # across its 2x2 split.
        for seed in (0, 1):
            ver = adversarial_verifier((4, 2), 3, seed)
            circ = build_circuit(inst, ver, completion)
            check = amplification_check(circ, bell_aux())
            worst_residual = max(worst_residual, check.residual)
            worst_prob_gap = max(worst_prob_gap, abs(check.success_prob - 1.0))
        assert worst_residual <= OP_TOL
        assert worst_prob_gap <= OP_TOL
        report(
            f"criterion 2 PASS ({completion}): amplification residual <= "
            f"{worst_residual:.3e}, success-probability gap <= {worst_prob_gap:.3e} "
            f"over 20 (verifier, aux) pairs"
        )


class TestCriterion3PerfectZeroKnowledge:
    @pytest.mark.parametrize("completion", COMPLETIONS)
    def test_five_seeds_honest_and_adversarial_n3(self, completion):
        inst = Instance.from_graphs(*PATH_PAIR)
        worst = 0.0
        for seed in range(5):
            aux = random_aux(2, 200 + seed)
            for ver in (honest_verifier(DIMS, 3), adversarial_verifier(DIMS, 3, seed)):
                circ = build_circuit(inst, ver, completion)
                sim = simulate_round_recorded(circ, aux)
                real = real_view_recorded(inst, ver, aux)
                worst = max(worst, sim.trace_distance(real))
                assert worst <= OP_TOL
        report(
            f"criterion 3 PASS ({completion}, n=3): trace distance <= {worst:.3e} "
            f"over 5 seeds x (honest, adversarial)"
        )

    @pytest.mark.parametrize("completion", COMPLETIONS)
    def test_confirmation_run_n4(self, completion):
        started = time.monotonic()
        inst = n4_instance()
        ver = adversarial_verifier(DIMS, 4, seed=0)
        circ = build_circuit(inst, ver, completion)
        aux = random_aux(2, 300)
        sim = simulate_round_recorded(circ, aux)
        real = real_view_recorded(inst, ver, aux)
        distance = sim.trace_distance(real)
        elapsed = time.monotonic() - started
        assert distance <= OP_TOL
        assert elapsed < 300.0
        report(
            f"criterion 3 PASS ({completion}, n=4): trace distance {distance:.3e} "
            f"in {elapsed:.1f}s"
        )


class TestCriterion4CompletionIndependence:
    def test_identical_results_under_both_completions(self):
        # Criteria 1-3 run parametrized over both completions above; here the
        # paired comparison is made explicit on one configuration of each.
        inst = Instance.from_graphs(*PATH_PAIR)
        aux = random_aux(2, 400)
        ver = adversarial_verifier(DIMS, 3, seed=9)
        per_completion = {}
        for completion in COMPLETIONS:
            circ = build_circuit(inst, ver, completion)
            sim = simulate_round_recorded(circ, aux)
            real = real_view_recorded(inst, ver, aux)
            per_completion[completion] = (
                success_block_residual(circ),
                amplification_check(circ, aux).residual,
                sim.trace_distance(real),
            )
        for completion, values in per_completion.items():
            assert all(v <= OP_TOL for v in values), completion
        report(
            "criterion 4 PASS: half-probability, amplification, and view-equality "
            f"checks pass under both completions {per_completion}"
        )


class TestCriterion5WatrousVariant:
    def test_reflection_recovers_success_state(self):
        inst = Instance.from_graphs(*PATH_PAIR)
        worst_prob_gap = 0.0
        worst_fid_gap = 0.0
        for seed in range(5):
            ver = adversarial_verifier(DIMS, 3, seed)
            circ = build_circuit(inst, ver)
            aux = random_aux(2, 500 + seed)
            prob = success_probability(circ, aux)
            worst_prob_gap = max(worst_prob_gap, abs(prob - 0.5))

            layout = circ.layout
            s1 = attempt_output(circ, aux)
            succ = circ.success_proj.apply_to(layout, s1)
            succ = succ / np.linalg.norm(succ)
            fail = s1 - circ.success_proj.apply_to(layout, s1)
            fail = fail / np.linalg.norm(fail)
            reflect = OpChain(
                (circ.attempt.adjoint(), phase_on_start(layout, -1.0), circ.attempt)
            )
            reflected = reflect.apply_to(layout, fail)
            fidelity = abs(np.vdot(succ, reflected)) ** 2
            worst_fid_gap = max(worst_fid_gap, 1.0 - fidelity)
        assert worst_prob_gap <= OP_TOL
        assert worst_fid_gap <= OP_TOL
        report(
            f"criterion 5 PASS: first-measurement probability gap <= {worst_prob_gap:.3e}, "
            f"reflected-state fidelity gap <= {worst_fid_gap:.3e}"
        )


class TestCriterion6BlockTheorySuite:
    def test_identities_leakage_and_rotation(self):
        circuits = []
        inst = Instance.from_graphs(*PATH_PAIR)
        circuits.append(("gmw", build_circuit(inst, adversarial_verifier(DIMS, 3, 0)), 0.5))
        for m in (2, 3, 5):
            circuits.append((f"toy m={m}", toy_circuit(m, DIMS, seed=m), 1.0 / m))

        worst_identity = 0.0
        worst_leak = 0.0
        worst_rotation = 0.0
        rng = np.random.default_rng(600)
        for label, circ, expected in circuits:
            decomp = block_decompose(circ.attempt, circ.success_proj, circ.layout)
            assert abs(decomp.success_prob - expected) <= OP_TOL, label
            worst_identity = max(worst_identity, *verify_block_identities(decomp))

            aux = random_aux(DIMS[0], 601)
            lam, succ, fail = first_measurement(circ, aux)
            state = attempt_output(circ, aux)
            coeffs = np.array([np.sqrt(lam), np.sqrt(1 - lam)], dtype=complex)
            for _ in range(10):
                phases = PhasePair(
                    np.exp(1j * rng.uniform(0, 2 * np.pi)),
                    np.exp(1j * rng.uniform(0, 2 * np.pi)),
                )
                state = grover_step(circ, phases.phi, phases.varphi).apply_to(
                    circ.layout, state
                )
                coeffs = subspace_matrix(lam, phases) @ coeffs
                rebuilt = coeffs[0] * succ + coeffs[1] * fail
                worst_leak = max(worst_leak, float(np.linalg.norm(state - rebuilt)))

            theta = np.arcsin(np.sqrt(lam))
            rotation = np.array(
                [
                    [np.cos(2 * theta), np.sin(2 * theta)],
                    [-np.sin(2 * theta), np.cos(2 * theta)],
                ]
            )
            gap = np.max(np.abs(-subspace_matrix(lam, PhasePair(-1.0, -1.0)) - rotation))
            worst_rotation = max(worst_rotation, float(gap))

        assert worst_identity <= OP_TOL
        assert worst_leak <= OP_TOL
        assert worst_rotation <= ROT_TOL
        report(
            f"criterion 6 PASS: block identities <= {worst_identity:.3e}, ten-step "
            f"subspace leakage <= {worst_leak:.3e}, rotation-form gap <= {worst_rotation:.3e}"
        )


class TestCriterion7PhaseSolver:
    def test_half_probability_certifications(self):
        # Solver output at lam = 1/2, k = 1.
        pair = solve_phases(0.5, 1)
        assert pair is not None
        assert final_fail_amplitude(0.5, 1, pair) <= OP_TOL

        # The (i, i) pair, certified in the 2D basis and in full space.
        assert final_fail_amplitude(0.5, 1, PhasePair(1j, 1j)) <= OP_TOL
        inst = Instance.from_graphs(*PATH_PAIR)
        circ = build_circuit(inst, adversarial_verifier(DIMS, 3, 1))
        aux = random_aux(2, 700)
        state = attempt_output(circ, aux)
        state = grover_step(circ, 1j, 1j).apply_to(circ.layout, state)
        state = state / np.linalg.norm(state)
        p = float(np.linalg.norm(circ.success_proj.apply_to(circ.layout, state)) ** 2)
        assert abs(p - 1.0) <= OP_TOL

        # The (-1, -1) pair is exact as the rotation of the failure branch:
        # it maps the collapsed failure state onto the success axis.  On the
        # uncollapsed initial state its failure amplitude is provably
        # 1/sqrt(2) (a quarter turn cannot align the diagonal with an axis),
        # which is asserted as a characterization, not as a pass.
        rotated = subspace_matrix(0.5, PhasePair(-1.0, -1.0)) @ np.array([0.0, 1.0])
        assert abs(rotated[1]) <= OP_TOL
        s1 = attempt_output(circ, aux)
        fail = s1 - circ.success_proj.apply_to(circ.layout, s1)
        fail = fail / np.linalg.norm(fail)
        out = grover_step(circ, -1.0, -1.0).apply_to(circ.layout, fail)
        p_fail_branch = float(
            np.linalg.norm(circ.success_proj.apply_to(circ.layout, out)) ** 2
        )
        assert abs(p_fail_branch - 1.0) <= OP_TOL
        assert final_fail_amplitude(0.5, 1, PhasePair(-1.0, -1.0)) == pytest.approx(
            np.sqrt(0.5), abs=1e-12
        )
        report(
            "criterion 7 PASS (lam=1/2): solver pair and (i,i) exact on the initial "
            "state; (-1,-1) exact on the failure branch (full-space verified); "
            "initial-state (-1,-1) failure amplitude is exactly 1/sqrt(2)"
        )

    def test_one_third_full_space(self):
        found = smallest_feasible_k(1 / 3)
        assert found is not None
        k, pair = found
        assert final_fail_amplitude(1 / 3, k, pair) <= OP_TOL
        circ = toy_circuit(3, DIMS, seed=7)
        state = attempt_output(circ, random_aux(2, 701))
        for step_pair in [PhasePair(-1.0, -1.0)] * (k - 1) + [pair]:
            state = grover_step(circ, step_pair.phi, step_pair.varphi).apply_to(
                circ.layout, state
            )
        state = state / np.linalg.norm(state)
        p = float(np.linalg.norm(circ.success_proj.apply_to(circ.layout, state)) ** 2)
        assert abs(p - 1.0) <= OP_TOL
        report(
            f"criterion 7 PASS (lam=1/3): solver k={k} reaches success probability "
            f"{p:.15f} in full space"
        )


class TestCriterion8Schedule:
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_first_two_probabilities_and_floor(self, m):
        lam = 1.0 / m
        two_dim = iterative_schedule(lam, 6)
        circ = toy_circuit(m, DIMS, seed=800 + m)
        full = iterative_schedule_full(circ, random_aux(2, 801), 6)
        assert abs(two_dim[0] - lam) <= OP_TOL
        expected_second = 4 * lam * (1 - lam)
        if len(two_dim) > 1:
            assert abs(two_dim[1] - expected_second) <= OP_TOL
        assert len(full) == len(two_dim)
        for a, b in zip(full, two_dim):
            assert abs(a - b) <= OP_TOL
        assert all(p >= lam - OP_TOL for p in two_dim)
        report(
            f"criterion 8 PASS (m={m}): schedule starts ({two_dim[0]:.6f}, "
            f"{two_dim[1]:.6f}), full space agrees, every entry >= {lam:.6f}"
        )

    def test_report_flags_stated_discrepancy(self, capsys):
        code = cli_run(["schedule", "--m", "8", "--steps", "4", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        second = [
            r
            for r in json.loads(out)["records"]
            if r["claim"] == "second-measurement-probability"
        ][0]
        assert second["discrepancy_flagged"] is True
        assert second["computed_form"] == pytest.approx(0.4375)
        assert second["stated_form"] == pytest.approx(0.25)

        code = cli_run(["schedule", "--m", "2", "--steps", "3", "--seed", "0"])
        out = capsys.readouterr().out
        second = [
            r
            for r in json.loads(out)["records"]
            if r["claim"] == "second-measurement-probability"
        ][0]
        assert second["discrepancy_flagged"] is False
        report(
            "criterion 8 PASS: report flags the stated-versus-computed second "
            "probability for m > 2 and not for m = 2"
        )
