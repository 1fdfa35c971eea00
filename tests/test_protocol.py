"""Real verifier view, verifier models, and the acceptance predicate."""

import numpy as np
import pytest

from zkamp.protocol import (
    Instance,
    NotIsomorphicError,
    VerifierModel,
    accept,
    adversarial_verifier,
    aux_layout,
    honest_response,
    honest_verifier,
    random_aux,
    real_view_recorded,
    verifier_outputs,
    view_layout,
)
from zkamp.registers import (
    HADAMARD,
    DiagonalOp,
    HouseholderOp,
    LinearOp,
    to_matrix,
)
from zkamp.simulator import build_circuit
from zkamp.symm import (
    Graph,
    Permutation,
    act,
    decode,
    encode,
    enumerate_sn,
    num_graph_codes,
)

from oracles import (
    basis_state,
    dense_view,
    partial_trace,
    record_weights,
    trace_distance,
    view_trace,
)

PATH3 = Graph(3, [(0, 1), (1, 2)])
PATH3B = Graph(3, [(0, 1), (0, 2)])
EDGE2 = Graph(2, [(0, 1)])
DIMS = (2, 2)


def path_instance():
    return Instance.from_graphs(PATH3, PATH3B)


def basis_aux(dim_w=2, index=0):
    return basis_state(aux_layout(dim_w), {"W": index})


class TestInstance:
    def test_witness_checked(self):
        tau = Permutation(3, (1, 0, 2))
        Instance(PATH3, PATH3B, tau)
        with pytest.raises(ValueError):
            Instance(PATH3, PATH3B, Permutation.identity(3))

    def test_from_graphs_picks_first_witness(self):
        inst = path_instance()
        assert inst.tau == Permutation(3, (1, 0, 2))

    def test_non_isomorphic_rejected(self):
        with pytest.raises(NotIsomorphicError):
            Instance.from_graphs(PATH3, Graph(3, [(0, 1)]))


class TestHonestVerifier:
    def test_creates_uniform_challenge(self):
        ver = honest_verifier(DIMS, 2)
        layout = view_layout(DIMS, 2)
        start = basis_state(layout, {"W": 1, "V": 0, "A": 0, "Y": 1})
        out = ver.u_v.apply_to(layout, start.amps)
        expected = (
            basis_state(layout, {"W": 1, "V": 0, "A": 0, "Y": 1}).amps
            + basis_state(layout, {"W": 1, "V": 0, "A": 1, "Y": 1}).amps
        ) / np.sqrt(2)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_involution(self):
        ver = honest_verifier(DIMS, 2)
        m = to_matrix(ver.u_v, view_layout(DIMS, 2))
        np.testing.assert_allclose(m @ m, np.eye(m.shape[0]), atol=1e-12)

    def test_view_matches_expected_mixture(self):
        # Oracle: psi psi (x) |0><0|_V (x) I_A/2 (x) orbit average on Y.
        inst = path_instance()
        ver = honest_verifier(DIMS, 3)
        aux = random_aux(2, seed=3)
        rho = dense_view(real_view_recorded(inst, ver, aux))
        got = partial_trace(rho, ["W", "V", "A", "Y"])

        dim_y = num_graph_codes(3)
        orbit = np.zeros((dim_y, dim_y), dtype=complex)
        for tau in enumerate_sn(3):
            c = encode(act(tau, inst.g0))
            orbit[c, c] += 1 / 6
        psi = np.outer(aux.amps, aux.amps.conj())
        v0 = np.zeros((2, 2), dtype=complex)
        v0[0, 0] = 1
        expected = np.kron(np.kron(np.kron(psi, v0), np.eye(2) / 2), orbit)
        np.testing.assert_allclose(got.matrix, expected, atol=1e-10)


class TestVerifierModel:
    def test_honest_verifier_acts_on_the_challenge_alone(self):
        layout = view_layout(DIMS, 3)
        ver = honest_verifier(DIMS, 3)
        assert ver.u_v.targets == ("A",)
        expected = np.kron(np.eye(4), np.kron(HADAMARD, np.eye(num_graph_codes(3))))
        np.testing.assert_allclose(to_matrix(ver.u_v, layout), expected, atol=1e-15)

    def test_accepts_unitary_on_a_subset(self):
        layout = view_layout(DIMS, 2)
        VerifierModel(DIMS, DiagonalOp(layout, ("W", "Y"), np.exp(1j * np.arange(4))))

    def test_rejects_projector(self):
        layout = view_layout(DIMS, 2)
        with pytest.raises(ValueError, match="unitary"):
            VerifierModel(DIMS, DiagonalOp(layout, ("A",), [1, 0], kind="projector"))

    def test_rejects_foreign_register(self):
        layout = view_layout(DIMS, 2).extend([("B", 2)])
        with pytest.raises(ValueError, match="W,V,A,Y"):
            VerifierModel(DIMS, LinearOp(layout, ("A", "B"), np.eye(4)))


class TestAdversarialVerifier:
    def test_kept_as_householder_panels(self):
        assert isinstance(adversarial_verifier(DIMS, 3, seed=0).u_v, HouseholderOp)

    def test_unitary(self):
        ver = adversarial_verifier(DIMS, 3, seed=0)
        m = to_matrix(ver.u_v, view_layout(DIMS, 3))
        assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) < 1e-10

    def test_seeds_distinct(self):
        m1 = to_matrix(adversarial_verifier(DIMS, 2, seed=1).u_v, view_layout(DIMS, 2))
        m2 = to_matrix(adversarial_verifier(DIMS, 2, seed=2).u_v, view_layout(DIMS, 2))
        assert np.linalg.norm(m1 - m2, ord=2) > 1e-3

    def test_minimal_dims(self):
        ver = adversarial_verifier((1, 1), 2, seed=0)
        assert to_matrix(ver.u_v, view_layout((1, 1), 2)).shape == (4, 4)


class TestRealView:
    def test_rigid_instance_pure_record(self):
        inst = Instance.from_graphs(EDGE2, EDGE2)
        ver = honest_verifier(DIMS, 2)
        rho = dense_view(real_view_recorded(inst, ver, basis_aux()))
        y = partial_trace(rho, ["Y"])
        zp = partial_trace(rho, ["Zp"])
        code = encode(EDGE2)
        for marginal in (y, zp):
            expected = np.zeros((2, 2), dtype=complex)
            expected[code, code] = 1
            np.testing.assert_allclose(marginal.matrix, expected, atol=1e-12)

    def test_orbit_uniform_weights(self):
        inst = path_instance()
        ver = honest_verifier(DIMS, 3)
        rho = dense_view(real_view_recorded(inst, ver, random_aux(2, seed=9)))
        y = partial_trace(rho, ["Y"]).matrix
        np.testing.assert_allclose(y, np.diag(np.diag(y)), atol=1e-12)
        orbit_codes = {encode(act(tau, inst.g0)) for tau in enumerate_sn(3)}
        assert len(orbit_codes) == 3
        for code in range(num_graph_codes(3)):
            expected = 1 / 3 if code in orbit_codes else 0.0
            assert abs(y[code, code].real - expected) < 1e-10

    def test_challenge_marginal_is_dephased(self):
        inst = path_instance()
        ver = adversarial_verifier(DIMS, 3, seed=5)
        rho = dense_view(real_view_recorded(inst, ver, random_aux(2, seed=6)))
        a = partial_trace(rho, ["A"]).matrix
        assert abs(a[0, 1]) < 1e-12 and abs(a[1, 0]) < 1e-12

    def test_honest_challenge_marginal_is_uniform(self):
        inst = path_instance()
        ver = honest_verifier(DIMS, 3)
        rho = dense_view(real_view_recorded(inst, ver, random_aux(2, seed=7)))
        a = partial_trace(rho, ["A"]).matrix
        np.testing.assert_allclose(a, np.eye(2) / 2, atol=1e-10)

    def test_witness_independent(self):
        tau1 = Permutation(3, (1, 0, 2))
        tau2 = Permutation(3, (2, 0, 1))
        assert act(tau2, PATH3) == PATH3B
        ver = adversarial_verifier(DIMS, 3, seed=11)
        aux = random_aux(2, seed=12)
        for keep_z in (False, True):
            v1 = real_view_recorded(Instance(PATH3, PATH3B, tau1), ver, aux, keep_z=keep_z)
            v2 = real_view_recorded(Instance(PATH3, PATH3B, tau2), ver, aux, keep_z=keep_z)
            assert v1.trace_distance(v2) < 1e-10

    def test_is_valid_density_operator(self):
        # DensityOperator construction enforces Hermitian, PSD, unit trace.
        inst = path_instance()
        ver = adversarial_verifier(DIMS, 3, seed=13)
        rho = dense_view(real_view_recorded(inst, ver, random_aux(2, seed=14)))
        assert abs(np.trace(rho.matrix) - 1) < 1e-10

    def test_aux_layout_checked(self):
        inst = path_instance()
        ver = honest_verifier(DIMS, 3)
        with pytest.raises(ValueError):
            real_view_recorded(inst, ver, random_aux(3, seed=0))

    def test_one_aux_check_for_real_and_simulated_starts(self):
        inst = path_instance()
        ver = honest_verifier(DIMS, 3)
        bad = random_aux(3, seed=0)
        messages = set()
        for start in (
            lambda: real_view_recorded(inst, ver, bad),
            lambda: build_circuit(inst, ver).initial_amps(bad),
        ):
            with pytest.raises(ValueError, match="W-only layout of dim 2") as exc:
                start()
            messages.add(str(exc.value))
        assert len(messages) == 1

    def test_verifier_outputs_match_dense_verifier(self):
        ver = adversarial_verifier(DIMS, 3, seed=5)
        aux = random_aux(2, seed=6)
        layout = view_layout(DIMS, 3)
        codes = [0, 3, 5, 3]
        outs = verifier_outputs(ver, 3, aux, codes, scale=0.5)
        dense = to_matrix(ver.u_v, layout)
        # V and A start at 0, so a start's index below W is its Y code.
        for col, code in zip(outs.T, codes):
            start = np.kron(aux.amps, np.eye(layout.total_dim // 2)[code])
            np.testing.assert_allclose(col, 0.5 * dense @ start, atol=1e-12)


class TestRecordedView:
    def test_dense_assembly_matches_blocks(self):
        inst = Instance.from_graphs(EDGE2, EDGE2)
        ver = adversarial_verifier(DIMS, 2, seed=3)
        aux = random_aux(2, seed=4)
        view = real_view_recorded(inst, ver, aux)
        dense = dense_view(view)
        assert dense.layout.names == ("W", "V", "A", "Y", "Zp")
        assert abs(view_trace(view) - 1) < 1e-12
        # Rebuild by hand from the block factors.
        rec_dim = 2
        manual = np.zeros_like(dense.matrix)
        for (code,), factor in view.blocks.items():
            manual[code::rec_dim, code::rec_dim] = factor @ factor.conj().T
        np.testing.assert_allclose(dense.matrix, manual)

    def test_blocked_distance_matches_dense(self):
        inst = path_instance()
        aux = random_aux(2, seed=8)
        v1 = real_view_recorded(inst, adversarial_verifier(DIMS, 3, seed=1), aux)
        v2 = real_view_recorded(inst, adversarial_verifier(DIMS, 3, seed=2), aux)
        blocked = v1.trace_distance(v2)
        dense = trace_distance(dense_view(v1), dense_view(v2))
        assert abs(blocked - dense) < 1e-10
        assert blocked > 1e-3  # different verifiers give different views

    def test_keep_z_records_responses(self):
        inst = path_instance()
        ver = honest_verifier(DIMS, 3)
        view = real_view_recorded(inst, ver, basis_aux(), keep_z=True)
        assert view.record_registers == (("Z", 6), ("Zp", 8))
        perms = enumerate_sn(3)
        assert abs(view_trace(view) - 1) < 1e-10
        for (z, code), _block in view.blocks.items():
            response = perms[z]
            sent = decode(code, 3)
            assert act(response, inst.g0) == sent or act(response, inst.g1) == sent

    def test_record_weights(self):
        inst = Instance.from_graphs(EDGE2, EDGE2)
        ver = adversarial_verifier(DIMS, 2, seed=6)
        view = real_view_recorded(inst, ver, basis_aux())
        weights = record_weights(view)
        assert set(weights) == {(encode(EDGE2),)}
        assert weights[(encode(EDGE2),)] == pytest.approx(1.0, abs=1e-12)


class TestAccept:
    def test_challenge_zero(self):
        inst = path_instance()
        for tau in enumerate_sn(3):
            sent = act(tau, inst.g0)
            assert accept(sent, 0, tau, inst)

    def test_challenge_one_brute_force(self):
        inst = path_instance()
        tau = Permutation(3, (2, 1, 0))
        sent = act(tau, inst.g0)
        valid = [p for p in enumerate_sn(3) if act(p, inst.g1) == sent]
        assert valid, "brute force must find a valid response"
        for p in valid:
            assert accept(sent, 1, p, inst)

    def test_wrong_response_rejected(self):
        inst = path_instance()
        sent = act(Permutation(3, (1, 2, 0)), inst.g0)
        if sent != inst.g0:
            assert not accept(sent, 0, Permutation.identity(3), inst)

    def test_honest_response_always_accepted(self):
        inst = path_instance()
        for tau in enumerate_sn(3):
            sent = act(tau, inst.g0)
            for a in (0, 1):
                assert accept(sent, a, honest_response(inst, tau, a), inst)
