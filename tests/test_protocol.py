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
    honest_verifier,
    random_aux,
    real_view_recorded,
    start_block,
    start_columns,
    view_layout,
)
from zkamp.registers import (
    HADAMARD,
    DiagonalOp,
    HouseholderOp,
    LinearOp,
)
from zkamp.simulator import _witness_codes, build_circuit
from zkamp.symm import (
    Graph,
    Permutation,
    act,
    encode,
    enumerate_sn,
    num_graph_codes,
    orbit_codes,
)

from oracles import (
    basis_state,
    decode,
    dense_view,
    find_isomorphism,
    honest_response,
    identity,
    orbit_code_list,
    partial_trace,
    per_key_trace_distance,
    permutations,
    real_view,
    record_weights,
    start_outputs,
    to_matrix,
    trace_distance,
    view_trace,
    witness_codes,
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
            Instance(PATH3, PATH3B, identity(3))

    def test_from_graphs_picks_first_witness(self):
        inst = path_instance()
        assert inst.tau == Permutation(3, (1, 0, 2))

    def test_non_isomorphic_rejected(self):
        with pytest.raises(NotIsomorphicError):
            Instance.from_graphs(PATH3, Graph(3, [(0, 1)]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_from_graphs_matches_search_by_relabeling(self, n):
        graphs = [decode(code, n) for code in range(num_graph_codes(n))]
        for g0 in graphs:
            for g1 in graphs:
                tau = find_isomorphism(g0, g1)
                if tau is None:
                    with pytest.raises(NotIsomorphicError):
                        Instance.from_graphs(g0, g1)
                else:
                    assert Instance.from_graphs(g0, g1).tau == tau

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_relabeling_tables(self, n):
        g0 = Graph(n, [(v, v + 1) for v in range(n - 1)])
        inst = Instance.from_graphs(g0, act(permutations(n)[-1], g0))
        assert np.array_equal(inst.perms, enumerate_sn(n)) and not inst.perms.flags.writeable
        assert inst.codes.shape == (2, len(inst.perms)) and inst.codes.dtype == np.int64
        for b, g in enumerate((inst.g0, inst.g1)):
            for z, perm in enumerate(permutations(n)):
                assert inst.codes[b, z] == encode(act(perm, g))
        with pytest.raises(ValueError):
            inst.codes[0, 0] = 0
        assert inst.codes is inst.codes
        # Built directly, an instance computes the same tables on first read.
        direct = Instance(inst.g0, inst.g1, inst.tau)
        assert np.array_equal(direct.perms, inst.perms) and np.array_equal(direct.codes, inst.codes)
        assert not direct.codes.flags.writeable

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_response_table(self, n):
        g0 = Graph(n, [(v, v + 1) for v in range(n - 1)])
        perms = permutations(n)
        inst = Instance.from_graphs(g0, act(perms[-1], g0))
        assert inst.responses.shape == (2, len(inst.perms)) and inst.responses.dtype == np.int64
        for a in (0, 1):
            for z, tau in enumerate(perms):
                assert perms[inst.responses[a, z]] == honest_response(inst, tau, a)
        with pytest.raises(ValueError):
            inst.responses[0, 0] = 1
        assert inst.responses is inst.responses


def table_graphs(n):
    """Empty, complete, path and star graphs on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    path = [(v, v + 1) for v in range(n - 1)]
    star = [(0, v) for v in range(1, n)]
    return {"empty": Graph(n, []), "complete": Graph(n, pairs), "path": Graph(n, path), "star": Graph(n, star)}


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", ["empty", "complete", "path", "star"])
def test_relabeling_tables_equal_the_pure_python_oracles(n, kind):
    # S_n as one integer table: every table read off it equals the pure-Python
    # relabeling of Permutation objects, exactly.
    perms = permutations(n)
    assert np.array_equal(enumerate_sn(n), [p.mapping for p in perms])
    g0 = table_graphs(n)[kind]
    g1 = act(perms[len(perms) // 2], g0)
    assert orbit_codes(g0).tolist() == orbit_code_list(g0)
    inst = Instance.from_graphs(g0, g1)
    assert inst.tau == find_isomorphism(g0, g1)
    assert np.array_equal(inst.codes, [orbit_code_list(g0), orbit_code_list(g1)])
    position = {p: z for z, p in enumerate(perms)}
    responses = [[position[honest_response(inst, p, a)] for p in perms] for a in (0, 1)]
    assert np.array_equal(inst.responses, responses)
    assert np.array_equal(_witness_codes(inst), witness_codes(inst))
    if n > 1 and kind != "empty":
        with pytest.raises(NotIsomorphicError):
            Instance.from_graphs(g0, table_graphs(n)["empty"])


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
        rho = dense_view(real_view(inst, ver, aux))
        got = partial_trace(rho, ["W", "V", "A", "Y"])

        dim_y = num_graph_codes(3)
        orbit = np.zeros((dim_y, dim_y), dtype=complex)
        for tau in permutations(3):
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
        rho = dense_view(real_view(inst, ver, basis_aux()))
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
        rho = dense_view(real_view(inst, ver, random_aux(2, seed=9)))
        y = partial_trace(rho, ["Y"]).matrix
        np.testing.assert_allclose(y, np.diag(np.diag(y)), atol=1e-12)
        orbit_codes = {encode(act(tau, inst.g0)) for tau in permutations(3)}
        assert len(orbit_codes) == 3
        for code in range(num_graph_codes(3)):
            expected = 1 / 3 if code in orbit_codes else 0.0
            assert abs(y[code, code].real - expected) < 1e-10

    def test_challenge_marginal_is_dephased(self):
        inst = path_instance()
        ver = adversarial_verifier(DIMS, 3, seed=5)
        rho = dense_view(real_view(inst, ver, random_aux(2, seed=6)))
        a = partial_trace(rho, ["A"]).matrix
        assert abs(a[0, 1]) < 1e-12 and abs(a[1, 0]) < 1e-12

    def test_honest_challenge_marginal_is_uniform(self):
        inst = path_instance()
        ver = honest_verifier(DIMS, 3)
        rho = dense_view(real_view(inst, ver, random_aux(2, seed=7)))
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
        rho = dense_view(real_view(inst, ver, random_aux(2, seed=14)))
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

    @pytest.mark.parametrize("kind", ["adversarial", "honest"])
    def test_start_block_is_the_dense_verifier_on_the_start_columns(self, kind):
        ver = honest_verifier(DIMS, 3) if kind == "honest" else adversarial_verifier(DIMS, 3, 5)
        layout = view_layout(DIMS, 3)
        block = start_block(ver, 3, [5, 0, 3, 5])
        np.testing.assert_array_equal(block.codes, [0, 3, 5])
        dense = to_matrix(ver.u_v, layout)
        columns = dense[:, start_columns(layout, block.codes)]
        np.testing.assert_allclose(start_outputs(ver, 3, block.codes), columns, atol=1e-12)
        # V and A start at 0, so a start's index below W is its Y code.  Q_a is
        # an isometry, so the block's code columns have the Gram matrix of the
        # dense outputs' A=a parts.
        aux = random_aux(2, seed=6)
        picked = block.code_columns(aux.amps[:, None], block.columns([3, 0, 3]))
        starts = [np.kron(aux.amps, np.eye(layout.total_dim // 2)[code]) for code in [3, 0, 3]]
        outs = (dense @ np.stack(starts, axis=1)).reshape(DIMS[0] * DIMS[1], 2, -1, 3)
        for a in (0, 1):
            m = outs[:, a].reshape(-1, 3)
            np.testing.assert_allclose(picked[a].conj().T @ picked[a], m.conj().T @ m, atol=1e-12)
        with pytest.raises(ValueError, match="not all among"):
            block.columns([1])


class TestRecordedView:
    def test_dense_assembly_matches_blocks(self):
        inst = Instance.from_graphs(EDGE2, EDGE2)
        ver = adversarial_verifier(DIMS, 2, seed=3)
        aux = random_aux(2, seed=4)
        view = real_view(inst, ver, aux)
        dense = dense_view(view)
        assert view.base_layout.names == ("W", "V", "Y")
        assert view.record_registers == (("Zp", 2), ("A", 2))
        assert dense.layout.names == ("W", "V", "A", "Y", "Zp")
        assert abs(view_trace(view) - 1) < 1e-12
        # Rebuild by hand from the block factors: block (code, a) sits at A=a, Zp=code.
        wv, dim_y = DIMS[0] * DIMS[1], 2
        manual = np.zeros((wv, 2, dim_y, 2) * 2, dtype=complex)
        for (code, a), factor in view.blocks.items():
            block = (factor @ factor.conj().T).reshape(wv, dim_y, wv, dim_y)
            manual[:, a, :, code, :, a, :, code] = block
        np.testing.assert_allclose(dense.matrix, manual.reshape(dense.matrix.shape))

    def test_two_verifiers_distance_matches_dense(self):
        # Full-length views: the start-basis views of two verifiers live on two bases.
        inst = path_instance()
        aux = random_aux(2, seed=8)
        v1 = real_view(inst, adversarial_verifier(DIMS, 3, seed=1), aux)
        v2 = real_view(inst, adversarial_verifier(DIMS, 3, seed=2), aux)
        blocked = per_key_trace_distance(v1, v2)
        dense = trace_distance(dense_view(v1), dense_view(v2))
        assert abs(blocked - dense) < 1e-10
        assert blocked > 1e-3  # different verifiers give different views

    def test_views_of_two_verifiers_are_refused(self):
        inst = path_instance()
        aux = random_aux(2, seed=8)
        v1 = real_view_recorded(inst, adversarial_verifier(DIMS, 3, seed=1), aux)
        v2 = real_view_recorded(inst, adversarial_verifier(DIMS, 3, seed=2), aux)
        with pytest.raises(ValueError, match="or start blocks"):
            v1.trace_distance(v2)

    def test_views_of_verifiers_with_one_gram_are_refused(self):
        # A flip of V after the honest verifier keeps every M_a^dagger M_a, so
        # both bases have the same triangles, but the real views differ.
        inst = path_instance()
        honest = honest_verifier(DIMS, 3)
        flip = LinearOp(view_layout(DIMS, 3), ("V", "A"), np.kron(np.eye(2)[::-1], HADAMARD))
        flipped = VerifierModel(DIMS, flip)
        aux = random_aux(2, seed=9)
        v1, v2 = (real_view_recorded(inst, ver, aux) for ver in (honest, flipped))
        np.testing.assert_allclose(v1.basis.triangles, v2.basis.triangles, atol=1e-15)
        with pytest.raises(ValueError, match="or start blocks"):
            v1.trace_distance(v2)
        oracles = [real_view(inst, ver, aux) for ver in (honest, flipped)]
        assert per_key_trace_distance(*oracles) > 0.5

    def test_views_of_one_verifier_share_a_basis(self):
        # Each call forms its own start basis; both factor one start block.
        inst = path_instance()
        ver = adversarial_verifier(DIMS, 3, seed=10)
        auxes = [random_aux(2, seed) for seed in (11, 12)]
        v1, v2 = (real_view_recorded(inst, ver, aux) for aux in auxes)
        assert v1.basis is not v2.basis and v1.basis.same_as(v2.basis)
        oracle = per_key_trace_distance(*(real_view(inst, ver, aux) for aux in auxes))
        assert abs(v1.trace_distance(v2) - oracle) < 1e-14

    def test_keep_z_records_responses(self):
        inst = path_instance()
        ver = honest_verifier(DIMS, 3)
        view = real_view_recorded(inst, ver, basis_aux(), keep_z=True)
        assert view.record_registers == (("Z", 6), ("Zp", 8), ("A", 2))
        perms = permutations(3)
        assert abs(view_trace(view) - 1) < 1e-10
        for z, code, a in view.blocks:
            # The recorded response answers the recorded challenge.
            assert act(perms[z], inst.graph_for_challenge(a)) == decode(code, 3)

    def test_record_weights(self):
        inst = Instance.from_graphs(EDGE2, EDGE2)
        ver = adversarial_verifier(DIMS, 2, seed=6)
        aux = basis_aux()
        view = real_view_recorded(inst, ver, aux)
        weights = record_weights(view)
        code = encode(EDGE2)
        assert set(weights) == {(code, 0), (code, 1)}
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
        # Each weight is the probability that the verifier measures that challenge.
        outputs = start_outputs(ver, 2, [code]).reshape(-1, DIMS[0], 1)
        out = np.tensordot(aux.amps, outputs, axes=(0, 1))[:, 0].reshape(DIMS[0] * DIMS[1], 2, -1)
        for a in (0, 1):
            assert weights[(code, a)] == pytest.approx(np.linalg.norm(out[:, a]) ** 2, abs=1e-12)


class TestStartTriangles:
    @pytest.mark.parametrize("kind", ["adversarial", "honest"])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (1, 4)])
    def test_triangles_factor_the_challenge_halves(self, kind, dims):
        ver = honest_verifier(dims, 3) if kind == "honest" else adversarial_verifier(dims, 3, 5)
        block = start_block(ver, 3, [5, 0, 3])
        s = dims[0] * 3
        halves = start_outputs(ver, 3, block.codes).reshape(dims[0] * dims[1], 2, -1, s)
        halves = halves.swapaxes(0, 1)
        assert block.triangles.shape == (2, s, s)
        for a in (0, 1):
            m = halves[a].reshape(-1, s)
            r = block.triangles[a]
            np.testing.assert_array_equal(r, np.triu(r))
            np.testing.assert_allclose(r.conj().T @ r, m.conj().T @ m, atol=1e-14)


class TestStartBlock:
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (1, 4)])
    def test_holds_no_array_of_more_than_s_rows(self, dims):
        # The side x s outputs are freed once their triangles are taken.
        block = start_block(adversarial_verifier(dims, 3, 5), 3, [5, 0, 3])
        arrays = [field for field in block if isinstance(field, np.ndarray)]
        assert arrays and all(max(array.shape) <= dims[0] * 3 for array in arrays)

    @pytest.mark.parametrize("kind", ["adversarial", "honest"])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (1, 4), (4, 1)])
    def test_code_grams_are_the_grams_of_the_challenge_halves(self, dims, kind):
        # [a, m] is the W block at code m of R_a† R_a = M_a† M_a, the dense A=a half's Gram.
        ver = honest_verifier(dims, 3) if kind == "honest" else adversarial_verifier(dims, 3, 5)
        block = start_block(ver, 3, [5, 0, 3])
        outputs = start_outputs(ver, 3, block.codes)
        s = outputs.shape[1]
        halves = outputs.reshape(dims[0] * dims[1], 2, -1, s).swapaxes(0, 1).reshape(2, -1, s)
        gram = (halves.conj().swapaxes(1, 2) @ halves).reshape(2, dims[0], 3, dims[0], 3)
        expected = np.einsum("awmvm->amwv", gram)
        assert block.code_grams().shape == (2, 3, dims[0], dims[0])
        assert np.max(np.abs(block.code_grams() - expected)) <= 1e-14

    def test_same_as_blocks_of_one_verifier_object(self):
        ver = adversarial_verifier(DIMS, 3, seed=5)
        first, second = start_block(ver, 3, [0, 3, 5]), start_block(ver, 3, [5, 3, 0])
        assert first is not second and first.same_as(second)

    def test_not_same_as_blocks_of_two_verifier_objects_of_one_seed(self):
        # Their triangles are equal, but equal triangles may hide two Q_a.
        one, two = (start_block(adversarial_verifier(DIMS, 3, seed=5), 3, [0, 3, 5]) for _ in "12")
        np.testing.assert_array_equal(one.triangles, two.triangles)
        assert not one.same_as(two)

    def test_not_same_as_blocks_of_other_codes(self):
        ver = adversarial_verifier(DIMS, 3, seed=5)
        assert not start_block(ver, 3, [0, 3, 5]).same_as(start_block(ver, 3, [0, 3, 6]))


class TestAccept:
    def test_challenge_zero(self):
        inst = path_instance()
        for tau in permutations(3):
            sent = act(tau, inst.g0)
            assert accept(sent, 0, tau, inst)

    def test_challenge_one_brute_force(self):
        inst = path_instance()
        tau = Permutation(3, (2, 1, 0))
        sent = act(tau, inst.g0)
        valid = [p for p in permutations(3) if act(p, inst.g1) == sent]
        assert valid, "brute force must find a valid response"
        for p in valid:
            assert accept(sent, 1, p, inst)

    def test_wrong_response_rejected(self):
        inst = path_instance()
        sent = act(Permutation(3, (1, 2, 0)), inst.g0)
        if sent != inst.g0:
            assert not accept(sent, 0, identity(3), inst)

    def test_honest_response_always_accepted(self):
        inst = path_instance()
        for tau in permutations(3):
            sent = act(tau, inst.g0)
            for a in (0, 1):
                assert accept(sent, a, honest_response(inst, tau, a), inst)
