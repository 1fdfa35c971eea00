"""Register algebra: indexing, operators, channels, metrics."""

from collections import Counter

import numpy as np
import pytest

from zkamp.registers import (
    ATOL_OP,
    DiagonalOp,
    HouseholderOp,
    LayoutMismatchError,
    LinearOp,
    OpChain,
    PermutationOp,
    RegisterLayout,
    StateVector,
    _compact_wy_factors,
    _gaussian_columns,
    _trusted_variant,
    haar_random_op,
    measure,
    measurement_probabilities,
    random_state,
    to_matrix,
)

from oracles import (
    DensityOperator,
    apply,
    basis_state,
    dephase,
    embed_matrix,
    haar_random_unitary,
    kron_oracle,
    partial_trace,
    project,
    pure_density,
    trace_distance,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def random_density(layout, seed):
    """PSD unit-trace matrix from a Ginibre square, the standard oracle."""
    rng = np.random.default_rng(seed)
    d = layout.total_dim
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = a @ a.conj().T
    return DensityOperator(layout, m / np.trace(m))


class TestRegisterLayout:
    def test_total_dim_is_product(self):
        layout = RegisterLayout([("W", 2), ("V", 2), ("A", 2), ("Y", 8), ("B", 2), ("Z", 6)])
        assert layout.total_dim == int(np.prod(layout.dims)) == 768

    @pytest.mark.parametrize(
        "regs",
        [
            [("A", 2), ("B", 3)],
            [("X", 3), ("Y", 1), ("Z", 4)],
            [("W", 2), ("V", 2), ("A", 2), ("Y", 8), ("B", 2), ("Z", 6)],
            [("P", 7), ("Q", 11), ("R", 13), ("S", 10)],
        ],
    )
    def test_flatten_unflatten_roundtrip(self, regs):
        layout = RegisterLayout(regs)
        for flat in range(layout.total_dim):
            assert layout.flatten(layout.unflatten(flat)) == flat

    def test_first_register_most_significant(self):
        layout = RegisterLayout([("A", 2), ("B", 3)])
        assert layout.flatten((1, 0)) == 3
        assert layout.unflatten(5) == (1, 2)

    def test_invalid_layouts_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout([("A", 2), ("A", 3)])
        with pytest.raises(ValueError):
            RegisterLayout([("A", 0)])

    def test_keep_preserves_order(self):
        layout = RegisterLayout([("W", 2), ("A", 3), ("B", 5)])
        assert layout.keep(["B", "W"]).names == ("W", "B")


class TestBasisState:
    def test_single_qubit(self):
        layout = RegisterLayout([("A", 2)])
        s = basis_state(layout, {"A": 0})
        np.testing.assert_allclose(s.amps, [1, 0])

    def test_two_registers(self):
        layout = RegisterLayout([("A", 2), ("B", 2)])
        s = basis_state(layout, {"A": 1, "B": 0})
        expected = np.zeros(4)
        expected[layout.flatten((1, 0))] = 1
        np.testing.assert_allclose(s.amps, expected)

    def test_protocol_sized_layout(self):
        layout = RegisterLayout([("W", 2), ("V", 2), ("A", 2), ("Y", 8), ("B", 2), ("Z", 6)])
        s = basis_state(layout, {name: 0 for name in layout.names})
        assert s.amps.shape == (768,)
        assert s.amps[0] == 1 and np.count_nonzero(s.amps) == 1

    def test_errors(self):
        layout = RegisterLayout([("A", 2)])
        with pytest.raises(KeyError):
            basis_state(layout, {"Q": 0})
        with pytest.raises(KeyError):
            basis_state(layout, {})
        with pytest.raises(ValueError):
            basis_state(layout, {"A": 2})


class TestApply:
    def test_identity(self):
        layout = RegisterLayout([("A", 2), ("B", 3)])
        op = LinearOp(layout, ("B",), np.eye(3))
        s = basis_state(layout, {"A": 1, "B": 2})
        np.testing.assert_allclose(apply(op, s).amps, s.amps)

    def test_hadamard(self):
        layout = RegisterLayout([("A", 2)])
        op = LinearOp(layout, ("A",), H)
        out = apply(op, basis_state(layout, {"A": 0}))
        np.testing.assert_allclose(out.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_haar_roundtrip(self):
        layout = RegisterLayout([("Q", 8)])
        u = haar_random_unitary(8, seed=5)
        op = LinearOp(layout, ("Q",), u)
        s = StateVector(layout, random_state(8, seed=6))
        back = apply(op, apply(op.adjoint(), s))
        assert np.linalg.norm(back.amps - s.amps) < 1e-12

    def test_unitary_preserves_norm(self):
        layout = RegisterLayout([("A", 2), ("B", 3), ("C", 2)])
        for seed in range(5):
            op = LinearOp(layout, ("A", "C"), haar_random_unitary(4, seed))
            s = StateVector(layout, random_state(12, seed + 50))
            assert abs(np.linalg.norm(apply(op, s).amps) - 1) < 1e-12

    def test_layout_mismatch(self):
        layout = RegisterLayout([("A", 2)])
        other = RegisterLayout([("B", 2)])
        op = LinearOp(other, ("B",), H)
        with pytest.raises(LayoutMismatchError):
            apply(op, basis_state(layout, {"A": 0}))

    def test_target_order_matches_layout_order(self):
        # Targets given out of order are canonicalized, so a CNOT built on
        # (control, target) = (A, B) acts identically however it is named.
        layout = RegisterLayout([("A", 2), ("B", 2)])
        cnot = np.eye(4)[[0, 1, 3, 2]]
        op = LinearOp(layout, ("A", "B"), cnot)
        s = apply(op, basis_state(layout, {"A": 1, "B": 0}))
        np.testing.assert_allclose(s.amps, basis_state(layout, {"A": 1, "B": 1}).amps)


class TestProject:
    def test_half_probability(self):
        layout = RegisterLayout([("A", 2)])
        p0 = DiagonalOp(layout, ("A",), [1.0, 0.0], kind="projector")
        plus = StateVector(layout, np.array([1, 1]) / np.sqrt(2))
        prob, collapsed = project(p0, plus)
        assert abs(prob - 0.5) < 1e-12
        np.testing.assert_allclose(collapsed.amps, [1, 0])

    def test_identity_projector(self):
        layout = RegisterLayout([("A", 2)])
        full = DiagonalOp(layout, ("A",), np.ones(2), kind="projector")
        s = StateVector(layout, random_state(2, 3))
        prob, collapsed = project(full, s)
        assert abs(prob - 1) < 1e-12
        np.testing.assert_allclose(collapsed.amps, s.amps)

    def test_empty_branch_marker(self):
        layout = RegisterLayout([("A", 2)])
        p1 = DiagonalOp(layout, ("A",), [0.0, 1.0], kind="projector")
        prob, collapsed = project(p1, basis_state(layout, {"A": 0}))
        assert prob == 0.0 and collapsed is None

    def test_branch_probabilities_sum_to_one(self):
        layout = RegisterLayout([("A", 2), ("B", 3)])
        proj = DiagonalOp(layout, ("A",), [1.0, 0.0], kind="projector")
        comp = DiagonalOp(layout, ("A",), [0.0, 1.0], kind="projector")
        for seed in range(5):
            s = StateVector(layout, random_state(6, seed))
            p, _ = project(proj, s)
            q, _ = project(comp, s)
            assert abs(p + q - 1) < 1e-12

    def test_requires_projector(self):
        layout = RegisterLayout([("A", 2)])
        op = LinearOp(layout, ("A",), H)
        with pytest.raises(ValueError):
            project(op, basis_state(layout, {"A": 0}))


class TestDephase:
    def test_diagonal_fixed_point(self):
        layout = RegisterLayout([("A", 3)])
        rho = DensityOperator(layout, np.diag([0.5, 0.3, 0.2]).astype(complex))
        np.testing.assert_allclose(dephase(rho, "A").matrix, rho.matrix, atol=1e-14)

    def test_plus_state_to_maximally_mixed(self):
        layout = RegisterLayout([("A", 2)])
        plus = StateVector(layout, np.array([1, 1]) / np.sqrt(2))
        out = dephase(pure_density(plus), "A")
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-14)

    def test_idempotent_and_trace_preserving(self):
        layout = RegisterLayout([("A", 2), ("B", 3)])
        for seed in range(4):
            rho = random_density(layout, seed)
            once = dephase(rho, "B")
            twice = dephase(once, "B")
            np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-12)
            assert abs(np.trace(once.matrix) - 1) < 1e-12

    def test_unknown_register(self):
        layout = RegisterLayout([("A", 2)])
        with pytest.raises(KeyError):
            dephase(random_density(layout, 0), "Q")


class TestMeasure:
    def test_basis_state_is_certain(self):
        layout = RegisterLayout([("A", 2), ("B", 3)])
        s = basis_state(layout, {"A": 1, "B": 2})
        outcome, prob, collapsed = measure(s, "B", np.random.default_rng(0))
        assert outcome == 2 and abs(prob - 1) < 1e-12
        np.testing.assert_allclose(collapsed.amps, s.amps)

    def test_uniform_probability_vector(self):
        layout = RegisterLayout([("Z", 6)])
        s = StateVector(layout, np.ones(6) / np.sqrt(6))
        np.testing.assert_allclose(measurement_probabilities(s, "Z"), np.ones(6) / 6, atol=1e-12)

    def test_empirical_frequencies(self):
        layout = RegisterLayout([("A", 2)])
        s = StateVector(layout, np.array([0.5, np.sqrt(0.75)]))
        rng = np.random.default_rng(2024)
        hits = sum(measure(s, "A", rng)[0] for _ in range(10_000))
        assert abs(hits / 10_000 - 0.75) < 0.02

    def test_deterministic_per_seed(self):
        layout = RegisterLayout([("A", 2)])
        s = StateVector(layout, np.array([1, 1j]) / np.sqrt(2))
        a = [measure(s, "A", np.random.default_rng(7))[0] for _ in range(3)]
        b = [measure(s, "A", np.random.default_rng(7))[0] for _ in range(3)]
        assert a == b


class TestPartialTrace:
    def test_keep_everything(self):
        layout = RegisterLayout([("A", 2), ("B", 3)])
        rho = random_density(layout, 1)
        np.testing.assert_allclose(partial_trace(rho, ["A", "B"]).matrix, rho.matrix)

    def test_bell_pair_marginal(self):
        layout = RegisterLayout([("A", 2), ("B", 2)])
        bell = StateVector(layout, np.array([1, 0, 0, 1]) / np.sqrt(2))
        out = partial_trace(pure_density(bell), ["A"])
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-14)

    def test_product_state_factor(self):
        la = RegisterLayout([("A", 2)])
        lb = RegisterLayout([("B", 3)])
        rho_a = random_density(la, 11)
        rho_b = random_density(lb, 12)
        joint = DensityOperator(
            RegisterLayout([("A", 2), ("B", 3)]), np.kron(rho_a.matrix, rho_b.matrix)
        )
        np.testing.assert_allclose(partial_trace(joint, ["A"]).matrix, rho_a.matrix, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, ["B"]).matrix, rho_b.matrix, atol=1e-12)

    def test_measure_and_discard_equals_discard(self):
        layout = RegisterLayout([("A", 2), ("B", 2), ("C", 3)])
        for seed in range(3):
            rho = random_density(layout, seed + 30)
            lhs = partial_trace(dephase(rho, "B"), ["A", "C"])
            rhs = partial_trace(rho, ["A", "C"])
            np.testing.assert_allclose(lhs.matrix, rhs.matrix, atol=1e-12)

    def test_empty_keep_rejected(self):
        layout = RegisterLayout([("A", 2)])
        with pytest.raises(ValueError):
            partial_trace(random_density(layout, 0), [])


class TestTraceDistance:
    def test_identical(self):
        layout = RegisterLayout([("A", 3)])
        rho = random_density(layout, 4)
        assert trace_distance(rho, rho) == 0

    def test_orthogonal_pure_states(self):
        layout = RegisterLayout([("A", 2)])
        r0 = pure_density(basis_state(layout, {"A": 0}))
        r1 = pure_density(basis_state(layout, {"A": 1}))
        assert abs(trace_distance(r0, r1) - 1) < 1e-10

    def test_half_mixture(self):
        # Difference (rho - (rho+sigma)/2) = (rho - sigma)/2 has eigenvalues
        # +-1/2 for orthogonal pure rho, sigma, so the distance is 1/2.
        layout = RegisterLayout([("A", 2)])
        rho = pure_density(basis_state(layout, {"A": 0}))
        sigma = pure_density(basis_state(layout, {"A": 1}))
        mix = DensityOperator(layout, (rho.matrix + sigma.matrix) / 2)
        assert abs(trace_distance(mix, rho) - 0.5) < 1e-10

    def test_layout_mismatch(self):
        r1 = random_density(RegisterLayout([("A", 2)]), 0)
        r2 = random_density(RegisterLayout([("B", 2)]), 0)
        with pytest.raises(LayoutMismatchError):
            trace_distance(r1, r2)


class TestHaarRandomUnitary:
    def test_dim_one_is_a_phase(self):
        u = haar_random_unitary(1, seed=0)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1) < 1e-12

    def test_unitarity(self):
        u = haar_random_unitary(16, seed=1)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-10

    def test_seeds_give_distinct_operators(self):
        u1 = haar_random_unitary(8, seed=1)
        u2 = haar_random_unitary(8, seed=2)
        assert np.linalg.norm(u1 - u2, ord=2) > 1e-3

    def test_deterministic(self):
        np.testing.assert_array_equal(haar_random_unitary(4, 9), haar_random_unitary(4, 9))

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            haar_random_unitary(0, seed=0)


class TestStructuredOps:
    def test_diagonal_matches_dense(self):
        layout = RegisterLayout([("A", 2), ("B", 3)])
        phases = np.exp(1j * np.linspace(0, 2, 3))
        op = DiagonalOp(layout, ("B",), phases)
        dense = LinearOp(layout, ("B",), np.diag(phases))
        s = StateVector(layout, random_state(6, 17))
        np.testing.assert_allclose(apply(op, s).amps, apply(dense, s).amps, atol=1e-14)
        np.testing.assert_allclose(to_matrix(op, layout), to_matrix(dense, layout), atol=1e-14)

    def test_permutation_matches_dense(self):
        layout = RegisterLayout([("A", 2), ("B", 3)])
        image = np.array([2, 0, 1])
        op = PermutationOp(layout, ("B",), image)
        dense_mat = np.zeros((3, 3))
        dense_mat[image, np.arange(3)] = 1
        dense = LinearOp(layout, ("B",), dense_mat)
        s = StateVector(layout, random_state(6, 18))
        np.testing.assert_allclose(apply(op, s).amps, apply(dense, s).amps, atol=1e-14)
        roundtrip = apply(op.adjoint(), apply(op, s))
        np.testing.assert_allclose(roundtrip.amps, s.amps, atol=1e-14)

    def test_chain_matches_matrix_product(self):
        layout = RegisterLayout([("A", 2), ("B", 2)])
        u1 = LinearOp(layout, ("A",), haar_random_unitary(2, 3))
        u2 = LinearOp(layout, ("A", "B"), haar_random_unitary(4, 4))
        chain = OpChain((u1, u2))
        s = StateVector(layout, random_state(4, 19))
        product = kron_oracle(u2, layout) @ kron_oracle(u1, layout)
        np.testing.assert_allclose(chain.apply_to(layout, s.amps), product @ s.amps, atol=1e-12)
        np.testing.assert_allclose(to_matrix(chain, layout), product)
        back = chain.adjoint().apply_to(layout, chain.apply_to(layout, s.amps))
        np.testing.assert_allclose(back, s.amps, atol=1e-12)

    def test_embed_matrix_against_kron(self):
        layout = RegisterLayout([("A", 2), ("B", 3), ("C", 2)])
        u = haar_random_unitary(3, 5)
        expected = np.kron(np.kron(np.eye(2), u), np.eye(2))
        np.testing.assert_allclose(embed_matrix(layout, ("B",), u), expected, atol=1e-14)

    def test_embed_matrix_non_adjacent_targets(self):
        layout = RegisterLayout([("A", 2), ("B", 3), ("C", 2)])
        u = haar_random_unitary(4, 6)
        op = LinearOp(layout, ("A", "C"), u)
        dense = embed_matrix(layout, ("A", "C"), u)
        s = StateVector(layout, random_state(12, 20))
        np.testing.assert_allclose(dense @ s.amps, apply(op, s).amps, atol=1e-12)
        np.testing.assert_allclose(to_matrix(op, layout), dense, atol=1e-12)


class TestValidation:
    def test_state_vector_must_be_normalized(self):
        layout = RegisterLayout([("A", 2)])
        with pytest.raises(ValueError):
            StateVector(layout, np.array([1.0, 1.0]))

    def test_density_operator_checks(self):
        layout = RegisterLayout([("A", 2)])
        with pytest.raises(ValueError):
            DensityOperator(layout, np.array([[1, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError):
            DensityOperator(layout, np.eye(2, dtype=complex))

    def test_linear_op_kind_checks(self):
        layout = RegisterLayout([("A", 2)])
        with pytest.raises(ValueError, match="not unitary"):
            LinearOp(layout, ("A",), np.array([[1, 1], [0, 1]]))
        for mask in ([1.0, 0.5], [1.0, -1.0], [1.0 + 1e-15, 0.0], [1j, 0.0]):
            with pytest.raises(ValueError, match="exactly 0 or 1"):
                DiagonalOp(layout, ("A",), mask, kind="projector")
        with pytest.raises(ValueError, match="kind must be"):
            DiagonalOp(layout, ("A",), [1.0, 0.0], kind="hermitian")

    def test_immutability(self):
        layout = RegisterLayout([("A", 2)])
        s = basis_state(layout, {"A": 0})
        with pytest.raises(ValueError):
            s.amps[0] = 0.0


def _count_validations(monkeypatch) -> Counter:
    """Count calls of each operator class's construction-time ``_validate``."""
    calls: Counter = Counter()
    for cls in (LinearOp, DiagonalOp, PermutationOp, HouseholderOp, OpChain):

        def counted(self, *args, _check=cls._validate, _name=cls.__name__):
            calls[_name] += 1
            return _check(self, *args)

        monkeypatch.setattr(cls, "_validate", counted)
    return calls


def _random_ops(seed):
    """A random layout with one operator of each kind on random target subsets."""
    rng = np.random.default_rng(seed)
    names = ["A", "B", "C", "D"][: rng.integers(2, 5)]
    layout = RegisterLayout([(name, int(rng.integers(1, 5))) for name in names])

    def pick():
        chosen = rng.choice(names, size=rng.integers(1, len(names) + 1), replace=False)
        targets = tuple(str(name) for name in chosen)
        return targets, int(np.prod([layout.dim_of(name) for name in targets]))

    targets, side = pick()
    unitary = LinearOp(layout, targets, haar_random_unitary(side, seed))
    targets, side = pick()
    projector = DiagonalOp(layout, targets, rng.integers(0, 2, side), kind="projector")
    targets, side = pick()
    diagonal = DiagonalOp(layout, targets, np.exp(1j * rng.uniform(0, 2 * np.pi, side)))
    targets, side = pick()
    permutation = PermutationOp(layout, targets, rng.permutation(side))
    chain = OpChain((unitary, diagonal, permutation))
    targets, _ = pick()
    householder = haar_random_op(layout, targets, seed)
    return layout, {
        "unitary": unitary,
        "projector": projector,
        "diagonal": diagonal,
        "permutation": permutation,
        "chain": chain,
        "householder": householder,
    }


class TestValidateOnce:
    """Operators are validated at construction; adjoints of validated ones are trusted."""

    def test_construction_validates_once(self, monkeypatch):
        calls = _count_validations(monkeypatch)
        layout = RegisterLayout([("A", 2), ("B", 3)])
        u = LinearOp(layout, ("A",), H)
        assert calls == {"LinearOp": 1}
        calls.clear()
        d = DiagonalOp(layout, ("B",), np.exp(1j * np.arange(3)))
        assert calls == {"DiagonalOp": 1}
        calls.clear()
        p = PermutationOp(layout, ("B", "A"), np.arange(6)[::-1])
        assert calls == {"PermutationOp": 1}
        calls.clear()
        OpChain((u, d, p))
        assert calls == {"OpChain": 1}
        calls.clear()
        haar_random_op(layout, ("B", "A"), seed=0)
        assert calls == {"HouseholderOp": 1}

    @pytest.mark.parametrize("seed", range(6))
    def test_adjoint_skips_validation(self, monkeypatch, seed):
        _, ops = _random_ops(seed)
        calls = _count_validations(monkeypatch)
        for op in ops.values():
            op.adjoint().adjoint()
        assert calls == {}

    @pytest.mark.parametrize("seed", range(6))
    def test_adjoint_is_conjugate_transpose_of_dense_oracle(self, seed):
        layout, ops = _random_ops(seed)
        for op in ops.values():
            adj = op.adjoint()
            assert set(adj.targets) == set(op.targets)
            np.testing.assert_allclose(
                kron_oracle(adj, layout), kron_oracle(op, layout).conj().T, atol=1e-12
            )
            state = random_state(layout.total_dim, seed + 100)
            np.testing.assert_allclose(
                adj.apply_to(layout, state), kron_oracle(op, layout).conj().T @ state, atol=1e-12
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_projector_adjoint_stays_projector(self, seed):
        layout, ops = _random_ops(seed)
        adj = ops["projector"].adjoint()
        assert adj.kind == "projector"
        assert set(adj.phases.tolist()) <= {0, 1}
        mat = to_matrix(adj, layout)
        assert np.max(np.abs(mat @ mat - mat)) <= 1e-10
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-10

    def test_adjoint_data_is_read_only(self):
        _, ops = _random_ops(0)
        arrays = [
            ops["unitary"].adjoint().matrix,
            ops["projector"].adjoint().phases,
            ops["diagonal"].adjoint().phases,
            ops["permutation"].adjoint().image,
            ops["householder"].adjoint().reflectors,
            ops["householder"].adjoint().tfactors,
            ops["householder"].adjoint().phases,
        ]
        unitary, diagonal, permutation = reversed(ops["chain"].adjoint().factors)
        arrays += [unitary.matrix, diagonal.phases, permutation.image]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]


def _panel_taus(op):
    """The ``tau`` of each reflector: the diagonal of its panel's T."""
    side, width = op.tfactors.shape
    return np.array([op.tfactors[j, j % width] for j in range(side)])


class TestHouseholderOp:
    """The Haar draw kept as compact-WY panels, checked against the dense draw."""

    @pytest.mark.parametrize("side", [1, 4, 32, 64, 96, 512, 1024])
    def test_matches_dense_haar_draw(self, side):
        layout = RegisterLayout([("A", side)])
        op = haar_random_op(layout, ("A",), seed=side)
        dense = haar_random_unitary(side, seed=side)
        np.testing.assert_allclose(to_matrix(op, layout), dense, atol=1e-12)
        np.testing.assert_allclose(to_matrix(op.adjoint(), layout), dense.conj().T, atol=1e-12)

    @pytest.mark.parametrize("side", [1, 4, 32, 64, 96])
    def test_raw_qr_of_bartlett_product_reproduces_the_draw(self, side):
        # G = U R with R's diagonal |beta| and a Gaussian strict upper
        # triangle is the Ginibre matrix the reflectors stand for: LAPACK's
        # raw QR of it must give back the drawn reflectors, tau and beta.
        layout = RegisterLayout([("A", side)])
        op = haar_random_op(layout, ("A",), seed=side)
        beta = op.phases.real * np.linalg.norm(_gaussian_columns(side, side), axis=0)
        rng = np.random.default_rng(side + 1)
        upper = np.triu(rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side)), 1)
        raw, tau = np.linalg.qr(to_matrix(op, layout) @ (np.diag(np.abs(beta)) + upper), mode="raw")
        np.testing.assert_allclose(np.tril(raw.T, -1), np.tril(op.reflectors, -1), atol=1e-12)
        np.testing.assert_allclose(tau, _panel_taus(op), atol=1e-12)
        np.testing.assert_allclose(np.diagonal(raw), beta, atol=1e-12)

    def test_draw_fills_columns_from_one_stream(self):
        side, seed = 5, 3
        values = np.random.default_rng(seed).standard_normal(side * (side + 1)).view(complex)
        cols = _gaussian_columns(side, seed)
        start = 0
        for j in range(side):
            np.testing.assert_array_equal(cols[j:, j], values[start : start + side - j] / np.sqrt(2))
            assert not cols[:j, j].any()
            start += side - j

    def test_makes_no_qr_call(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the Haar draw must not run a QR")

        monkeypatch.setattr(np.linalg, "qr", never)
        layout = RegisterLayout([("A", 4), ("B", 32)])
        op = haar_random_op(layout, ("A", "B"), seed=0)
        assert op.reflectors.shape == (128, 128)

    @pytest.mark.parametrize("side", [1, 2, 3])
    def test_haar_moments(self, side):
        # Over Haar measure E[U_ij] = 0, E|U_ij|^2 = 1/d and E|tr U|^2 = 1.
        # Without the phases D, U_00 has a negative real part on every draw.
        layout = RegisterLayout([("A", side)])
        samples = np.array(
            [to_matrix(haar_random_op(layout, ("A",), seed), layout) for seed in range(2000)]
        )
        traces = np.abs(np.trace(samples, axis1=1, axis2=2)) ** 2
        for values, expected in (
            (samples.real, 0.0),
            (samples.imag, 0.0),
            (np.abs(samples) ** 2, 1.0 / side),
            (traces, 1.0),
        ):
            error = np.abs(values.mean(axis=0) - expected)
            sigma = values.std(axis=0) / np.sqrt(len(values))
            assert np.all(error <= 5 * sigma + 1e-12), (error, sigma)

    def test_targets_index_in_layout_order(self):
        layout = RegisterLayout([("A", 3), ("B", 2), ("C", 5)])
        op = haar_random_op(layout, ("C", "A"), seed=4)
        dense = LinearOp(layout, ("A", "C"), haar_random_unitary(15, seed=4))
        np.testing.assert_allclose(to_matrix(op, layout), to_matrix(dense, layout), atol=1e-12)

    @pytest.mark.parametrize("side", [4, 96])
    def test_rejects_perturbed_tau(self, side):
        layout = RegisterLayout([("A", side)])
        op = haar_random_op(layout, ("A",), seed=side)
        tau = _panel_taus(op)
        tau[side // 2] += 1e-8
        tfactors = _compact_wy_factors(op.reflectors, tau)
        with pytest.raises(ValueError, match="not unitary"):
            HouseholderOp(layout, ("A",), op.reflectors, tfactors, op.phases)

    @pytest.mark.parametrize("side", [4, 96])
    def test_rejects_perturbed_t(self, side):
        layout = RegisterLayout([("A", side)])
        op = haar_random_op(layout, ("A",), seed=side)
        width = op.tfactors.shape[1]
        tfactors = op.tfactors.copy()
        tfactors[(side // 2) // width * width, 1] += 1e-8
        with pytest.raises(ValueError, match="not unitary"):
            HouseholderOp(layout, ("A",), op.reflectors, tfactors, op.phases)

    def test_rejects_non_unit_phase(self):
        layout = RegisterLayout([("A", 8)])
        op = haar_random_op(layout, ("A",), seed=8)
        phases = op.phases.copy()
        phases[3] *= 1 + 1e-8
        with pytest.raises(ValueError, match="not unitary"):
            HouseholderOp(layout, ("A",), op.reflectors, op.tfactors, phases)

    @pytest.mark.parametrize("side", [4, 96, 200])
    def test_bound_is_at_least_dense_deviation(self, side):
        layout = RegisterLayout([("A", side)])
        op = haar_random_op(layout, ("A",), seed=side)
        width = op.tfactors.shape[1]
        tau = _panel_taus(op)
        tau[side // 2] += 1e-8
        tfactors = op.tfactors.copy()
        tfactors[(side // 2) // width * width, 1] += 1e-8
        variants = [
            op,
            _trusted_variant(op, tfactors=_compact_wy_factors(op.reflectors, tau)),
            _trusted_variant(op, tfactors=tfactors),
        ]
        for variant in variants:
            u = to_matrix(variant, layout)
            dense = np.linalg.norm(u.conj().T @ u - np.eye(side), ord=2)
            assert variant._deviation_bound() >= dense
        assert op._deviation_bound() <= ATOL_OP
        assert min(v._deviation_bound() for v in variants[1:]) > ATOL_OP

    def test_rejects_wrong_shapes(self):
        layout = RegisterLayout([("A", 4), ("B", 2)])
        op = haar_random_op(layout, ("A",), seed=0)
        with pytest.raises(ValueError, match="shapes"):
            HouseholderOp(layout, ("B",), op.reflectors, op.tfactors, op.phases)
        with pytest.raises(ValueError, match="shapes"):
            HouseholderOp(layout, ("A",), op.reflectors, op.tfactors[:, :0], op.phases)


class TestToMatrix:
    """Every dense matrix is an operator applied to the identity; the kron oracle checks it."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_kron_oracle(self, seed):
        layout, ops = _random_ops(seed)
        for kind, op in ops.items():
            np.testing.assert_allclose(
                to_matrix(op, layout), kron_oracle(op, layout), atol=1e-12, err_msg=kind
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_batched_apply_matches_single_columns(self, seed):
        layout, ops = _random_ops(seed)
        rng = np.random.default_rng(seed + 200)
        k = int(rng.integers(2, 6))
        block = rng.standard_normal((layout.total_dim, k)) + 1j * rng.standard_normal(
            (layout.total_dim, k)
        )
        for kind, op in ops.items():
            batched = op.apply_to(layout, block)
            assert batched.shape == block.shape
            columns = np.stack([op.apply_to(layout, block[:, j]) for j in range(k)], axis=1)
            np.testing.assert_allclose(batched, columns, atol=1e-12, err_msg=kind)

    def test_refuses_oversize_layout_before_allocating(self):
        layout = RegisterLayout([("A", 2), ("B", 4097)])
        op = DiagonalOp(layout, ("A",), [1.0, -1.0])
        with pytest.raises(MemoryError, match="8194x8194"):
            to_matrix(op, layout)
