"""Register algebra: indexing, operators, channels, metrics."""

import math
from collections import Counter

import numpy as np
import pytest

from zkamp.registers import (
    ATOL_OP,
    GRAM_ROWS,
    _BATCHED_MIN,
    DiagonalOp,
    HouseholderOp,
    LayoutMismatchError,
    LinearOp,
    OpChain,
    RegisterLayout,
    StateVector,
    XorOp,
    _gaussian_columns,
    basis_columns,
    _trusted_variant,
    haar_random_op,
    part_grams,
    random_state,
)

from oracles import (
    compact_wy_factors,
    DensityOperator,
    apply,
    basis_state,
    dephase,
    drawn_reflectors,
    embed_matrix,
    flatten,
    haar_random_unitary,
    householder_gather_act,
    kron_oracle,
    measure,
    measurement_probabilities,
    moved_apply,
    partial_trace,
    project,
    pure_density,
    reference_draw,
    to_matrix,
    trace_distance,
    unflatten,
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
            assert flatten(layout, unflatten(layout, flat)) == flat

    def test_first_register_most_significant(self):
        layout = RegisterLayout([("A", 2), ("B", 3)])
        assert flatten(layout, (1, 0)) == 3
        assert unflatten(layout, 5) == (1, 2)

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
        expected[flatten(layout, (1, 0))] = 1
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
            op = LinearOp(layout, ("C", "B"), haar_random_unitary(6, seed))
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

    def test_xor_matches_dense(self):
        # Y (4 states) takes codes[c] by XOR for each value c of the control (B, C).
        layout = RegisterLayout([("A", 2), ("Y", 4), ("B", 3), ("C", 2)])
        codes = np.array([0, 3, 1, 2, 3, 1])
        op = XorOp(layout, ("Y", "B", "C"), codes)
        dense_mat = np.zeros((24, 24))
        for y in range(4):
            for c in range(6):
                dense_mat[(y ^ codes[c]) * 6 + c, y * 6 + c] = 1
        dense = LinearOp(layout, ("Y", "B", "C"), dense_mat)
        s = StateVector(layout, random_state(48, 18))
        np.testing.assert_allclose(apply(op, s).amps, apply(dense, s).amps, atol=1e-14)

    def test_xor_is_its_own_adjoint(self):
        layout = RegisterLayout([("Y", 8), ("C", 3)])
        op = XorOp(layout, ("C", "Y"), [5, 0, 7])
        assert op.adjoint() is op
        block = np.random.default_rng(18).standard_normal((24, 3)) + 0j
        np.testing.assert_array_equal(op.apply_to(layout, op.apply_to(layout, block)), block)

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
        # <a' b' c'| E |a b c> = u[(a', c'), (a, c)] when b' = b, else 0.
        layout = RegisterLayout([("A", 2), ("B", 3), ("C", 2)])
        u = haar_random_unitary(4, 6)
        expected = np.einsum("ikjl,bd->ibkjdl", u.reshape(2, 2, 2, 2), np.eye(3)).reshape(12, 12)
        dense = embed_matrix(layout, ("A", "C"), u)
        np.testing.assert_allclose(dense, expected, atol=1e-14)
        op = LinearOp(layout, ("A", "C"), u)
        np.testing.assert_allclose(kron_oracle(op, layout), expected, atol=1e-14)
        s = random_state(12, 20)
        np.testing.assert_allclose(moved_apply(op, layout, s), expected @ s, atol=1e-12)


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

    @pytest.mark.parametrize(
        "dims, codes, message",
        [
            ((4, 3), [0, 1, 4], r"a code is outside 0\.\.3"),
            ((4, 3), [0, -1, 2], r"a code is outside 0\.\.3"),
            ((4, 3), [0, 1], r"codes have shape \(2,\), expected \(3,\)"),
            ((3, 2), [0, 1], "data register 'Y' has dimension 3, not a power of two"),
        ],
        ids=["out-of-range", "negative", "wrong-count", "three-state-data"],
    )
    def test_xor_code_checks(self, dims, codes, message):
        layout = RegisterLayout([("Y", dims[0]), ("C", dims[1])])
        with pytest.raises(ValueError, match=message):
            XorOp(layout, ("Y", "C"), codes)

    def test_immutability(self):
        layout = RegisterLayout([("A", 2)])
        s = basis_state(layout, {"A": 0})
        with pytest.raises(ValueError):
            s.amps[0] = 0.0


def _count_validations(monkeypatch) -> Counter:
    """Count calls of each operator class's construction-time ``_validate``."""
    calls: Counter = Counter()
    for cls in (LinearOp, DiagonalOp, XorOp, HouseholderOp, OpChain):

        def counted(self, *args, _check=cls._validate, _name=cls.__name__):
            calls[_name] += 1
            return _check(self, *args)

        monkeypatch.setattr(cls, "_validate", counted)
    return calls


def _random_xor(layout, targets, rng):
    """An ``XorOp`` on ``targets`` with random codes: the first in layout order is its data."""
    dim_y = layout.dim_of(min(targets, key=layout.axis))
    side = math.prod(layout.dim_of(name) for name in targets)
    return XorOp(layout, targets, rng.integers(0, dim_y, side // dim_y))


def _random_ops(seed):
    """A random layout with one operator of each kind on random targets, given in random order.

    Diagonals take any subset; every other kind an adjacent run of registers,
    which for the XOR starts at its data register, of a power-of-two dimension.
    """
    rng = np.random.default_rng(seed)
    names = ["A", "B", "C", "D"][: rng.integers(2, 5)]
    layout = RegisterLayout([(name, int(rng.integers(1, 5))) for name in names])

    def pick(apart=False, xor=False):
        size = int(rng.integers(1, len(names) + 1))
        if apart:
            chosen = rng.choice(names, size=size, replace=False)
        elif xor:
            start = int(rng.choice([i for i, dim in enumerate(layout.dims) if dim & (dim - 1) == 0]))
            chosen = rng.permutation(names[start : start + size])
        else:
            start = int(rng.integers(0, len(names) - size + 1))
            chosen = rng.permutation(names[start : start + size])
        targets = tuple(str(name) for name in chosen)
        return targets, int(np.prod([layout.dim_of(name) for name in targets]))

    targets, side = pick()
    unitary = LinearOp(layout, targets, haar_random_unitary(side, seed))
    targets, side = pick(apart=True)
    projector = DiagonalOp(layout, targets, rng.integers(0, 2, side), kind="projector")
    targets, side = pick(apart=True)
    diagonal = DiagonalOp(layout, targets, np.exp(1j * rng.uniform(0, 2 * np.pi, side)))
    xor = _random_xor(layout, pick(xor=True)[0], rng)
    chain = OpChain((unitary, diagonal, xor))
    targets, _ = pick()
    householder = haar_random_op(layout, targets, seed)
    targets, side = pick()
    inputs = rng.choice(side, size=rng.integers(1, side + 1), replace=False)
    narrow = haar_random_op(layout, targets, seed, inputs)
    return layout, {
        "unitary": unitary,
        "projector": projector,
        "diagonal": diagonal,
        "xor": xor,
        "chain": chain,
        "householder": householder,
        "narrow householder": narrow,
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
        p = XorOp(layout, ("B", "A"), [1, 0, 1])
        assert calls == {"XorOp": 1}
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
            ops["xor"].adjoint().codes,
            ops["householder"].adjoint().reflectors,
            ops["householder"].adjoint().tau,
            ops["householder"].adjoint().tfactors,
            ops["householder"].adjoint().phases,
            ops["narrow householder"].adjoint().order,
        ]
        unitary, diagonal, xor = reversed(ops["chain"].adjoint().factors)
        arrays += [unitary.matrix, diagonal.phases, xor.codes]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]


def _grams(op):
    """Each panel's ``V† V`` on its drawn rows ``s:``, as ``_validate`` forms it."""
    drawn, width = drawn_reflectors(op), op.tfactors.shape[1]
    panels = (drawn[s:, s : s + width] for s in range(0, op.columns, width))
    return [v.conj().T @ v for v in panels]


@pytest.mark.parametrize(
    "parts, split, rest, k",
    [
        (600, 2, 1, 1),
        (300, 1, 1, 70),
        (7, 2, 100, 70),
        (2, 2, 700, 70),
        (3, 1, 1500, 1),
        (5, 2, 300, 1),
    ],
    ids=["rest1-many-parts", "rest1-one-chunk", "parts-cut", "rest-cut", "rest-cut-split1", "one-part"],
)
def test_part_grams_are_those_of_the_dense_parts(parts, split, rest, k):
    # GRAM_ROWS rows at a time: a chunk holds many parts when rest is small, cuts rest when it
    # is above GRAM_ROWS / split, and no row count here is a multiple of GRAM_ROWS.
    assert (parts * split * rest) % GRAM_ROWS
    rng = np.random.default_rng(parts * rest + k)
    size = (parts * split * rest, k)
    rows = (rng.normal(size=size) + 1j * rng.normal(size=size)) / math.sqrt(2 * size[0])
    x = rows.reshape(parts, split, rest, k).swapaxes(0, 1).reshape(split, -1, k)
    reference = x.conj().swapaxes(1, 2) @ x
    assert np.max(np.abs(part_grams(rows, parts, split) - reference)) <= 1e-13


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
        np.testing.assert_allclose(tau, op.tau, atol=1e-12)
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
        op = haar_random_op(layout, ("C", "B"), seed=4)
        dense = LinearOp(layout, ("B", "C"), haar_random_unitary(10, seed=4))
        np.testing.assert_allclose(to_matrix(op, layout), to_matrix(dense, layout), atol=1e-12)

    @pytest.mark.parametrize("side", [1, 4, 63, 64, 65, 96, 1024])
    def test_tfactors_match_recurrence(self, side):
        # 65 and 96 leave a partial last panel; the bound stays near float scale.
        layout = RegisterLayout([("A", side)])
        op = haar_random_op(layout, ("A",), seed=side)
        assert op.tfactors.shape == (side, min(side, 64))
        np.testing.assert_allclose(
            op.tfactors, compact_wy_factors(op.reflectors, op.tau), rtol=0, atol=1e-13
        )
        assert op._deviation_bound(_grams(op)) <= 1e-12

    @pytest.mark.parametrize(
        "side, inputs, post",
        [(96, None, 1), (96, None, 200), (15, [7, 2, 11], 40), (130, range(129, 59, -1), 300)],
        ids=["full-vector", "full-wide", "narrow", "narrow-two-panels"],
    )
    def test_in_place_update_matches_the_gather_scatter_reference(self, side, inputs, post):
        # 96 and 130 rows hold two panels; 200 and 300 columns are more than the side.
        layout = RegisterLayout([("A", side)])
        op = haar_random_op(layout, ("A",), side, None if inputs is None else list(inputs))
        rng = np.random.default_rng(post)
        x = rng.standard_normal((side, post)) + 1j * rng.standard_normal((side, post))
        for variant in (op, op.adjoint()):
            np.testing.assert_allclose(
                variant._act(x[None])[0], householder_gather_act(variant, x), rtol=0, atol=1e-14
            )

    def test_zero_tau_is_an_identity_reflector(self):
        layout = RegisterLayout([("A", 4)])
        op = haar_random_op(layout, ("A",), seed=4)
        tau = op.tau.copy()
        tau[2] = 0
        kept = HouseholderOp(layout, ("A",), op.reflectors, tau, op.phases)
        assert not kept.tfactors[:, 2].any()
        identity = HouseholderOp(layout, ("A",), np.eye(4), np.zeros(4), np.ones(4))
        np.testing.assert_array_equal(to_matrix(identity, layout), np.eye(4))

    @pytest.mark.parametrize("side", [4, 96])
    def test_rejects_perturbed_tau(self, side):
        layout = RegisterLayout([("A", side)])
        op = haar_random_op(layout, ("A",), seed=side)
        tau = op.tau.copy()
        tau[side // 2] += 1e-8
        with pytest.raises(ValueError, match="not unitary"):
            HouseholderOp(layout, ("A",), op.reflectors, tau, op.phases)

    def test_rejects_non_unit_phase(self):
        layout = RegisterLayout([("A", 8)])
        op = haar_random_op(layout, ("A",), seed=8)
        phases = op.phases.copy()
        phases[3] *= 1 + 1e-8
        with pytest.raises(ValueError, match="not unitary"):
            HouseholderOp(layout, ("A",), op.reflectors, op.tau, phases)

    @pytest.mark.parametrize("side", [4, 96, 200])
    def test_bound_is_at_least_dense_deviation(self, side):
        layout = RegisterLayout([("A", side)])
        op = haar_random_op(layout, ("A",), seed=side)
        width = op.tfactors.shape[1]
        tau = op.tau.copy()
        tau[side // 2] += 1e-8
        tfactors = op.tfactors.copy()
        tfactors[(side // 2) // width * width, 1] += 1e-8
        variants = [
            op,
            _trusted_variant(op, tau=tau, tfactors=compact_wy_factors(op.reflectors, tau)),
            _trusted_variant(op, tfactors=tfactors),
        ]
        for variant in variants:
            u = to_matrix(variant, layout)
            dense = np.linalg.norm(u.conj().T @ u - np.eye(side), ord=2)
            assert variant._deviation_bound(_grams(variant)) >= dense
        assert op._deviation_bound(_grams(op)) <= ATOL_OP
        assert min(v._deviation_bound(_grams(v)) for v in variants[1:]) > ATOL_OP

    def test_rejects_wrong_shapes(self):
        layout = RegisterLayout([("A", 4), ("B", 2)])
        op = haar_random_op(layout, ("A",), seed=0)
        with pytest.raises(ValueError, match="shapes"):
            HouseholderOp(layout, ("B",), op.reflectors, op.tau, op.phases)
        with pytest.raises(ValueError, match="shapes"):
            HouseholderOp(layout, ("A",), op.reflectors, op.tau[:-1], op.phases)


class TestNarrowHouseholderOp:
    """k < d reflectors behind a row order: Haar input columns, the identity elsewhere."""

    @pytest.mark.parametrize("side, seed", [(1, 0), (5, 3), (64, 1), (130, 2)])
    def test_full_draw_is_unchanged_bit_for_bit(self, side, seed):
        layout = RegisterLayout([("A", side)])
        op = haar_random_op(layout, ("A",), seed)
        reflectors, tau, phases = reference_draw(side, seed)
        assert op.order is None and op.columns == side
        np.testing.assert_array_equal(op.reflectors, reflectors)
        np.testing.assert_array_equal(op.tau, tau)
        np.testing.assert_array_equal(op.phases, phases)
        rebuilt = HouseholderOp(layout, ("A",), reflectors, tau, phases)
        np.testing.assert_array_equal(op.tfactors, rebuilt.tfactors)

    @pytest.mark.parametrize(
        "side, inputs",
        [
            # The 24 start columns of the n = 4 benchmark pair at dims 2x2.
            (512, [13, 14, 19, 22, 26, 28, 35, 37, 41, 44, 49, 50]
             + [269, 270, 275, 278, 282, 284, 291, 293, 297, 300, 305, 306]),
            (1024, range(1000, 976, -1)),
            (130, range(129, 59, -1)),
            (96, None),
        ],
        ids=["512x24", "1024x24", "130x70", "full-96"],
    )
    def test_seed_to_verifier_map_is_pinned(self, side, inputs):
        # The draw fills and normalises its reflectors in place; the values, and so every
        # report, are those of the masked fill from a scaled copy, bit for bit.
        layout = RegisterLayout([("A", side)])
        op = haar_random_op(layout, ("A",), 7, None if inputs is None else list(inputs))
        reflectors, tau, phases = reference_draw(side, 7, op.columns)
        reference = HouseholderOp(layout, ("A",), reflectors, tau, phases, op.order)
        assert np.array_equal(drawn_reflectors(op), reflectors)
        for name in ("reflectors", "tau", "phases", "tfactors"):
            assert np.array_equal(getattr(op, name), getattr(reference, name)), name

    @pytest.mark.parametrize("k", [0, 1, 7, 64, 65, 130])
    def test_gaussian_columns_are_a_prefix_of_the_full_draw(self, k):
        full = _gaussian_columns(130, 9)
        np.testing.assert_array_equal(_gaussian_columns(130, 9, k), full[:, :k])

    @pytest.mark.parametrize("inputs", [[0], [7, 2, 11], [14, 3, 0, 9, 1], list(range(15))[::-1]])
    def test_input_columns_match_the_dense_haar_draw(self, inputs):
        # Reflectors k and later fix the first k basis states, so column
        # inputs[j] is column j of the full draw, moved back by the order.
        layout = RegisterLayout([("A", 3), ("B", 5)])
        op = haar_random_op(layout, ("B", "A"), 6, inputs)
        u = to_matrix(op, layout)
        dense = haar_random_unitary(15, 6)
        assert op.columns == len(inputs)
        np.testing.assert_allclose(u[:, inputs][op.order], dense[:, : len(inputs)], atol=1e-12)
        np.testing.assert_allclose(u, kron_oracle(op, layout), atol=1e-12)
        np.testing.assert_allclose(to_matrix(op.adjoint(), layout), u.conj().T, atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(15), atol=1e-12)

    @pytest.mark.parametrize(
        "rest, inputs",
        [
            (4, [0]),
            (4, [9, 4, 21]),
            (4, [23, 6, 0, 13, 18, 1]),
            (4, None),
            (24, list(range(143, 3, -2))),
            (24, np.random.default_rng(5).permutation(144)[:100].tolist()),
            (24, None),
        ],
        ids=["inputs0", "inputs1", "inputs2", "None", "two-panel-70", "two-panel-100", "full-144"],
    )
    def test_input_grams_are_those_of_the_input_columns(self, rest, inputs):
        # The rows read as (parts, split, rest) = (3, 2, rest); the inputs fall in both parts of
        # the split, and without inputs every column is one and the rows have no order.  At
        # rest = 24 the k > 64 reflectors make two or three panels, and the heads fall in every
        # part and in both halves.
        layout = RegisterLayout([("A", 3), ("B", 2), ("C", rest)])
        op = haar_random_op(layout, ("A", "B", "C"), 8, inputs)
        columns = to_matrix(op, layout)[:, op.inputs].reshape(3, 2, rest, -1).swapaxes(0, 1)
        columns = columns.reshape(2, 3 * rest, -1)
        reference = columns.conj().swapaxes(1, 2) @ columns
        assert np.max(np.abs(op.input_grams(3, 2) - reference)) <= 1e-14

    @pytest.mark.parametrize("inputs", [[0], [7, 2, 11], list(range(15))[::-1]])
    def test_holds_one_copy_of_the_drawn_rows_placed_by_the_order(self, inputs):
        layout = RegisterLayout([("A", 3), ("B", 5)])
        op = haar_random_op(layout, ("B", "A"), 6, inputs)
        reflectors, _, _ = reference_draw(15, 6)
        np.testing.assert_array_equal(op.reflectors[op.order], reflectors[:, : len(inputs)])
        assert op.reflectors.flags.c_contiguous and op.reflectors.flags.owndata
        arrays = {name for name, value in vars(op).items() if isinstance(value, np.ndarray)}
        assert arrays == {"reflectors", "tau", "phases", "order", "tfactors"}

    @pytest.mark.parametrize("k", [1, 3, 40, 70])
    def test_fixes_a_subspace_of_dimension_at_least_d_minus_2k(self, k):
        side = 160
        layout = RegisterLayout([("A", side)])
        inputs = np.random.default_rng(k).permutation(side)[:k]
        op = haar_random_op(layout, ("A",), k, inputs)
        u = to_matrix(op, layout)
        singular = np.linalg.svd(u - np.eye(side), compute_uv=False)
        assert np.count_nonzero(singular > 1e-10) <= 2 * k
        # The validation bound covers the dense deviation of the operator as applied.
        dense = np.linalg.norm(u.conj().T @ u - np.eye(side), ord=2)
        assert dense <= op._deviation_bound(_grams(op)) <= ATOL_OP

    @pytest.mark.parametrize("side, inputs", [(2, [1]), (3, [2]), (3, [2, 0])])
    def test_haar_moments_on_input_columns(self, side, inputs):
        # Over Haar measure E[U_ij] = 0, E|U_ij|^2 = 1/d and E|U_ij|^4 = 2/(d(d+1)),
        # and two columns have E|U_ia|^2 |U_jb|^2 = 1/(d^2 - 1) for i != j.
        layout = RegisterLayout([("A", side)])
        cols = np.array(
            [
                to_matrix(haar_random_op(layout, ("A",), seed, inputs), layout)[:, inputs]
                for seed in range(2000)
            ]
        )
        checks = [
            (cols.real, 0.0),
            (cols.imag, 0.0),
            (np.abs(cols) ** 2, 1.0 / side),
            (np.abs(cols) ** 4, 2.0 / (side * (side + 1))),
        ]
        if len(inputs) == 2:
            checks.append((np.abs(cols[:, 0, 0] * cols[:, 1, 1]) ** 2, 1.0 / (side**2 - 1)))
        for values, expected in checks:
            error = np.abs(values.mean(axis=0) - expected)
            sigma = values.std(axis=0) / np.sqrt(len(values))
            assert np.all(error <= 5 * sigma + 1e-12), (error, sigma)

    def test_rejects_an_order_that_is_not_a_permutation(self):
        layout = RegisterLayout([("A", 6)])
        op = haar_random_op(layout, ("A",), 2, [4, 1])
        for order in ([4, 1, 0, 2, 3, 3], [4, 1, 0, 2, 3, 6], [4, 1, 0, 2, -1, 5], [4, 1, 0, 2, 3]):
            with pytest.raises(ValueError, match="row order"):
                HouseholderOp(layout, ("A",), drawn_reflectors(op), op.tau, op.phases, order)
        with pytest.raises(ValueError, match="row order"):
            haar_random_op(layout, ("A",), 2, [4, 4])

    def test_rejects_more_reflectors_than_rows(self):
        layout = RegisterLayout([("A", 4)])
        with pytest.raises(ValueError, match="k must be at most 4"):
            HouseholderOp(layout, ("A",), np.eye(4, 5), np.zeros(5), np.ones(5))
        with pytest.raises(ValueError, match="column count"):
            _gaussian_columns(4, 0, 5)

    def test_rejects_mismatched_shapes(self):
        layout = RegisterLayout([("A", 6)])
        op = haar_random_op(layout, ("A",), 2, [4, 1, 0])
        drawn = drawn_reflectors(op)
        for reflectors, tau, phases in (
            (drawn, op.tau[:2], op.phases),
            (drawn, op.tau, op.phases[:2]),
            (drawn[:, :2], op.tau, op.phases),
            (drawn[:5], op.tau, op.phases),
            (drawn, op.tau[:, None], op.phases),
        ):
            with pytest.raises(ValueError, match="shapes"):
                HouseholderOp(layout, ("A",), reflectors, tau, phases, op.order)

    def test_bound_gates_the_phases_it_applies(self):
        layout = RegisterLayout([("A", 8)])
        op = haar_random_op(layout, ("A",), 3, [5, 2])
        drawn = drawn_reflectors(op)
        rebuilt = HouseholderOp(layout, ("A",), drawn, op.tau, op.phases, op.order)
        np.testing.assert_array_equal(rebuilt.reflectors, op.reflectors)
        phases = op.phases.copy()
        phases[1] *= 1 + 1e-8
        with pytest.raises(ValueError, match="not unitary"):
            HouseholderOp(layout, ("A",), drawn, op.tau, phases, op.order)
        tau = op.tau.copy()
        tau[0] += 1e-8
        with pytest.raises(ValueError, match="not unitary"):
            HouseholderOp(layout, ("A",), drawn, tau, op.phases, op.order)


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


# Target sets at each position of one layout: its first registers, a middle
# one, its last ones, and two that are apart, which only a diagonal may take.
# Each set's first register has a power-of-two dimension, so an XOR may take it.
POSITION_LAYOUT = RegisterLayout([("P", 2), ("Q", 4), ("R", 2), ("S", 3)])
POSITIONS = {
    "leading": ("P", "Q"),
    "middle": ("Q",),
    "trailing": ("R", "S"),
    "non-contiguous": ("P", "R"),
}
# A single vector, and blocks whose middle-Q products (4 x 6 x width
# amplitudes) fall below and above the batched-product threshold.
WIDTHS = {"vector": None, "narrow": 3, "wide": 32}


def _each_kind(layout, targets, seed):
    """One operator of each kind on ``targets``; only the diagonals if the targets are apart."""
    rng = np.random.default_rng(seed)
    side = math.prod(layout.dim_of(name) for name in targets)
    unitary = LinearOp(layout, targets, haar_random_unitary(side, seed))
    diagonal = DiagonalOp(layout, targets, np.exp(1j * rng.uniform(0, 2 * np.pi, side)))
    xor = _random_xor(layout, targets, rng)
    ops = {
        "unitary": unitary,
        "diagonal": diagonal,
        "projector": DiagonalOp(layout, targets, rng.integers(0, 2, side), kind="projector"),
        "xor": xor,
        "householder": haar_random_op(layout, targets, seed),
        "ordered householder": haar_random_op(layout, targets, seed, rng.permutation(side)[:2]),
        "chain": OpChain((unitary, diagonal, xor)),
    }
    axes = layout.axes(unitary.targets)
    if axes[-1] - axes[0] >= len(axes):
        return {kind: ops[kind] for kind in ("diagonal", "projector")}
    return ops


def _moving_classes(monkeypatch, layout, ops, x) -> set:
    """Classes of the operators in ``ops`` (and their adjoints) that move an axis of ``x``."""
    calls = []
    moveaxis = np.moveaxis
    monkeypatch.setattr(np, "moveaxis", lambda *a, **k: calls.append(a[1:]) or moveaxis(*a, **k))
    moving = set()
    for op in ops:
        for applied in (op, op.adjoint()):
            before = len(calls)
            applied.apply_to(layout, x)
            if len(calls) > before:
                moving.add(type(op).__name__)
    return moving


class TestOnTargets:
    """Every operator kind at every target position, on vectors and on blocks."""

    def test_widths_straddle_the_batched_threshold(self):
        layout = POSITION_LAYOUT
        per_column = layout.dim_of("Q") * layout.dim_of("R") * layout.dim_of("S")
        assert per_column * WIDTHS["narrow"] < _BATCHED_MIN <= per_column * WIDTHS["wide"]

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("position", POSITIONS)
    def test_matches_kron_oracle_and_moving_form(self, position, width):
        layout = POSITION_LAYOUT
        rng = np.random.default_rng(11)
        shape = (layout.total_dim,) + (() if WIDTHS[width] is None else (WIDTHS[width],))
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for kind, op in _each_kind(layout, POSITIONS[position], 5).items():
            for applied in (op, op.adjoint()):
                out = applied.apply_to(layout, x)
                assert out.shape == x.shape
                np.testing.assert_allclose(
                    out, kron_oracle(applied, layout) @ x, atol=1e-12, err_msg=kind
                )
                np.testing.assert_allclose(
                    out, moved_apply(applied, layout, x), atol=1e-13, err_msg=kind
                )

    @pytest.mark.parametrize(
        "position, width, moving",
        [
            ("leading", "vector", set()),
            ("leading", "wide", set()),
            ("middle", "vector", {"LinearOp"}),
            ("middle", "narrow", {"LinearOp"}),
            ("middle", "wide", set()),
            ("trailing", "vector", set()),
            # Batch columns trail the layout, so R,S is a middle axis here;
            # its 6 x 3 and 6 x 32 amplitudes per product are under the threshold.
            ("trailing", "narrow", {"LinearOp"}),
            ("trailing", "wide", {"LinearOp"}),
            ("non-contiguous", "vector", set()),
            ("non-contiguous", "wide", set()),
        ],
    )
    def test_moves_axes_only_for_a_narrow_middle_product(
        self, monkeypatch, position, width, moving
    ):
        # Counted at np.moveaxis itself: a Householder operator at a middle or
        # trailing position, on a vector or a 3-column block, moves nothing.
        layout = POSITION_LAYOUT
        shape = (layout.total_dim,) + (() if WIDTHS[width] is None else (WIDTHS[width],))
        ops = _each_kind(layout, POSITIONS[position], 5)
        ops.pop("chain", None)
        x = np.ones(shape, dtype=complex)
        assert _moving_classes(monkeypatch, layout, ops.values(), x) == moving


class TestApartTargets:
    """Only a diagonal acts on registers that are apart; every other operator is refused."""

    LAYOUT = RegisterLayout([("A", 2), ("B", 3), ("C", 2)])

    def _inputs(self):
        rng = np.random.default_rng(9)
        block = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        return [random_state(12, 9), block]

    def test_non_diagonal_operators_are_refused(self):
        layout, rng = self.LAYOUT, np.random.default_rng(10)
        unitary = LinearOp(layout, ("A", "C"), haar_random_unitary(4, 10))
        diagonal = DiagonalOp(layout, ("A", "C"), np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
        xor = XorOp(layout, ("C", "A"), [1, 0])
        ops = {
            "unitary": unitary,
            "xor": xor,
            "householder": haar_random_op(layout, ("A", "C"), 10),
            "narrow householder": haar_random_op(layout, ("A", "C"), 10, [3]),
            "chain": OpChain((diagonal, xor)),
        }
        refusal = r"\('A', 'C'\) are not adjacent in layout \('A', 'B', 'C'\)"
        for x in self._inputs():
            for kind, op in ops.items():
                for applied in (op, op.adjoint()):
                    with pytest.raises(LayoutMismatchError, match=refusal):
                        applied.apply_to(layout, x)

    def test_diagonals_match_kron_oracle(self):
        layout, rng = self.LAYOUT, np.random.default_rng(11)
        ops = (
            DiagonalOp(layout, ("A", "C"), np.exp(1j * rng.uniform(0, 2 * np.pi, 4))),
            DiagonalOp(layout, ("C", "A"), [1, 0, 0, 1], kind="projector"),
        )
        for x in self._inputs():
            for op in ops:
                for applied in (op, op.adjoint()):
                    np.testing.assert_allclose(
                        applied.apply_to(layout, x), kron_oracle(applied, layout) @ x, atol=1e-12
                    )


# Row sets of POSITION_LAYOUT's 48 basis vectors: unsorted with a repeat, every
# row in reverse, one row, and none.
BASIS_ROWS = {
    "unsorted": [17, 3, 40, 3, 29, 0, 47],
    "every": list(range(47, -1, -1)),
    "single": [22],
    "empty": [],
}


# The benchmark's operation lines (perfbench/run.py) that exit 0, and two larger
# abstract layouts, whose Householder factors must each get at most side columns.
_N3 = ["--n", "3", "--g0", "01,12", "--g1", "01,02"]
_N4 = ["--n", "4", "--g0", "01,12,23", "--g1", "03,12,20"]
HOUSEHOLDER_LINES = [
    ["verify-eq1", *_N4, "--trials", "1"],
    ["verify-eq2", *_N4, "--trials", "1"],
    ["watrous", *_N4, "--trials", "1"],
    ["blocks", *_N3, "--trials", "1"],
    ["blocks", "--m", "8", "--trials", "1"],
    ["phases", "--lambdas", "0.001,0.01,0.03,0.1,0.2,0.25,0.5,0.9", "--k-max", "64"],
    ["schedule", "--m", "8"],
    ["zk-check", *_N4, "--keep-z", "--trials", "1"],
    ["zk-check", *_N3, "--dim-w", "8", "--dim-v", "8", "--trials", "1"],
    ["blocks", "--m", "20"],
    ["schedule", "--m", "100", "--steps", "2"],
]


class TestOnBasis:
    """A chain on basis columns equals its ``apply_to`` on ``basis_columns``."""

    @pytest.mark.parametrize("rows", BASIS_ROWS)
    @pytest.mark.parametrize("position", POSITIONS)
    def test_matches_apply_to_on_basis_columns(self, position, rows):
        layout, rows = POSITION_LAYOUT, np.array(BASIS_ROWS[rows], dtype=np.int64)
        columns = basis_columns(layout.total_dim, rows)
        then = LinearOp(layout, ("S",), haar_random_unitary(3, 6))
        ops = _each_kind(layout, POSITIONS[position], 5)
        ops.pop("projector")
        for kind, op in ops.items():
            for applied in (op, op.adjoint()):
                for chain in (OpChain((applied,)), OpChain((applied, then))):
                    out = chain.on_basis(layout, rows)
                    assert out.shape == columns.shape
                    np.testing.assert_allclose(
                        out, chain.apply_to(layout, columns), rtol=0, atol=1e-15, err_msg=kind
                    )

    def test_refuses_what_apply_to_refuses(self):
        layout = TestApartTargets.LAYOUT
        apart = OpChain((LinearOp(layout, ("A", "C"), haar_random_unitary(4, 10)),))
        with pytest.raises(LayoutMismatchError, match="are not adjacent"):
            apart.on_basis(layout, np.arange(3))
        elsewhere = RegisterLayout([("A", 2), ("B", 3)])
        with pytest.raises(LayoutMismatchError, match="operator targets"):
            apart.on_basis(elsewhere, np.arange(3))

    @pytest.mark.parametrize("argv", HOUSEHOLDER_LINES, ids=" ".join)
    def test_no_householder_factor_gets_more_columns_than_its_side(self, monkeypatch, argv):
        # HouseholderOp._act updates its whole copy in one pass, so a block wider
        # than tall would hold a product wider than the operator.  blocks --n 3
        # keeps 384 of 768 basis columns, a (64, 4608) block for its verifier if
        # handed whole; on_basis hands it its 64 side basis vectors alone.
        # zk-check reads its drawn verifier's reflectors, and phases builds no
        # operator, so neither applies one.
        import io
        from contextlib import redirect_stderr, redirect_stdout

        from zkamp import cli

        shapes, act = [], HouseholderOp._act
        monkeypatch.setattr(HouseholderOp, "_act", lambda op, x: shapes.append(x.shape) or act(op, x))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.run([*argv, "--seed", "7"]) == 0
        assert bool(shapes) == (argv[0] not in ("zk-check", "phases"))
        assert all(post <= side for _, side, post in shapes), shapes

    def test_an_adjoint_draw_gets_no_more_columns_than_its_side(self, monkeypatch):
        # A draw's adjoint is applied to the s start columns of the start block.
        from zkamp.protocol import Instance, VerifierModel, adversarial_verifier, start_block
        from zkamp.symm import Graph

        inst = Instance.from_graphs(Graph(3, [(0, 1), (1, 2)]), Graph(3, [(0, 1), (0, 2)]))
        ver = adversarial_verifier((8, 8), 3, 7, inst.codes[0])
        shapes, act = [], HouseholderOp._act
        monkeypatch.setattr(HouseholderOp, "_act", lambda op, x: shapes.append(x.shape) or act(op, x))
        start_block(VerifierModel(ver.dims, ver.u_v.adjoint()), 3, inst.codes[0])
        assert shapes == [(1, 1024, 24)]
