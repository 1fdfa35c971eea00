"""Block identities, invariant subspace, phase solving, and the schedule."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from zkamp import amplify
from zkamp.amplify import (
    RESIDUAL_PANEL,
    BlockDecomposition,
    NotLambdaUniformError,
    PhasePair,
    analytic_k,
    block_decompose,
    computed_second_probability,
    final_fail_amplitude,
    iterative_schedule,
    iterative_schedule_full,
    smallest_feasible_k,
    solve_phases,
    stated_second_probability,
    subspace_matrix,
    toy_circuit,
    verify_block_identities,
    verify_subspace_closure,
)
from zkamp.protocol import Instance, adversarial_verifier, honest_verifier, random_aux
from zkamp.registers import _PANEL_WIDTH, DiagonalOp, RegisterLayout, basis_columns
from zkamp.simulator import (
    SimulatorCircuit,
    attempt_output,
    build_circuit,
    first_measurement,
    grover_step,
)
from zkamp.symm import Graph

from oracles import (
    evolve_two_dim,
    kron_oracle,
    quadratic_feasible_k,
    success_probability,
    watrous_round,
)

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

    @pytest.mark.parametrize("seed", [None, 7])
    def test_kept_columns_never_move_axes(self, monkeypatch, seed):
        # Every attempt factor of the n = 3 circuit applies to the 768 x 384
        # kept columns without moving an axis; a moved product would copy them
        # twice more.
        inst = Instance.from_graphs(PATH3, PATH3B)
        if seed is None:
            circ = build_circuit(inst, honest_verifier((2, 2), 3))
        else:
            circ = build_circuit(inst, adversarial_verifier((2, 2), 3, seed, inst.codes[0]))
        moved = []
        moveaxis = np.moveaxis
        monkeypatch.setattr(np, "moveaxis", lambda *args: moved.append(args[1:]) or moveaxis(*args))
        b = block_decompose(circ.attempt, circ.success_proj, circ.layout)
        assert abs(b.success_prob - 0.5) < TOL
        assert moved == []

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


class TestBlocksMemory:
    """Traced allocations of the blocks certificate, in d x r blocks of kept attempt rows."""

    @staticmethod
    def gmw_n3():
        """The circuit of ``blocks --n 3``: its verifier is drawn on g0's start columns."""
        inst = Instance.from_graphs(PATH3, PATH3B)
        return build_circuit(inst, adversarial_verifier((2, 2), 3, 7, inst.codes[0]))

    CIRCUITS = {"gmw-n3": gmw_n3, "toy-m30": lambda: toy_circuit(30, seed=7)}

    @staticmethod
    def traced_peak(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("name", ["gmw-n3", "toy-m30"])
    def test_householder_factor_on_its_basis_holds_its_copy_and_one_product(self, name, adjoint):
        # OpChain.on_basis hands the first attempt factor, the verifier of blocks --n 3
        # (side 64, 6 reflectors) or the scramble of blocks --m 30 (side 120, two panels),
        # its side's basis vectors: a square block.  Beside that input the operator holds
        # its copy, one product of the block's size, a panel's V^† x and T V^† x, T's
        # conjugate and a few KiB of interpreter objects; a second product would not fit.
        circ = self.CIRCUITS[name]()
        op = circ.attempt.factors[-1]
        op = op.adjoint() if adjoint else op
        layout = RegisterLayout(
            (reg, dim if reg in op.targets else 1) for reg, dim in circ.layout.registers
        )
        side = layout.total_dim
        block = basis_columns(side, np.arange(side))
        width = min(op.columns, _PANEL_WIDTH)
        panel = 16 * width * (2 * side + width)
        peak = self.traced_peak(lambda: op.apply_to(layout, block))
        assert peak <= 2 * block.nbytes + panel + 2**12

    def test_identities_hold_no_copy_of_the_factor(self):
        # With the stored factor, the identities stay within the estimate's
        # term for them; a d_c x r conjugate of K or Y = K (K^† K - I) would not fit.
        circ = self.gmw_n3()
        b = block_decompose(circ.attempt, circ.success_proj, circ.layout)
        (d_c, r), panel = b.rest_factor.shape, RESIDUAL_PANEL
        peak = self.traced_peak(lambda: verify_block_identities(b))
        held = b.rest_factor.nbytes + b.cross.nbytes + peak
        assert held <= 16 * (d_c * r + r * r + 2 * panel * (r + d_c))

    def test_identities_run_no_factorization(self, monkeypatch):
        # numpy.linalg's factorizations copy their input where tracemalloc
        # cannot see it, so the traced peak above would miss an r x r copy.
        circ = self.gmw_n3()
        b = block_decompose(circ.attempt, circ.success_proj, circ.layout)
        for name in ("solve", "inv", "cholesky", "qr", "eigh"):
            monkeypatch.setattr(np.linalg, name, lambda *args, name=name, **kwargs: pytest.fail(name))
        assert max(verify_block_identities(b)) < TOL


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
    """Blocks from the kept attempt rows equal those of a† P a built from kron-embedded factors."""

    CIRCUITS = {
        "gmw-n2": lambda: build_circuit(
            Instance.from_graphs(EDGE2, EDGE2), adversarial_verifier((2, 2), 2, 13)
        ),
        "gmw-n3": lambda: gmw_circuit(15),
        "toy-m2": lambda: toy_circuit(2, seed=16),
        "toy-m3": lambda: toy_circuit(3, seed=14),
        "toy-m8": lambda: toy_circuit(8, seed=17),
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
            b.success_prob * np.eye(dim_w), conj[np.ix_(slice_idx, slice_idx)], rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(b.cross, conj[np.ix_(comp_idx, slice_idx)], rtol=0, atol=1e-13)
        rest = b.rest_factor @ b.rest_factor.conj().T
        np.testing.assert_allclose(rest, conj[np.ix_(comp_idx, comp_idx)], rtol=0, atol=1e-13)


class TestBlockIdentityNorms:
    """Each identity is reported as a Frobenius norm, an upper bound on its spectral norm."""

    CIRCUITS = {
        "gmw-n2": lambda: build_circuit(
            Instance.from_graphs(EDGE2, EDGE2), adversarial_verifier((2, 2), 2, 21)
        ),
        "gmw-n3": lambda: gmw_circuit(22),
        "toy-m2": lambda: toy_circuit(2, seed=23),
        "toy-m3": lambda: toy_circuit(3, seed=24),
        "toy-m8": lambda: toy_circuit(8, seed=25),
    }

    @staticmethod
    def residuals(b):
        """The three residuals assembled whole, with ``rest`` formed densely from its factor."""
        lam, cross = b.success_prob, b.cross
        rest = b.rest_factor @ b.rest_factor.conj().T
        return (
            (lam**2 - lam) * np.eye(cross.shape[1]) + cross.conj().T @ cross,
            (lam - 1) * cross + rest @ cross,
            cross @ cross.conj().T + rest @ rest - rest,
        )

    @staticmethod
    def perturbed(b, index, block="rest_factor"):
        stored = getattr(b, block).copy()
        stored[index] += 1e-8
        return dataclasses.replace(b, **{block: stored})

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_bounds_spectral_norm(self, name):
        circ = self.CIRCUITS[name]()
        b = block_decompose(circ.attempt, circ.success_proj, circ.layout)
        values = verify_block_identities(b)
        assert max(values) < TOL
        for value, r in zip(values, self.residuals(b)):
            assert value >= np.linalg.norm(r, ord=2)

    @pytest.mark.parametrize(
        "block, index",
        [
            (None, None),
            ("rest_factor", (0, 0)),
            ("rest_factor", (-1, -1)),
            ("rest_factor", (300, 17)),
            ("rest_factor", (0, -1)),
            ("cross", (5, 0)),
            ("cross", (300, 1)),
            ("cross", (-1, 1)),
        ],
        ids=[
            "clean",
            "first",
            "last",
            "interior",
            "mirrored",
            "cross-first",
            "cross-interior",
            "cross-last",
        ],
    )
    def test_factored_residuals_match_the_dense_ones(self, block, index):
        # Row -1 sits in the last, partial panel of gmw-n3's 766 rows.  Column
        # -1 of the factor lies in G's last column panel, so its row of G
        # comes only from the mirror of the panels above it.
        circ = self.CIRCUITS["gmw-n3"]()
        b = block_decompose(circ.attempt, circ.success_proj, circ.layout)
        if index is not None:
            b = self.perturbed(b, index, block)
        dense = [np.linalg.norm(r) for r in self.residuals(b)]
        np.testing.assert_allclose(verify_block_identities(b), dense, rtol=0, atol=1e-13)
        if index is not None:
            assert dense[2] > TOL

    @staticmethod
    def stored(name):
        """Stored blocks that no honest circuit gives, and P = I; the certificate measures them too."""
        rng = np.random.default_rng(37)

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        if name == "random":
            return BlockDecomposition(0.4, gaussian(300, 3), gaussian(300, 150) / 20)
        if name == "wide":  # r > d_c, so C = K^† K is singular
            return BlockDecomposition(0.3, gaussian(40, 2), gaussian(40, 60) / 8)
        if name == "full-projector":  # P = I: lam = 1 and a vanishing cross block
            circ = toy_circuit(2, seed=1)
            full = DiagonalOp(circ.layout, ("A", "B"), np.ones(4), kind="projector")
            return block_decompose(circ.attempt, full, circ.layout)
        circ = TestBlockIdentityNorms.CIRCUITS["gmw-n3"]()
        b = block_decompose(circ.attempt, circ.success_proj, circ.layout)
        kc, cross = b.rest_factor.copy(), b.cross
        if name == "zeroed-column":
            kc[:, 5] = 0
        elif name == "duplicated-column":  # a singular C
            kc[:, 7] = kc[:, 3]
        elif name == "zero-cross":
            cross = np.zeros_like(cross)
        elif name == "rotated-cross":  # cross U leaves cross cross^† and the identity as they were
            cross = cross @ np.linalg.qr(gaussian(2, 2))[0]
        return dataclasses.replace(b, cross=cross, rest_factor=kc)

    @pytest.mark.parametrize(
        "name",
        [
            "zeroed-column",
            "duplicated-column",
            "wide",
            "zero-cross",
            "rotated-cross",
            "random",
            "full-projector",
        ],
    )
    def test_core_measures_any_stored_blocks_as_the_dense_residual(self, name):
        # The split of cross over K holds for any a, so the core's value is the
        # dense residual's norm wherever conjugate gradients stop.
        b = self.stored(name)
        dense = np.linalg.norm(self.residuals(b)[2])
        r3 = verify_block_identities(b)[2]
        assert r3 >= 0  # a negative squared trace would read NaN
        assert abs(r3 - dense) <= 1e-14 * max(dense, 1.0)
        if name in ("rotated-cross", "full-projector"):
            assert r3 <= 1e-13

    @staticmethod
    def projector_blocks(r, dim_w=2, extra=40):
        """Blocks of ``K K^†`` for a d x r K with orthonormal columns, d = dim_w + r + extra.

        ``K K^†`` is a projector, so identity 3 holds whatever its top block is.
        """
        rng = np.random.default_rng(r)
        shape = (dim_w + r + extra, r)
        k = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
        ks, kc = k[:dim_w], k[dim_w:]
        return BlockDecomposition(0.5, kc @ ks.conj().T, kc)

    @pytest.mark.parametrize(
        "block, index",
        [(None, None), ("rest_factor", (0, 0)), ("rest_factor", (-1, -1)), ("cross", (-1, 0))],
        ids=["clean", "first", "last", "cross-last"],
    )
    @pytest.mark.parametrize("r", [1, 127, 128, 129, 257])
    def test_one_sided_core_matches_the_dense_residual(self, r, block, index):
        # 127 and 128 rows make one panel, partial or whole; 129 and 257 end
        # in a panel of one row, whose blocks right of the diagonal are empty,
        # and r = 1 has nothing right of its one diagonal entry.
        b = self.projector_blocks(r)
        if index is not None:
            b = self.perturbed(b, index, block)
        dense = np.linalg.norm(self.residuals(b)[2])
        r3 = verify_block_identities(b)[2]
        assert abs(r3 - dense) <= 1e-13
        if index is None:
            assert r3 <= 1e-13
        else:
            assert dense > TOL

    @pytest.mark.parametrize("name", ["gmw-n2", "gmw-n3", "toy-m3", "toy-m8"])
    def test_conjugate_gradients_end_within_dim_w_plus_one_steps(self, monkeypatch, name):
        # On honest blocks C = I - K_s^† K_s has at most dim_w + 1 distinct
        # eigenvalues, so conjugate gradients end within as many steps.  (Its
        # right side (1 - lam) K_s^† even lies in one eigenspace: one step
        # solves it and a second at most clears the rounding.)
        circ = self.CIRCUITS[name]()
        b = block_decompose(circ.attempt, circ.success_proj, circ.layout)
        solve, calls = amplify._conjugate_gradients, []

        def recorded(c, rhs):
            calls.append((c, rhs, *solve(c, rhs)))
            return calls[-1][2:]

        monkeypatch.setattr(amplify, "_conjugate_gradients", recorded)
        assert verify_block_identities(b)[2] < TOL
        ((c, rhs, a, steps),) = calls
        assert 1 <= steps <= circ.layout.dim_of("W") + 1
        np.testing.assert_allclose(a, np.linalg.solve(c, rhs), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("c", [np.zeros((3, 3)), -np.eye(3)], ids=["zero", "negative"])
    def test_conjugate_gradients_stop_without_curvature(self, c):
        # p^† C p <= 0 ends a column before its step divides by that curvature.
        a, steps = amplify._conjugate_gradients(c.astype(complex), np.ones((3, 2), dtype=complex))
        assert steps == 0 and not a.any()

    def test_clean_squares_are_never_negative(self):
        # A negative squared trace would read NaN, which fails a clean record.
        circuits = [toy_circuit(m, seed=seed) for m in range(2, 9) for seed in range(3)]
        circuits += [
            build_circuit(Instance.from_graphs(EDGE2, EDGE2), adversarial_verifier(dims, 2, seed))
            for dims in [(1, 1), (2, 1), (2, 2), (4, 4)]
            for seed in range(3)
        ]
        for circ in circuits:
            b = block_decompose(circ.attempt, circ.success_proj, circ.layout)
            assert 0 <= verify_block_identities(b)[2] < TOL

    @staticmethod
    def unsplit_trace_r3(b):
        """``sqrt|tr(X^2)|`` for ``X = M Z^† Z``, ``Z = [K cross]``, ``M = diag(K^† K - I, I)``."""
        z = np.hstack([b.rest_factor, b.cross])
        m = np.eye(z.shape[1], dtype=complex)
        r = b.rest_factor.shape[1]
        m[:r, :r] = amplify._panel_gram(b.rest_factor)
        x = m @ (z.conj().T @ z)
        return np.sqrt(abs(np.trace(x @ x).real))

    def test_unsplit_trace_leaves_what_the_core_cancels(self):
        # Negative control: without the split of cross over K, the squared
        # trace sums O(1) blocks that cancel only to rounding of their size.
        circ = self.CIRCUITS["gmw-n3"]()
        b = block_decompose(circ.attempt, circ.success_proj, circ.layout)
        assert self.unsplit_trace_r3(b) >= 1e-9
        assert verify_block_identities(b)[2] <= 1e-13

    @pytest.mark.parametrize("shape", [(50, 7), (200, 129), (300, 300)])
    def test_gram_is_exactly_hermitian(self, shape):
        # A complex product K_p^† K_p need not come out exactly Hermitian
        # (OpenBLAS's does not at 50 x 7), and 129 or 300 columns end in a
        # partial column panel.
        rng = np.random.default_rng(shape[1])
        kc = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        gram = amplify._panel_gram(kc)
        assert np.array_equal(gram, gram.conj().T)
        one_shot = kc.conj().T @ kc - np.eye(shape[1])
        np.testing.assert_allclose(gram, one_shot, rtol=0, atol=1e-12 * shape[0])

    def perturbed_rest_r3(self, index):
        circ = gmw_circuit(7)
        b = self.perturbed(block_decompose(circ.attempt, circ.success_proj, circ.layout), index)
        return verify_block_identities(b)[2], np.linalg.norm(self.residuals(b)[2], ord=2)

    def test_perturbed_rest_fails_identity_three(self):
        r3, spectral = self.perturbed_rest_r3((0, 0))
        assert r3 > TOL
        assert r3 >= spectral

    def test_perturbed_last_panel_row_fails_identity_three(self):
        r3, spectral = self.perturbed_rest_r3((-1, -1))
        assert r3 > TOL
        assert r3 >= spectral


class TestSuccFailStates:
    def test_orthonormal_and_resolve_attempt_output(self):
        circ = gmw_circuit(3)
        aux = random_aux(2, 7)
        lam, succ, fail = first_measurement(circ, aux)
        assert abs(np.vdot(succ, fail)) < TOL
        recombined = np.sqrt(lam) * succ + np.sqrt(1 - lam) * fail
        assert np.linalg.norm(recombined - attempt_output(circ, aux)) < TOL

    def test_projector_eigenvectors(self):
        circ = toy_circuit(3, seed=4)
        _, succ, fail = first_measurement(circ, random_aux(2, 8))
        p = circ.success_proj
        assert np.linalg.norm(p.apply_to(circ.layout, succ) - succ) < TOL
        assert np.linalg.norm(p.apply_to(circ.layout, fail)) < TOL

    @staticmethod
    def always_succeeding_circuit():
        circ = toy_circuit(2, seed=5)
        full = DiagonalOp(circ.layout, ("A", "B"), np.ones(4), kind="projector")
        return SimulatorCircuit(circ.layout, circ.attempt, full)

    def test_boundary_rejected(self):
        degenerate = self.always_succeeding_circuit()
        with pytest.raises(ValueError):
            first_measurement(degenerate, random_aux(2, 9))

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
        lam, succ, fail = first_measurement(circ, aux)
        state = attempt_output(circ, aux)
        two_dim = evolve_two_dim(lam, [])
        rng = np.random.default_rng(15)
        for _ in range(10):
            phases = PhasePair(np.exp(1j * rng.uniform(0, 2 * np.pi)),
                               np.exp(1j * rng.uniform(0, 2 * np.pi)))
            state = grover_step(circ, phases.phi, phases.varphi).apply_to(circ.layout, state)
            two_dim = subspace_matrix(lam, phases) @ two_dim
            reconstructed = two_dim[0] * succ + two_dim[1] * fail
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
        k, pair, residual = found
        assert k == 1
        assert residual == final_fail_amplitude(1 / 3, k, pair) < TOL

    def test_full_space_verification_gmw(self):
        circ = gmw_circuit(4)
        pair = solve_phases(0.5, 1)
        p = full_space_success_after(circ, random_aux(2, 16), [pair])
        assert abs(p - 1.0) < TOL

    def test_full_space_verification_toy(self):
        circ = toy_circuit(3, seed=8)
        k, pair, _ = smallest_feasible_k(1 / 3)
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


# The benchmark's phases grid, and a lambda whose search runs to k = 248.
BENCH_LAMBDAS = [0.001, 0.01, 0.03, 0.1, 0.2, 0.25, 0.5, 0.9]


class TestPhaseSearch:
    @pytest.mark.parametrize("lam", SOLVER_LAMBDAS + BENCH_LAMBDAS + [1e-5])
    def test_matches_quadratic_search_bit_for_bit(self, lam):
        k, pair, residual = smallest_feasible_k(lam, 300)
        assert (k, pair, residual) == quadratic_feasible_k(lam, 300)
        assert pair == solve_phases(lam, k)
        assert residual == final_fail_amplitude(lam, k, pair)

    @pytest.mark.parametrize("lam", [0.5, 1e-3, 1e-5])
    def test_one_pass_takes_order_k_steps(self, monkeypatch, lam):
        # Each plain state is one 2x2 step; each phased certificate builds one step matrix.
        original_states, original_matrix = amplify._plain_grover_states, amplify.subspace_matrix
        counts = {"plain": 0, "matrix": 0}

        def states(lam):
            for state in original_states(lam):
                counts["plain"] += 1
                yield state

        def matrix(*args):
            counts["matrix"] += 1
            return original_matrix(*args)

        monkeypatch.setattr(amplify, "_plain_grover_states", states)
        monkeypatch.setattr(amplify, "subspace_matrix", matrix)
        k, _, _ = smallest_feasible_k(lam, 300)
        assert k == analytic_k(lam)
        assert counts == {"plain": k, "matrix": k + 1}

    def test_analytic_k_matches_the_boundaries(self):
        for lam in SOLVER_LAMBDAS + BENCH_LAMBDAS:
            assert analytic_k(lam) == max(1, analytic_k_min(lam))
        lams = (0.9, 0.5, 0.25, 0.1, 1e-5, 1e-8)
        assert [analytic_k(lam) for lam in lams] == [1, 1, 1, 2, 248, 7854]
        assert amplify.feasibility_boundary(0) == 1.0
        assert amplify.feasibility_boundary(1) == pytest.approx(0.25, abs=1e-16)
        for k in range(1, 10):
            want = feasibility_boundary(k)
            assert amplify.feasibility_boundary(k) == pytest.approx(want, rel=1e-14)

    def test_search_stops_at_k_max(self):
        assert smallest_feasible_k(0.05, 1) is None
        assert quadratic_feasible_k(0.05, 1) is None


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
