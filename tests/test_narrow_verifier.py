"""The adversarial verifier drawn on its start columns only.

Every view and identity reads ``U_V`` through its start columns
``|w, V=0, A=0, Y=code>``, with ``code`` in the orbit of g0: the Grover step
``A S0(phi) A†`` is ``I + (phi - 1)(A Pi0)(A Pi0)†``.  So a verifier that
is Haar on those s columns and the identity on most of the rest must give
the same views and the same pass flags as any unitary that agrees with it
there.  These tests compose the drawn verifier with a Haar unitary on the
complement of its start columns and compare, check the drawn operator
against the dense Haar draw at n <= 3, and check the start block's Grams,
read from the reflectors or from the applied verifier, against those of the
formed start columns.
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from zkamp import cli, protocol
from zkamp.protocol import (
    Instance,
    VerifierModel,
    adversarial_verifier,
    honest_verifier,
    random_aux,
    real_view_recorded,
    start_block,
    start_columns,
    view_layout,
)
from zkamp.registers import HouseholderOp, LinearOp, OpChain, haar_random_op
from zkamp.simulator import build_circuit, simulate_round_recorded
from zkamp.symm import Graph, num_graph_codes, orbit_codes

from oracles import (
    challenge_halves,
    haar_random_unitary,
    kron_oracle,
    start_outputs,
    to_matrix,
    unflatten,
)

INSTANCES = {
    2: Instance.from_graphs(Graph(2, [(0, 1)]), Graph(2, [(0, 1)])),
    3: Instance.from_graphs(Graph(3, [(0, 1), (1, 2)]), Graph(3, [(0, 1), (0, 2)])),
}
N3 = ["--n", "3", "--g0", "01,12", "--g1", "01,02"]
AGREE = 1e-13


def completed(ver: VerifierModel, seed: int) -> VerifierModel:
    """``ver`` after a Haar unitary on the complement of its start columns, which it keeps."""
    u = ver.u_v
    side = len(u.order)
    inputs, rest = u.order[: u.columns], u.order[u.columns :]
    block = np.zeros((side, side), dtype=complex)
    block[inputs, inputs] = 1.0
    block[np.ix_(rest, rest)] = haar_random_unitary(len(rest), seed)
    return VerifierModel(ver.dims, OpChain((LinearOp(u.layout, u.targets, block), u)))


def adjoint(ver: VerifierModel) -> VerifierModel:
    return VerifierModel(ver.dims, ver.u_v.adjoint())


def assert_same_blocks(view, other):
    assert set(view.blocks) == set(other.blocks)
    for key, factor in view.blocks.items():
        np.testing.assert_allclose(factor, other.blocks[key], rtol=0, atol=AGREE)


class TestStartColumns:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (3, 2)])
    def test_columns_are_the_start_states_of_the_orbit(self, n, dims):
        layout = view_layout(dims, n)
        codes = orbit_codes(INSTANCES[n].g0)
        columns = start_columns(layout, codes)
        assert len(columns) == dims[0] * len(set(codes))
        states = {unflatten(layout, int(c)) for c in columns}
        assert states == {(w, 0, 0, code) for w in range(dims[0]) for code in codes}

    def test_default_is_every_y_code(self):
        ver = adversarial_verifier((3, 2), 3, seed=1)
        assert ver.u_v.columns == 3 * num_graph_codes(3)

    def test_refuses_codes_outside_the_graph_register(self):
        with pytest.raises(ValueError, match="Y codes must be in 0..7"):
            adversarial_verifier((2, 2), 3, seed=1, codes=[3, 8])

    @pytest.mark.parametrize(
        "n, dims, panels",
        [(2, (2, 2), 1), (3, (2, 2), 1), (4, (2, 2), 1), (5, (4, 1), 4)],
        ids=["n2", "n3", "n4", "n5-4x1"],
    )
    def test_grams_are_those_of_the_challenge_halves(self, monkeypatch, n, dims, panels):
        # A draw on exactly the start columns gives both halves' Grams from its reflectors
        # (input_grams); any other verifier is applied to the basis columns.  Either way the
        # triangles' Grams are those of the halves the oracle forms, and they sum to I.
        path = Graph(n, [(v, v + 1) for v in range(n - 1)])
        codes = Instance.from_graphs(path, path).codes[0]
        layout = view_layout(dims, n)
        on_orbit = adversarial_verifier(dims, n, 7, codes)
        assert -(-on_orbit.u_v.columns // 64) == panels
        cases = [(on_orbit, codes, True), (adjoint(on_orbit), codes, False)]
        cases.append((honest_verifier(dims, n), codes, False))
        if n < 5:
            # The verifier on every Y code is the one the benchmark's negative control draws,
            # and reads on the orbit's start block.
            every, all_codes = adversarial_verifier(dims, n, 7), range(num_graph_codes(n))
            full = VerifierModel(dims, haar_random_op(layout, layout.names, 5))
            assert full.u_v.order is None
            cases += [(every, all_codes, True), (adjoint(every), all_codes, False)]
            cases += [(every, codes, False), (full, codes, False), (adjoint(full), codes, False)]
        read, grams = [], HouseholderOp.input_grams
        monkeypatch.setattr(
            HouseholderOp, "input_grams", lambda op, *a: read.append(op) or grams(op, *a)
        )
        for ver, drawn, from_reflectors in cases:
            read.clear()
            triangles = start_block(ver, n, drawn).triangles
            assert read == ([ver.u_v] if from_reflectors else [])
            halves = challenge_halves(ver, n, drawn)
            reference = halves.conj().swapaxes(1, 2) @ halves
            formed = triangles.conj().swapaxes(1, 2) @ triangles
            assert np.max(np.abs(formed - reference)) <= 1e-14
            assert np.max(np.abs(formed.sum(axis=0) - np.eye(triangles.shape[-1]))) <= 1e-14
        with pytest.raises(ValueError, match="not of its adjoint"):
            adjoint(on_orbit).u_v.input_grams(dims[0] * dims[1], 2)


class TestDenseOracle:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (2, 3)])
    def test_start_columns_of_the_dense_haar_draw(self, n, dims):
        seed = 10 * n + dims[1]
        codes = orbit_codes(INSTANCES[n].g0)
        ver = adversarial_verifier(dims, n, seed, codes)
        layout = view_layout(dims, n)
        u = to_matrix(ver.u_v, layout)
        s = ver.u_v.columns
        side = layout.total_dim
        inputs = start_columns(layout, codes)
        np.testing.assert_array_equal(ver.u_v.order[:s], inputs)
        np.testing.assert_allclose(u, kron_oracle(ver.u_v, layout), atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(side), atol=1e-12)
        np.testing.assert_allclose(
            u[:, inputs][ver.u_v.order], haar_random_unitary(side, seed)[:, :s], atol=1e-12
        )
        moved = np.linalg.svd(u - np.eye(side), compute_uv=False)
        assert np.count_nonzero(moved > 1e-10) <= 2 * s
        aux = random_aux(dims[0], seed + 1)
        outputs = start_outputs(ver, n, codes)
        np.testing.assert_allclose(outputs, u[:, inputs], atol=1e-12)
        outs = np.tensordot(aux.amps, outputs.reshape(side, dims[0], -1), axes=(0, 1))
        outs = outs[:, start_block(ver, n, codes).columns(codes)]
        for col, code in zip(outs.T, codes):
            start = np.kron(aux.amps, np.eye(side // dims[0])[code])
            np.testing.assert_allclose(col, u @ start, atol=1e-12)


class TestEquivalence:
    """A unitary that agrees on the start columns gives the same views and pass flags."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("keep_z", [False, True])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_real_and_simulated_view_blocks(self, n, keep_z, seed):
        inst = INSTANCES[n]
        ver = adversarial_verifier((2, 2), n, seed, orbit_codes(inst.g0))
        other = completed(ver, seed + 100)
        aux = random_aux(2, seed + 200)
        assert_same_blocks(
            real_view_recorded(inst, ver, aux, keep_z), real_view_recorded(inst, other, aux, keep_z)
        )
        views = [
            simulate_round_recorded(build_circuit(inst, verifier), aux, keep_z)
            for verifier in (ver, other)
        ]
        assert_same_blocks(*views)
        assert views[0].trace_distance(real_view_recorded(inst, ver, aux, keep_z)) <= AGREE

    @pytest.mark.parametrize("command", ["verify-eq1", "verify-eq2", "watrous", "blocks", "zk-check"])
    def test_cli_pass_flags(self, monkeypatch, command):
        argv = [command, *N3, "--trials", "2", "--seed", "11"]
        reports = [_report(argv)]
        draw = protocol.adversarial_verifier

        def completed_draw(dims, n, seed, codes=None):
            return completed(draw(dims, n, seed, codes), seed)

        monkeypatch.setattr(protocol, "adversarial_verifier", completed_draw)
        reports.append(_report(argv))
        flags = [[(rec["name"], rec["pass"]) for rec in report["records"]] for report in reports]
        assert flags[0] == flags[1]
        # The completed verifier is an operator chain, which reports no drawn columns.
        drawn = [{rec.get("verifier_columns") for rec in report["records"]} for report in reports]
        assert drawn[0] >= {6} and drawn[1] == {None}
        assert all(passed for _, passed in flags[0])


def _report(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.run(argv) == 0
    return json.loads(out.getvalue())
