"""Report runner: exit codes, determinism, and record contents."""

import dataclasses
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import zkamp
from zkamp import amplify, cli, protocol, registers, simulator, symm
from zkamp.cli import (
    MAX_SCHEDULE_STEPS,
    build_parser,
    dump_json,
    near_record,
    record,
    run,
    trial_seeds,
)
from zkamp.registers import BYTE_BUDGET, WORK_BUDGET, DiagonalOp, OpChain
from zkamp.symm import parse_graph_literal

from oracles import watrous_round

N3 = ["--n", "3", "--g0", "01,12", "--g1", "01,02"]
N4 = ["--n", "4", "--g0", "01,12,23", "--g1", "03,12,20"]
# The n = 6 path pair, whose orbit has 360 codes.
N6_PATH = ("n=6;edges=01,12,23,34,45", "n=6;edges=02,21,13,34,45")
ZK_ARGS = ["zk-check", "--n", "3", "--g0", "01,12", "--g1", "01,02", "--trials", "5", "--seed", "7"]

# The flags each command's handler reads; every command also takes --seed and --out.
GRAPH_FLAGS = ("--n", "--g0", "--g1", "--trials", "--completion", "--dim-w", "--dim-v")
READS = {
    "verify-eq1": GRAPH_FLAGS,
    "verify-eq2": GRAPH_FLAGS,
    "zk-check": GRAPH_FLAGS + ("--verifier", "--keep-z"),
    "watrous": GRAPH_FLAGS,
    "blocks": GRAPH_FLAGS + ("--m",),
    "schedule": ("--m", "--dim-w", "--dim-v", "--steps"),
    "phases": ("--lambdas", "--k-max"),
}
FLAG_VALUES = {
    "--n": ["3"],
    "--g0": ["01,12"],
    "--g1": ["01,02"],
    "--m": ["4"],
    "--trials": ["1"],
    "--completion": ["dft"],
    "--dim-w": ["2"],
    "--dim-v": ["2"],
    "--verifier": ["honest"],
    "--keep-z": [],
    "--lambdas": ["0.5"],
    "--k-max": ["4"],
    "--steps": ["2"],
}


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def strip_timings(text: str) -> str:
    return re.sub(r'"timings": \{[^}]*\}', '"timings": {}', text)


class TestExitCodes:
    def test_zk_check_example(self, capsys):
        code, out = run_capture(capsys, ZK_ARGS)
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        view_records = [r for r in report["records"] if r["claim"] == "view-equality"]
        assert len(view_records) == 5
        for rec in view_records:
            assert rec["value"] <= 1e-10
            assert rec["transcript"]["accepted"] is True

    def test_verify_eq1_example(self, capsys):
        code, out = run_capture(
            capsys,
            ["verify-eq1", "--n", "2", "--g0", "01", "--g1", "01", "--trials", "1", "--seed", "1"],
        )
        assert code == 0
        report = json.loads(out)
        assert all(r["value"] <= 1e-10 for r in report["records"])

    def test_non_isomorphic_is_config_error(self, capsys):
        code = run(["zk-check", "--n", "3", "--g0", "01,12", "--g1", "01"])
        assert code == 2
        assert capsys.readouterr().err.count("not isomorphic") == 1

    def test_bad_literal_is_config_error(self, capsys):
        code = run(["zk-check", "--n", "3", "--g0", "0x", "--g1", "01,02"])
        assert code == 2

    def test_n_too_large_is_config_error(self, capsys):
        # n=5 fits the budgets at dims 2x2.  The n=6 path pair needs 1.09 GiB even at dims 1x1:
        # its draw alone counts 3 arrays of 360 MiB, on the 360 columns of its orbit.
        argv = ["zk-check", "--g0", N6_PATH[0], "--g1", N6_PATH[1], "--dim-w", "1", "--dim-v", "1"]
        code = run(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "needs 1.09 GiB" in err and "above the budgets" in err
        assert "its 65536x360 start block" in err

    def test_trials_must_be_positive(self, capsys):
        code = run(["verify-eq1", "--n", "2", "--g0", "01", "--g1", "01", "--trials", "0"])
        assert code == 2

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--k-max", "0"], "--k-max must be >= 1"),
            (["--lambdas", ","], "at least one value"),
            (["--lambdas", "0.5,1.5"], "must be in (0, 1), got 1.5"),
            (["--lambdas", "0.25,0.5,2.5e-1"], "repeats a value"),
        ],
    )
    def test_bad_phases_input_refused_before_solving(self, capsys, monkeypatch, options, message):
        def never(*args, **kwargs):
            raise AssertionError("no phase may be solved for a refused configuration")

        monkeypatch.setattr(amplify, "smallest_feasible_k", never)
        assert run(["phases", *options]) == 2
        assert message in capsys.readouterr().err

    def test_failed_check_exits_one(self, capsys):
        # A step budget of k=1 cannot amplify lambda = 0.05 exactly.
        code, out = run_capture(
            capsys, ["phases", "--lambdas", "0.05", "--k-max", "1", "--seed", "0"]
        )
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["records"][0]["single_step_feasible"] is False

    def test_oversize_blocks_refused_before_building(self, capsys, monkeypatch):
        # 2*2*70^2 = 19600 exceeds the dense embedding limit; the refusal must
        # come from the dimension alone, before the circuit exists.
        def never(*args, **kwargs):
            raise AssertionError("toy_circuit must not be built")

        monkeypatch.setattr(amplify, "toy_circuit", never)
        assert run(["blocks", "--m", "70"]) == 2
        err = capsys.readouterr().err
        assert "19600" in err

    def test_oversize_gmw_blocks_refused(self, capsys):
        # The n=3 simulator layout at dims 8x8 is 8*8*2*8*2*6 = 12288.
        argv = ["blocks", "--n", "3", "--g0", "01,12", "--g1", "01,02"]
        assert run(argv + ["--dim-w", "8", "--dim-v", "8"]) == 2
        assert "12288" in capsys.readouterr().err


class TestFlags:
    """Each command takes exactly the flags its handler reads."""

    def test_parser_matches_the_table(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        taken = {
            name: {flag for flag in p._option_string_actions if flag.startswith("--")} - {"--help"}
            for name, p in subparsers.items()
        }
        assert taken == {name: {*reads, "--seed", "--out"} for name, reads in READS.items()}
        assert sum(map(len, taken.values())) == 58

    @pytest.mark.parametrize(
        "command, flag",
        [(cmd, flag) for cmd, reads in READS.items() for flag in FLAG_VALUES if flag not in reads],
    )
    def test_flag_not_read_exits_two(self, capsys, command, flag):
        assert run([command, flag, *FLAG_VALUES[flag]]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["blocks", "--n", "3", "--completion", "qr"], "invalid choice: 'qr'"),
            (["schedule", "--m", "three"], "invalid int value: 'three'"),
        ],
        ids=["choice", "integer"],
    )
    def test_argparse_refusal_returns_two(self, capsys, argv, message):
        assert run(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["phases", "--help"]], ids=" ".join)
    def test_help_returns_zero(self, capsys, argv):
        assert run(argv) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra",
        [["--n", "3"], ["--g0", "01,12"], ["--g1", "01,02"], ["--completion", "householder"]],
        ids=lambda extra: extra[0],
    )
    def test_blocks_m_refuses_graph_flags(self, capsys, monkeypatch, extra):
        def never(*args, **kwargs):
            raise AssertionError("toy_circuit must not be built")

        monkeypatch.setattr(amplify, "toy_circuit", never)
        assert run(["blocks", "--m", "4", *extra]) == 2
        err = capsys.readouterr().err
        assert "blocks --m" in err and extra[0] in err

    def test_config_keeps_every_key_for_flags_not_taken(self, capsys):
        _, out = run_capture(capsys, ["phases", "--lambdas", "0.5"])
        config = json.loads(out)["config"]
        assert config == {
            "command": "phases",
            "n": None,
            "m": None,
            "trials": 1,
            "seed": 0,
            "dims": [2, 2],
            "g0": None,
            "g1": None,
            "completion": "householder",
            "out": None,
            "lambdas": [0.5],
            "k_max": 64,
        }
        assert list(config) == [
            "command", "n", "m", "trials", "seed", "dims", "g0", "g1", "completion", "out",
            "lambdas", "k_max",
        ]
        assert '"config": {"command": "phases", "n": null, "m": null, "trials": 1' in out

    @pytest.mark.parametrize("seed", ["7", "11", "12345"])
    def test_schedule_steps_at_the_bound_pass(self, capsys, seed):
        argv = ["schedule", "--m", "3", "--steps", str(MAX_SCHEDULE_STEPS), "--seed", seed]
        code, out = run_capture(capsys, argv)
        assert code == 0
        records = json.loads(out)["records"]
        assert all(r["pass"] for r in records)
        assert len(records[-1]["schedule"]) == MAX_SCHEDULE_STEPS

    def test_schedule_steps_above_the_bound_refused_before_building(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("toy_circuit must not be built")

        monkeypatch.setattr(amplify, "toy_circuit", never)
        assert run(["schedule", "--m", "3", "--steps", str(MAX_SCHEDULE_STEPS + 1)]) == 2
        err = capsys.readouterr().err
        assert f"at most {MAX_SCHEDULE_STEPS}, got {MAX_SCHEDULE_STEPS + 1}" in err
        assert "(succ, fail) plane" in err

    def test_full_schedule_drifts_past_the_bound(self):
        # The reason for the bound: the full-space schedule loses the 2D
        # schedule at m = 3 within a few steps past it.
        lam, steps = 1.0 / 3, 2 * MAX_SCHEDULE_STEPS
        circ = amplify.toy_circuit(3, (2, 2), trial_seeds(7, 0)[0])
        full = amplify.iterative_schedule_full(circ, protocol.random_aux(2, 8), steps)
        two_dim = amplify.iterative_schedule(lam, steps)
        gaps = [abs(a - b) for a, b in zip(full, two_dim)]
        assert max(gaps[:MAX_SCHEDULE_STEPS]) <= 1e-10 < max(gaps)


class TestRecords:
    def test_name_is_claim_with_label(self):
        assert record("c", "trial=0", 0.0, 1e-10, True)["name"] == "c[trial=0]"
        assert record("c", None, 0.0, 1e-10, True)["name"] == "c"

    def test_near_record_echoes_its_target(self):
        rec = near_record("c", None, 0.5 + 2e-10, 0.5, echo="expected", note="x")
        assert list(rec) == ["name", "claim", "value", "tolerance", "pass", "expected", "note"]
        assert rec["pass"] is False
        assert near_record("c", None, 0.5 + 5e-11, 0.5)["pass"] is True


class TestOversizeRefusals:
    """Every command refuses a run above the byte or work budget from its layouts alone."""

    @pytest.fixture(autouse=True)
    def no_dense_builds(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an oversize operator must not be built")

        for module, name in (
            (protocol, "haar_random_op"),
            (amplify, "haar_random_op"),
            (protocol, "honest_verifier"),
            (protocol, "orbit_codes"),
            (simulator, "success_projector"),
            (amplify, "success_projector"),
            (amplify, "block_decompose"),
            (simulator, "build_circuit"),
            (amplify, "smallest_feasible_k"),
            (protocol.Instance, "from_graphs"),
        ):
            monkeypatch.setattr(module, name, never)

    @pytest.mark.parametrize(
        "argv, dim",
        [
            # Verifier unitary on W,V,A,Y: dim_w * dim_v * 2 * 2^(n(n-1)/2).
            (["zk-check", *N4, "--dim-w", "64", "--dim-v", "64"], 524288),
            (["zk-check", *N4, "--dim-w", "64", "--dim-v", "64", "--verifier", "honest"], 524288),
            (["verify-eq1", *N3, "--dim-w", "32", "--dim-v", "32"], 16384),
            (["verify-eq2", *N3, "--dim-w", "32", "--dim-v", "32"], 16384),
            (["watrous", *N4, "--dim-w", "8", "--dim-v", "16"], 16384),
            (["verify-eq1", "--g0", "n=6;edges=01", "--g1", "n=6;edges=23"], 262144),
            # Schedule work: 2 steps + 1 attempt applications of (m + 2 m) m^2 multiply-adds
            # each at dims 1x1, 1.0e11 at m = 1548.
            pytest.param(
                ["schedule", "--m", "1548", "--dim-w", "1", "--dim-v", "1"],
                "1e+11 multiply-adds for a dense 1548x1548 toy scramble",
                id="schedule-work-1548",
            ),
            # Attempt work: trials x (dim_w, 6 or 3 applications per trial) x (n! + 3 + 2 s) d
            # multiply-adds, (6 + 3 + 2 * 6) * 768 at n = 3, dims 2x2.
            *(
                pytest.param(
                    [command, "--n", "3", "--g0", "01,12", "--g1", "02,21", "--trials", "1000000000"],
                    f"{work} multiply-adds for a 64x64 verifier unitary",
                    id=f"{command}-trials-1e9",
                )
                for command, work in (
                    ("verify-eq1", "3.2e+13"), ("verify-eq2", "9.7e+13"), ("watrous", "4.8e+13")
                )
            ),
            # Toy scramble on W,V,A: dim_w * dim_v * m.
            (["schedule", "--m", "2", "--dim-w", "64", "--dim-v", "65"], 8320),
            (["blocks", "--m", "2", "--dim-w", "64", "--dim-v", "65"], 8320),
            # Sides at most 8192, but above the byte budget: 16 states per
            # column of W on the 393216-amplitude simulator layout at dim_w 16
            # (dims 8x8, at 0.79 GiB, fit).  zk-check holds none of them, and
            # fits there.  Conjugated projectors of 6144, 19044 and 24576 rows,
            # above the work budget as kept-rows factors: m = 69 (1.04e11
            # multiply-adds) is the first refused at dims 2x2.
            (["verify-eq2", *N4, "--dim-w", "16", "--dim-v", "4"], 8192),
            (["blocks", *N3, "--dim-w", "4", "--dim-v", "8"], 6144),
            # zk-check on the n = 6 path pair: 14 GiB for the draw and the start block on
            # 2 * 360 columns.
            (["zk-check", "--g0", N6_PATH[0], "--g1", N6_PATH[1]], 262144),
            (["blocks", "--m", "69"], 19044),
            (["blocks", *N4], 24576),
            # No dense side: one search step for each step count up to k = 2483647.
            pytest.param(
                ["phases", "--lambdas", "1e-13", "--k-max", "10000000"],
                "2.5e+11 multiply-adds for 2483647 phase-search steps, k up to 2483647",
                id="phases-1e-13",
            ),
        ],
    )
    def test_refused_with_dimension_in_message(self, capsys, argv, dim):
        assert run(argv) == 2
        expected = dim if isinstance(dim, str) else f"{dim}x{dim}"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["zk-check", "verify-eq1"])
    @pytest.mark.parametrize(
        "g0, g1, extra, refusal",
        [
            pytest.param("n=5;edges=01", "n=5;edges=02", [], None, id="n=5;edges=01-n=5;edges=02"),
            pytest.param("n=1;edges=", "n=1;edges=", [], "n must be in 2..6", id="n=1;edges=-n=1;edges="),
            pytest.param(
                "n=7;edges=01", "n=7;edges=02", [], "n must be in 2..6", id="n=7;edges=01-n=7;edges=02"
            ),
            pytest.param("n=200;edges=01", "n=200;edges=02", [], "n must be in 2..6", id="n=200"),
            pytest.param(
                "n=3;edges=01", "n=4;edges=01", [], "size mismatch: 3 vs 4", id="n=3-n=4"
            ),
            pytest.param("n=7;edges=01", "n=3;edges=01", [], "n must be in 2..6", id="n=7-n=3"),
            pytest.param(
                "n=3;edges=01", "01", ["--n", "4"], "disagrees with --n 4", id="literal-n=3-against-n=4"
            ),
        ],
    )
    def test_literal_vertex_count_checked(self, capsys, command, g0, g1, extra, refusal):
        # Without --n the vertex count comes from the literals alone.  n=5 fits
        # both budgets at dims 2x2 (its verifier is drawn on 2 * 10 columns);
        # n=1 and n=7 are outside 2..6, past S_n's range for n=7, and n=200's
        # verifier size has thousands of digits.  A pair whose literals disagree
        # with each other or with --n is refused where it is parsed.
        argv = [command, "--g0", g0, "--g1", g1, *extra]
        if refusal is None:
            cfg = cli.config_from_args(build_parser().parse_args(argv))
            peak, work, what = cli.estimate(cfg, 5)
            assert peak <= BYTE_BUDGET and work <= WORK_BUDGET
            assert "8192x8192 verifier unitary drawn as 8192x20 reflectors" in what
            return
        assert run(argv) == 2
        assert refusal in capsys.readouterr().err

    def test_five_vertices_at_dim_w_4(self, capsys):
        # verify-eq1 holds 16 states of the 3.9e6-amplitude simulator layout per
        # column of W; zk-check holds only its 16384 x 40 start block beside them.
        argv = ["--g0", "n=5;edges=01", "--g1", "n=5;edges=02", "--dim-w", "4"]
        assert run(["verify-eq1", *argv]) == 2
        assert "16384x16384" in capsys.readouterr().err
        cfg = cli.config_from_args(build_parser().parse_args(["zk-check", *argv]))
        peak, work, what = cli.estimate(cfg, 5)
        assert peak <= BYTE_BUDGET and work <= WORK_BUDGET
        assert "its 16384x40 start block" in what


def test_blocks_never_builds_the_dense_attempt_matrix(capsys):
    # Building the 768x768 attempt matrix peaks at four d^2 complex matrices;
    # its kept rows, their factor and the residual panels stay under 2.5.
    d = 768
    tracemalloc.start()
    try:
        code = run(["blocks", *N3, "--seed", "7"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= 2.5 * 16 * d**2


@pytest.mark.parametrize(
    "argv, spare",
    [
        (["blocks", *N3], 0.125),
        (["blocks", "--n", "2", "--g0", "01", "--g1", "01"], 1.2),
        (["blocks", "--m", "8"], 1.1),
        (["blocks", "--m", "30"], 0.125),
    ],
)
def test_kept_copies_bound_the_traced_decomposition(argv, spare):
    # cli.KEPT_COPIES counts the d x r blocks of kept attempt rows that
    # block_decompose holds at once where every factor has a no-move form:
    # one factor's input and its product, the verifier or scramble acting on
    # its own side's basis vectors only (traced: 2.01 blocks at n = 3 and
    # 2.02 at m = 30).  The estimate counts one more block for the stored
    # factor, which is not yet allocated then; a small block's moved copies
    # fit in it (3.18 blocks at n = 2, and 3.04 at m = 8, where the B split
    # of 8 x 32 amplitudes per product moves its axes).
    cfg = cli.config_from_args(build_parser().parse_args([*argv, "--seed", "7"]))
    if cfg.m is None:
        (_, _, circ), = cli._trials(cfg, cli.build_instance(cfg))
    else:
        circ = amplify.toy_circuit(cfg.m, cfg.dims, 7)
    d = circ.layout.total_dim
    r = d // circ.layout.dim_of("A")
    tracemalloc.start()
    try:
        amplify.block_decompose(circ.attempt, circ.success_proj, circ.layout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (cli.KEPT_COPIES + spare) * 16 * d * r


def test_blocks_holds_the_rest_block_as_its_factor(capsys):
    # d = 3600, r = 120: a dense 3600x3600 rest block alone would be 198 MiB;
    # the whole command, with the factor and the residual panels, traces 22.
    argv = ["blocks", "--m", "30", "--seed", "7"]
    estimated, _, _ = cli.estimate(cli.config_from_args(build_parser().parse_args(argv)), None)
    tracemalloc.start()
    try:
        code = run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= 64 * 2**20
    assert peak <= estimated


def test_zk_check_at_six_vertices_stays_under_its_estimate(capsys):
    # The writer holds its 2 n! codes, so the single-edge n = 6 pair runs at dims 1x1: its
    # draw and 65536 x 15 start block trace 54 MiB, under the 79 MiB estimate.
    argv = ["zk-check", "--g0", "n=6;edges=01", "--g1", "n=6;edges=23", "--dim-w", "1"]
    argv += ["--dim-v", "1", "--keep-z", "--seed", "7"]
    estimated, _, _ = cli.estimate(cli.config_from_args(build_parser().parse_args(argv)), 6)
    tracemalloc.start()
    try:
        code = run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["claim"] for r in report["records"]] == ["view-equality"]
    assert report["records"][0]["value"] <= registers.ATOL_OP
    assert peak <= estimated


def test_wide_zk_check_never_draws_the_full_verifier():
    # A full 1024x1024 Householder draw is 16 MiB of reflectors and peaks at
    # twice that; the 24 start columns of the n=3 orbit at dim_w 8 need 1.2 MiB.
    d = 1024
    tracemalloc.start()
    try:
        code, _, _ = _silent(["zk-check", *N3, "--dim-w", "8", "--dim-v", "8", "--seed", "7"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 0.5 * 16 * d**2


def test_five_vertices_fit_the_estimate():
    # The view layout has 8192 rows; the verifier is drawn on 2 * 60 of them.
    argv = ["zk-check", "--g0", "n=5;edges=01,12,23,34", "--g1", "n=5;edges=02,21,13,34"]
    argv += ["--seed", "7"]
    cfg = cli.config_from_args(build_parser().parse_args(argv))
    estimated, work, what = cli.estimate(cfg, 5)
    assert estimated <= BYTE_BUDGET and work <= WORK_BUDGET
    assert "8192x8192 verifier unitary drawn as 8192x120 reflectors" in what
    tracemalloc.start()
    try:
        code, out, _ = _silent(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= estimated
    (rec,) = json.loads(out)["records"]
    assert rec["value"] <= 1e-10 and rec["verifier_columns"] == 120


def test_five_vertices_run_at_dims_4x1():
    # 16 states per column of W of the simulator's layout were 1.97 GiB here;
    # zk-check holds the 8192 x 240 start block and s-row view factors instead.
    argv = ["zk-check", "--g0", "n=5;edges=01,12,23,34", "--g1", "n=5;edges=02,21,13,34"]
    argv += ["--dim-w", "4", "--dim-v", "1", "--keep-z", "--seed", "7"]
    estimated, _, what = cli.estimate(cli.config_from_args(build_parser().parse_args(argv)), 5)
    assert "its 8192x240 start block" in what
    tracemalloc.start()
    try:
        code, out, _ = _silent(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= estimated
    (rec,) = json.loads(out)["records"]
    assert rec["name"] == "view-equality[trial=0]" and rec["pass"] and rec["value"] <= 1e-10


@pytest.mark.parametrize(
    "g0, g1, dims",
    [
        ("n=5;edges=01,12,23,34", "n=5;edges=02,21,13,34", (2, 2)),
        ("n=5;edges=01,12,23,34", "n=5;edges=02,21,13,34", (4, 1)),
        ("n=6;edges=01", "n=6;edges=23", (2, 2)),
    ],
    ids=["n5-2x2", "n5-4x1", "n6-2x2"],
)
def test_draw_and_start_block_fit_their_copies(g0, g1, dims):
    # The start block takes its two halves' Grams from the reflectors: beside the held
    # reflectors it holds one half of a chunk of GRAM_ROWS of their rows, that half's
    # conjugate, a side-long mask and 8 s x s arrays, under half a side x s array, where
    # forming its columns took 2.
    # The draw holds the reflectors in DRAW_COPIES arrays.
    g0, g1 = parse_graph_literal(g0), parse_graph_literal(g1)
    codes = protocol.Instance.from_graphs(g0, g1).codes[0]
    s, side = dims[0] * len(set(codes.tolist())), protocol.view_layout(dims, g0.n).total_dim
    array = 16 * side * s
    tracemalloc.start()
    try:
        ver = protocol.adversarial_verifier(dims, g0.n, 7, codes)
        held, draw_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        protocol.start_block(ver, g0.n, codes)
        _, block_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert draw_peak <= cli.DRAW_COPIES * array + cli.BASE_BYTES
    assert block_peak - held <= 16 * (2 * registers.GRAM_ROWS + 8 * s) * s + side + cli.BASE_BYTES
    assert block_peak - held <= 0.5 * array


def test_start_block_reads_one_half_of_a_chunk_at_a_time():
    # At n = 3, dims 8x8 (zk-n3-wide) the 1024 reflector rows are one chunk of GRAM_ROWS.
    # Beside the held reflectors the start block holds one challenge half of it and that
    # half's conjugate (traced 1.08 d x s arrays), where the chunk and its masked
    # conjugate took 2.10.
    g0, g1 = parse_graph_literal("n=3;edges=01,12"), parse_graph_literal("n=3;edges=01,02")
    codes = protocol.Instance.from_graphs(g0, g1).codes[0]
    ver = protocol.adversarial_verifier((8, 8), 3, 7, codes)
    side, s = ver.u_v.reflectors.shape
    assert side <= registers.GRAM_ROWS
    tracemalloc.start()
    try:
        protocol.start_block(ver, 3, codes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 16 * side * s


@pytest.mark.parametrize("dims", [(2, 2), (4, 1)], ids=["n5-2x2", "n5-4x1"])
def test_applied_start_block_holds_its_outputs_and_one_more_array(dims):
    # A verifier not drawn on exactly the start columns is applied to them.  Beside its side x s
    # outputs the start block holds their input columns while it acts, and then one half of a
    # chunk of GRAM_ROWS output rows and that half's conjugate while the two halves' Grams are
    # read; copying each half and its conjugate held 1.5 arrays more.
    g0 = parse_graph_literal("n=5;edges=01,12,23,34")
    codes = protocol.Instance.from_graphs(g0, g0).codes[0]
    s, side = dims[0] * len(set(codes.tolist())), protocol.view_layout(dims, 5).total_dim
    array = 16 * side * s
    ver = protocol.honest_verifier(dims, 5)
    tracemalloc.start()
    try:
        protocol.start_block(ver, 5, codes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - array <= array + 16 * (2 * registers.GRAM_ROWS + 8 * s) * s + side


@pytest.mark.parametrize(
    "argv",
    [["zk-check", *N4, "--keep-z", "--trials", "1"], ["verify-eq2", *N4, "--trials", "1"]],
)
def test_relabeling_tables_built_once(monkeypatch, argv):
    # cli.estimate sizes g0's orbit before any Instance exists (1 orbit_codes, which
    # builds S_n through enumerate_sn); from_graphs builds S_n once more (1
    # enumerate_sn), builds both orbits (2 orbit_codes) to find the witness and
    # hands its S_n and code table to the Instance.  The wrapper sits on symm's own name,
    # so the build inside orbit_codes is counted too.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("enumerate_sn", "orbit_codes"):
        original = getattr(symm, name)
        for module in (zkamp, registers, symm, protocol, simulator, amplify, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    code, _, _ = _silent([*argv, "--seed", "7"])
    assert code == 0
    assert calls == {"enumerate_sn": 2, "orbit_codes": 3}, calls


FIRST_RUN = """
import io, json, sys, tracemalloc
from contextlib import redirect_stdout
from zkamp import cli
argv = sys.argv[1:]
tracemalloc.start()
with redirect_stdout(io.StringIO()):
    code = cli.run(argv)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
print(json.dumps([code, peak, cli.estimate(cfg, cfg.n)[0], "numpy.ma" in sys.modules]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["zk-check", "--n", "2", "--g0", "01", "--g1", "01", "--dim-w", "1", "--dim-v", "1"],
        ["blocks", "--n", "2", "--g0", "01", "--g1", "01", "--dim-w", "1", "--dim-v", "1"],
        ["schedule", "--m", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_first_command_of_a_process_fits_the_estimate(argv):
    # A process's first command also pays for numpy's lazy imports, which a
    # warm process never shows.  np.unique without return flags would import
    # numpy.ma (about 13 ms) there; the verifier's start columns avoid it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_RUN, *argv, "--seed", "7"],
        capture_output=True, text=True, env=env, check=True,
    )
    code, peak, estimated, masked_arrays = json.loads(proc.stdout)
    assert code == 0
    assert peak <= estimated
    assert not masked_arrays


def _silent(argv):
    """``run(argv)`` with its output captured: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestVerifierColumns:
    """Records built from an adversarial verifier carry the s columns it drew."""

    @pytest.mark.parametrize(
        "argv, adversarial",
        [
            (["verify-eq1", *N3, "--trials", "2"], 2),
            (["verify-eq2", *N3, "--trials", "2"], 6),
            (["watrous", *N3, "--trials", "2"], 4),
            (["zk-check", *N3, "--trials", "2", "--keep-z"], 2),
            (["blocks", *N3], 7),
            (["zk-check", *N4, "--dim-w", "3"], 1),
        ],
    )
    def test_adversarial_records_carry_s(self, capsys, argv, adversarial):
        _, out = run_capture(capsys, argv)
        report = json.loads(out)
        dim_w = report["config"]["dims"][0]
        orbit = 3 if report["config"]["n"] == 3 else 12
        columns = [rec.get("verifier_columns") for rec in report["records"]]
        assert columns.count(dim_w * orbit) == adversarial
        assert set(columns) <= {dim_w * orbit, None}

    @pytest.mark.parametrize(
        "argv",
        [["zk-check", *N3, "--verifier", "honest"], ["blocks", "--m", "3"], ["schedule", "--m", "3"]],
    )
    def test_other_records_do_not(self, capsys, argv):
        _, out = run_capture(capsys, argv)
        assert all("verifier_columns" not in rec for rec in json.loads(out)["records"])


def test_parser_built_once_per_process(capsys, monkeypatch):
    calls = Counter()
    original = cli.build_parser

    def counted():
        calls["build_parser"] += 1
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for argv in (["phases", "--lambdas", "0.5"], ["schedule", "--m", "3"], ["phases", "--m", "3"]):
            run_capture(capsys, argv)
    finally:
        cli._parser.cache_clear()
    assert calls["build_parser"] == 1
    assert build_parser() is not build_parser()


class TestTrialLoop:
    @pytest.mark.parametrize(
        "command, measurements", [("watrous", 3), ("verify-eq2", 0), ("zk-check", 0)]
    )
    def test_one_verifier_circuit_and_measurement_per_trial(
        self, capsys, monkeypatch, command, measurements
    ):
        calls = Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in (
            (protocol, "adversarial_verifier"),
            (protocol, "honest_verifier"),
            (simulator, "build_circuit"),
            (simulator, "first_measurement"),
        ):
            count(module, name)
        code, _ = run_capture(capsys, [command, *N3, "--trials", "3", "--seed", "5"])
        assert code == 0
        assert calls["adversarial_verifier"] + calls["honest_verifier"] == 3
        assert calls["build_circuit"] == 3
        assert calls["first_measurement"] == measurements


class TestVersion:
    def test_report_and_pyproject_read_the_package_version(self, capsys):
        tomllib = pytest.importorskip("tomllib")
        _, out = run_capture(capsys, ["phases", "--lambdas", "0.5", "--seed", "0"])
        assert json.loads(out)["environment"]["package_version"] == zkamp.__version__
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text())
        assert "version" not in config["project"]
        assert "version" in config["project"]["dynamic"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "zkamp.__version__"}


class TestDeterminism:
    def test_reports_byte_identical_modulo_timings(self, capsys):
        _, first = run_capture(capsys, ZK_ARGS)
        _, second = run_capture(capsys, ZK_ARGS)
        assert strip_timings(first) == strip_timings(second)

    def test_seed_changes_report(self, capsys):
        _, first = run_capture(capsys, ZK_ARGS)
        _, second = run_capture(capsys, ZK_ARGS[:-1] + ["8"])
        assert strip_timings(first) != strip_timings(second)

    def test_seed_comes_from_the_flag_alone(self, capsys, monkeypatch):
        # The environment variable that once overrode --seed is read no more.
        _, flag_based = run_capture(capsys, ZK_ARGS)
        monkeypatch.setenv("ZKAMP_SEED", "999")
        _, with_env = run_capture(capsys, ZK_ARGS)
        assert strip_timings(with_env) == strip_timings(flag_based)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        _, out = run_capture(capsys, ZK_ARGS + ["--out", str(path)])
        assert path.read_text() == out

    @pytest.mark.parametrize("where", ["missing-dir/report.json", "."])
    def test_unwritable_out_refused_before_work(self, capsys, monkeypatch, tmp_path, where):
        def never(*args, **kwargs):
            raise AssertionError("no instance may be built for a refused configuration")

        monkeypatch.setattr(cli, "build_instance", never)
        assert run(ZK_ARGS + ["--out", str(tmp_path / where)]) == 2
        assert "not a writable file path" in capsys.readouterr().err
        assert not (tmp_path / "missing-dir").exists()

    def test_negative_seed_flag_refused(self, capsys):
        argv = ["verify-eq1", *N3, "--seed", "-1"]
        assert run(argv) == 2
        assert "must be >= 0, got -1" in capsys.readouterr().err


# zk-check's benchmark lines, each with the graph it sends, and at three seeds the guess,
# challenge and relabeling of each line's transcript, as the step on one W vector drew them.
ZK_LINES = {
    "zk-n4-keepz": (["zk-check", *N4, "--keep-z"], "n=4;edges=01,12,23"),
    "zk-n3-wide": (["zk-check", *N3, "--dim-w", "8", "--dim-v", "8"], "n=3;edges=01,12"),
}
PINNED_TRANSCRIPTS = {
    ("zk-n4-keepz", 7): (1, 1, [1, 3, 2, 0]),
    ("zk-n4-keepz", 11): (1, 1, [2, 0, 1, 3]),
    ("zk-n4-keepz", 12345): (0, 0, [3, 2, 1, 0]),
    ("zk-n3-wide", 7): (1, 1, [1, 0, 2]),
    ("zk-n3-wide", 11): (1, 1, [1, 2, 0]),
    ("zk-n3-wide", 12345): (0, 0, [2, 1, 0]),
}


@pytest.mark.parametrize("line, seed", list(PINNED_TRANSCRIPTS))
def test_zk_check_benchmark_lines_keep_their_transcripts(capsys, line, seed):
    argv, sent = ZK_LINES[line]
    code, out = run_capture(capsys, [*argv, "--trials", "1", "--seed", str(seed)])
    guess, challenge, relabeling = PINNED_TRANSCRIPTS[line, seed]
    (record,) = json.loads(out)["records"]
    assert code == 0 and record["pass"] is True and record["verifier_columns"] == 24
    assert record["transcript"] == {
        "guess": guess,
        "challenge": challenge,
        "relabeling": relabeling,
        "sent": sent,
        "accepted": True,
    }
    assert record["value"] <= registers.ATOL_OP


class TestCommandContents:
    def test_verify_eq2_reports_both_orders(self, capsys):
        code, out = run_capture(
            capsys,
            ["verify-eq2", "--n", "3", "--g0", "01,12", "--g1", "01,02", "--trials", "2", "--seed", "3"],
        )
        assert code == 0
        report = json.loads(out)
        claims = {r["claim"] for r in report["records"]}
        assert claims == {
            "one-step-amplification",
            "post-step-success-probability",
            "operator-order-disambiguation",
        }
        for rec in report["records"]:
            if rec["claim"] == "operator-order-disambiguation":
                assert rec["value"] > 1e-6

    def test_watrous_records(self, capsys):
        code, out = run_capture(
            capsys,
            ["watrous", "--n", "3", "--g0", "01,12", "--g1", "02,12", "--trials", "1", "--seed", "4"],
        )
        assert code == 0
        report = json.loads(out)
        by_claim = {r["claim"]: r for r in report["records"]}
        assert abs(by_claim["first-measurement-probability"]["value"] - 0.5) <= 1e-10
        fid = by_claim["reflected-state-fidelity"]
        assert fid["value"] >= 1 - 1e-10
        # The reflection carries a global minus sign.
        assert fid["relative_phase"]["re"] == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_sampled_flag_follows_watrous_round(self, capsys, seed):
        argv = ["watrous", *N3, "--trials", "3", "--seed", str(seed)]
        _, out = run_capture(capsys, argv)
        fids = [r for r in json.loads(out)["records"] if r["claim"] == "reflected-state-fidelity"]
        inst = protocol.Instance.from_graphs(
            parse_graph_literal("n=3;edges=01,12"), parse_graph_literal("n=3;edges=01,02")
        )
        for t, rec in enumerate(fids):
            ver_seed, aux_seed, branch_seed = trial_seeds(seed, t)
            circ = simulator.build_circuit(inst, protocol.adversarial_verifier((2, 2), 3, ver_seed))
            aux = protocol.random_aux(2, aux_seed)
            succeeded, _ = watrous_round(circ, aux, np.random.default_rng(branch_seed))
            assert rec["sampled_first_measurement_succeeded"] is succeeded

    def test_reflected_sign_is_gated(self, capsys, monkeypatch):
        # Negating the start phase flips the reflected state's global sign:
        # the fidelity is still 1, but the record must fail.
        original = simulator.phase_on_start

        def flipped(layout, phi):
            op = original(layout, phi)
            return DiagonalOp(op.layout, op.targets, -op.phases)

        monkeypatch.setattr(simulator, "phase_on_start", flipped)
        code, out = run_capture(
            capsys,
            ["watrous", "--n", "3", "--g0", "01,12", "--g1", "02,12", "--trials", "1", "--seed", "4"],
        )
        assert code == 1
        fid = {r["claim"]: r for r in json.loads(out)["records"]}["reflected-state-fidelity"]
        assert fid["value"] >= 1 - 1e-10
        assert fid["relative_phase"]["re"] == pytest.approx(1.0, abs=1e-9)
        assert fid["pass"] is False

    def test_feasibility_boundary_rejects_wrong_verdict(self, capsys, monkeypatch):
        # A certificate that accepts the first step at lambda = 0.2 calls it
        # single-step feasible, contradicting the analytic boundary 1/4.
        original = amplify._fail_after

        def too_lenient(lam, state, phases):
            return 0.0 if lam == 0.2 else original(lam, state, phases)

        monkeypatch.setattr(amplify, "_fail_after", too_lenient)
        code, out = run_capture(capsys, ["phases", "--lambdas", "0.2,0.5", "--seed", "0"])
        assert code == 1
        records = json.loads(out)["records"]
        assert records[0]["k"] == 1 and records[0]["analytic_k"] == 2
        assert records[0]["pass"] is False
        boundary = records[-1]
        assert boundary["claim"] == "single-step-feasibility-boundary"
        assert boundary["pass"] is False
        assert boundary["target"] == 0.25
        assert boundary["mismatched_lambdas"] == [0.2]

    @pytest.mark.parametrize(
        "search, lam",
        [("starts-at-2", "0.5")] + [("returns-k-plus-1", lam) for lam in ("0.5", "0.1", "1e-8")],
    )
    def test_wrong_step_count_fails_analytic_gate(self, capsys, monkeypatch, search, lam):
        # Both searches return certified phases, so only the analytic band on
        # k can fail the record.
        original = amplify.smallest_feasible_k

        def wrong(lam, k_max):
            if search == "starts-at-2":
                k = next(k for k in range(2, k_max + 1) if amplify.solve_phases(lam, k))
            else:
                k = original(lam, k_max)[0] + 1
            pair = amplify.solve_phases(lam, k)
            return k, pair, amplify.final_fail_amplitude(lam, k, pair)

        monkeypatch.setattr(amplify, "smallest_feasible_k", wrong)
        argv = ["phases", "--lambdas", lam, "--k-max", "10000", "--seed", "0"]
        code, out = run_capture(capsys, argv)
        assert code == 1
        rec = json.loads(out)["records"][0]
        assert rec["value"] <= 1e-10
        assert rec["k"] != rec["analytic_k"]
        assert rec["pass"] is False

    def test_one_solver_call_per_lambda(self, capsys, monkeypatch):
        calls = []
        original = amplify.smallest_feasible_k

        def spy(lam, k_max):
            calls.append(lam)
            return original(lam, k_max)

        monkeypatch.setattr(amplify, "smallest_feasible_k", spy)
        code, _ = run_capture(capsys, ["phases", "--lambdas", "0.1,0.25,0.9", "--seed", "0"])
        assert code == 0
        assert calls == [0.1, 0.25, 0.9]

    def test_small_lambda_runs_in_one_pass(self, capsys):
        # k = 7854: about 0.2 s in one pass, refused by the work budget as a k^2/2 search.
        argv = ["phases", "--lambdas", "1e-8", "--k-max", "10000", "--seed", "0"]
        code, out = run_capture(capsys, argv)
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["k"] == rec["analytic_k"] == 7854
        assert rec["value"] <= 1e-10

    def test_feasibility_boundary_passes_on_both_sides(self, capsys):
        code, out = run_capture(
            capsys, ["phases", "--lambdas", "0.1,0.2,0.25,0.3", "--seed", "0"]
        )
        assert code == 0
        boundary = json.loads(out)["records"][-1]
        assert boundary["pass"] is True
        assert boundary["value"] == pytest.approx(0.25)
        assert boundary["target"] == 0.25

    def test_blocks_toy_expected_lambda(self, capsys):
        code, out = run_capture(capsys, ["blocks", "--m", "5", "--trials", "1", "--seed", "2"])
        assert code == 0
        report = json.loads(out)
        top = [r for r in report["records"] if r["claim"] == "scalar-top-block"][0]
        assert top["value"] == pytest.approx(0.2, abs=1e-10)
        assert top["expected"] == pytest.approx(0.2)

    def test_blocks_needs_graphs_or_m(self, capsys):
        assert run(["blocks", "--seed", "0"]) == 2

    def test_schedule_flags_discrepancy_for_m_above_two(self, capsys):
        code, out = run_capture(capsys, ["schedule", "--m", "8", "--steps", "4", "--seed", "2"])
        assert code == 0
        report = json.loads(out)
        second = [r for r in report["records"] if r["claim"] == "second-measurement-probability"][0]
        assert second["discrepancy_flagged"] is True
        assert second["value"] == pytest.approx(0.4375, abs=1e-10)
        assert second["stated_form"] == pytest.approx(0.25)
        floor = [r for r in report["records"] if r["claim"] == "every-entry-at-least-lambda"][0]
        assert floor["pass"] is True

    def test_schedule_no_flag_at_m_two(self, capsys):
        code, out = run_capture(capsys, ["schedule", "--m", "2", "--steps", "3", "--seed", "2"])
        assert code == 0
        report = json.loads(out)
        second = [r for r in report["records"] if r["claim"] == "second-measurement-probability"][0]
        assert second["discrepancy_flagged"] is False
        assert second["value"] == pytest.approx(1.0, abs=1e-10)

    def test_schedule_largest_accepted_m(self, capsys):
        # The budgets alone bound --m: bytes at dims 2x2, work at 16 steps or dims 1x1.
        for largest, flags in (
            (590, []),
            (438, ["--steps", "16"]),
            (1547, ["--dim-w", "1", "--dim-v", "1"]),
        ):
            argv = ["schedule", *flags, "--m"]
            assert cli.config_from_args(build_parser().parse_args([*argv, str(largest)])).m == largest
            with pytest.raises(cli.ConfigError, match="above the budgets"):
                cli.config_from_args(build_parser().parse_args([*argv, str(largest + 1)]))
        code, out = run_capture(capsys, ["schedule", "--m", "91", "--seed", "2"])
        assert code == 0
        records = json.loads(out)["records"]
        assert len(records) == 4
        assert all(r["pass"] for r in records)

    def test_phases_grid(self, capsys):
        code, out = run_capture(
            capsys, ["phases", "--lambdas", "0.1,0.5,0.9", "--seed", "0"]
        )
        assert code == 0
        report = json.loads(out)
        by_name = {r["name"]: r for r in report["records"]}
        assert by_name["exact-amplification-phases[lambda=0.5]"]["k"] == 1
        assert by_name["exact-amplification-phases[lambda=0.1]"]["single_step_feasible"] is False
        for rec in report["records"]:
            if rec["claim"] == "exact-amplification-phases":
                assert rec["value"] <= 1e-10
        assert by_name["single-step-feasibility-boundary"]["value"] == pytest.approx(0.5)

    def test_phases_names_keep_every_digit(self, capsys):
        # Six significant digits would name both records lambda=0.25.
        code, out = run_capture(capsys, ["phases", "--lambdas", "0.2499999,0.25", "--seed", "0"])
        assert code == 0
        k = {r["name"]: r["k"] for r in json.loads(out)["records"] if "k" in r}
        assert k == {
            "exact-amplification-phases[lambda=0.2499999]": 2,
            "exact-amplification-phases[lambda=0.25]": 1,
        }

    def test_full_graph_literals_accepted(self, capsys):
        code, out = run_capture(
            capsys,
            ["verify-eq1", "--g0", "n=2;edges=01", "--g1", "n=2;edges=01", "--n", "2"],
        )
        assert code == 0


def _patch(module, name, make):
    """A fault that replaces ``module.name`` by ``make(original)`` for one test."""
    return lambda mp: mp.setattr(module, name, make(getattr(module, name)))


def _swapped_step(original):
    """``grover_step`` with its start and success phases in each other's place."""

    def step(circ, phi, varphi):
        success, undo, start, redo = original(circ, phi, varphi).factors
        return OpChain((start, undo, success, redo))

    return step


def _projector(mask):
    """Success projector on A,B that keeps the (challenge, guess) pairs ``mask(m)`` marks."""
    return lambda layout: DiagonalOp(
        layout, ("A", "B"), mask(layout.dim_of("A")).reshape(-1), kind="projector"
    )


def _skewed_mask(m):
    """Guess equal to challenge, and also guess 1 on challenge 0."""
    mask = np.eye(m)
    mask[0, 1] = 1.0
    return mask


def _replaced_blocks(**change):
    """``block_decompose`` with some of its blocks passed through a function."""

    def make(original):
        def decompose(*args, **kwargs):
            b = original(*args, **kwargs)
            return dataclasses.replace(b, **{k: f(getattr(b, k)) for k, f in change.items()})

        return decompose

    return make


BLOCKS_N3 = ["blocks", *N3, "--trials", "1", "--seed", "7"]
BLOCKS_M4 = ["blocks", "--m", "4", "--trials", "1", "--seed", "7"]
SCHEDULE_M8 = ["schedule", "--m", "8", "--seed", "7"]

ZK_N3_KEEPZ = ["zk-check", *N3, "--keep-z", "--trials", "1", "--seed", "7"]

# One injected defect for each claim that no named fault test covers, keyed by
# that claim; a further defect of the same claim adds "/" and its own name.
FAULTS = {
    # The simulator skips amplification and shows the verifier one attempt: the
    # coefficient step with both phases 1 is the identity.
    "view-equality": (
        ZK_N3_KEEPZ,
        _patch(
            simulator,
            "coefficient_step",
            lambda original: lambda circ, basis, weights, rows, u, phi, vp: original(
                circ, basis, weights, rows, u, 1, 1
            ),
        ),
    ),
    # The coefficient step's correction takes the start phase -1 in place of i: the
    # step stays unitary, so the norm check passes, but leaves weight on wrong guesses.
    "view-equality/start-phase": (
        ZK_N3_KEEPZ,
        _patch(
            simulator,
            "coefficient_step",
            lambda original: lambda circ, basis, weights, rows, u, phi, vp: original(
                circ, basis, weights, rows, u, -1, vp
            ),
        ),
    ),
    # A step with both phases 1 is the identity, so its two orders coincide.
    "operator-order-disambiguation": (
        ["verify-eq2", *N3, "--trials", "1", "--seed", "7"],
        _patch(simulator, "grover_step", lambda original: lambda circ, phi, vp: original(circ, 1, 1)),
    ),
    # The stated 2/m reported in place of the computed 4 lam (1 - lam).
    "second-measurement-probability": (
        SCHEDULE_M8,
        _patch(amplify, "computed_second_probability", lambda original: lambda lam: 2 * lam),
    ),
    # A projector that also accepts guess 1 on challenge 0 succeeds more often than 1/2.
    "first-measurement-probability": (
        ["watrous", *N3, "--trials", "1", "--seed", "7"],
        _patch(simulator, "success_projector", lambda original: _projector(_skewed_mask)),
    ),
    # Two accepted guesses per challenge: still a scalar top block, but 2/m.
    "scalar-top-block": (
        BLOCKS_M4,
        _patch(
            amplify,
            "success_projector",
            lambda original: _projector(lambda m: np.eye(m) + np.roll(np.eye(m), 1, axis=1)),
        ),
    ),
    # A cross block scaled by 1 + 1e-6 breaks lam^2 - lam + cross† cross = 0.
    "idempotence-identity-1": (
        BLOCKS_N3,
        _patch(amplify, "block_decompose", _replaced_blocks(cross=lambda c: c * (1 + 1e-6))),
    ),
    # A top block off by 1e-8 breaks (lam - 1) cross + rest cross = 0.
    "idempotence-identity-2": (
        BLOCKS_N3,
        _patch(amplify, "block_decompose", _replaced_blocks(success_prob=lambda lam: lam + 1e-8)),
    ),
    # The step matrix transposed, its rows read as the images: a rotation by -2 theta.
    "grover-rotation-form": (
        BLOCKS_M4,
        _patch(amplify, "subspace_matrix", lambda original: lambda lam, p: original(lam, p).T),
    ),
    # The full-space reflection drops its minus sign and becomes the identity.
    "full-vs-two-dim-agreement": (
        SCHEDULE_M8,
        _patch(amplify, "grover_step", lambda original: lambda c, phi, vp: original(c, -phi, vp)),
    ),
    # The two-dimensional reflection drops its minus sign: no later measurement succeeds.
    "every-entry-at-least-lambda": (
        SCHEDULE_M8,
        _patch(
            amplify,
            "subspace_matrix",
            lambda original: lambda lam, p: original(lam, amplify.PhasePair(-p.phi, p.varphi)),
        ),
    ),
}
# The claims that named tests in this file fail with a defect of their own.
NAMED_FAULT_CLAIMS = {
    "idempotence-identity-3",
    "half-success-block",
    "subspace-closure",
    "one-step-amplification",
    "post-step-success-probability",
    "reflected-state-fidelity",
    "single-step-feasibility-boundary",
    "exact-amplification-phases",
}


def _checker_claims():
    """Every claim ``perfbench/check.py`` expects from some command."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"
    spec = importlib.util.spec_from_file_location("perfbench_check_claims", path)
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    opts = {"lambdas": "0.5", "steps": "4"}
    return {claim for command in cli.COMMANDS for claim in check.expected_claims(command, opts)}


class TestInjectedFaults:
    """A defect injected into one computation fails its record, and the command exits 1."""

    @staticmethod
    def failed_claims(out):
        return {r["claim"] for r in json.loads(out)["records"] if not r["pass"]}

    def test_every_claim_has_a_fault(self):
        claims = {fault.partition("/")[0] for fault in FAULTS}
        assert not claims & NAMED_FAULT_CLAIMS
        assert claims | NAMED_FAULT_CLAIMS == _checker_claims()

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_fault_fails_its_claim(self, capsys, monkeypatch, fault):
        argv, inject = FAULTS[fault]
        claim = fault.partition("/")[0]
        _, clean = run_capture(capsys, argv)
        assert claim not in self.failed_claims(clean)
        inject(monkeypatch)
        code, out = run_capture(capsys, argv)
        assert code == 1
        assert claim in self.failed_claims(out)

    def test_perturbed_rest_block_fails_identity_three(self, capsys, monkeypatch):
        original = amplify.block_decompose

        def perturbed(*args, **kwargs):
            b = original(*args, **kwargs)
            factor = b.rest_factor.copy()
            factor[0, 0] += 1e-8
            return dataclasses.replace(b, rest_factor=factor)

        monkeypatch.setattr(amplify, "block_decompose", perturbed)
        code, out = run_capture(capsys, ["blocks", *N3, "--trials", "1", "--seed", "7"])
        assert code == 1
        assert "idempotence-identity-3" in self.failed_claims(out)

    def test_narrowed_success_projector_fails_half_block(self, capsys, monkeypatch):
        # A projector that keeps only A = B = 0 no longer has the block I/2.
        def zero_guess_only(layout):
            mask = np.zeros(layout.dim_of("A") * layout.dim_of("B"))
            mask[0] = 1.0
            return DiagonalOp(layout, ("A", "B"), mask, kind="projector")

        monkeypatch.setattr(simulator, "success_projector", zero_guess_only)
        code, out = run_capture(capsys, ["verify-eq1", *N3, "--trials", "1", "--seed", "7"])
        assert code == 1
        assert all(not r["pass"] for r in json.loads(out)["records"])
        assert self.failed_claims(out) == {"half-success-block"}

    def test_conjugated_step_matrix_fails_subspace_closure(self, capsys, monkeypatch):
        original = amplify.subspace_matrix

        def conjugated(lam, phases):
            return original(lam, amplify.PhasePair(np.conj(phases.phi), np.conj(phases.varphi)))

        monkeypatch.setattr(amplify, "subspace_matrix", conjugated)
        code, out = run_capture(capsys, ["blocks", "--m", "3", "--trials", "1", "--seed", "7"])
        assert code == 1
        failed = [r["name"] for r in json.loads(out)["records"] if not r["pass"]]
        assert failed == ["subspace-closure[toy[m=3,trial=0],phases=i,i]"]

    EQ2 = ["verify-eq2", *N3, "--trials", "1", "--seed", "7"]

    def test_wrong_start_phase_fails_one_step_amplification(self, capsys, monkeypatch):
        original = simulator.phase_on_start
        monkeypatch.setattr(simulator, "phase_on_start", lambda layout, phi: original(layout, -1.0))
        code, out = run_capture(capsys, self.EQ2)
        assert code == 1
        (rec,) = [r for r in json.loads(out)["records"] if r["claim"] == "one-step-amplification"]
        assert not rec["pass"]
        # The start slice gets -1 in place of i: off by |-1 - i| / |1 + i| = 1.
        assert rec["derivation"]["collapses_to_conjugated_projector"] == pytest.approx(1.0, abs=1e-12)
        assert rec["derivation"]["start_slice_coefficient"] <= 1e-10

    def test_swapped_phases_fail_the_identity_not_the_order_control(self, capsys, monkeypatch):
        # The control compares the two orders with each other, not with the
        # target, so a step that runs the wrong order still differs from the
        # control (which then runs the right one); the identity catches it.
        monkeypatch.setattr(simulator, "grover_step", _swapped_step(simulator.grover_step))
        code, out = run_capture(capsys, self.EQ2)
        assert code == 1
        assert self.failed_claims(out) == {
            "one-step-amplification",
            "post-step-success-probability",
        }

    def test_wrong_success_phase_fails_post_step_probability(self, capsys, monkeypatch):
        original = simulator.phase_on_success
        monkeypatch.setattr(simulator, "phase_on_success", lambda proj, varphi: original(proj, -1.0))
        code, out = run_capture(capsys, self.EQ2)
        assert code == 1
        assert "post-step-success-probability" in self.failed_claims(out)

    def test_skewed_verifier_column_fails_norm_chain(self, capsys, monkeypatch):
        # Only the norm chain reads the verifier's start block, so the
        # identity's residual stays bit-identical and the chain's gap fails it.
        _, clean = run_capture(capsys, self.EQ2)
        original = simulator.start_block

        def skewed(*args, **kwargs):
            block = original(*args, **kwargs)
            triangles = block.triangles.copy()
            triangles[:, :, 0] *= 1 + 1e-6
            return block._replace(triangles=triangles)

        monkeypatch.setattr(simulator, "start_block", skewed)
        code, out = run_capture(capsys, self.EQ2)
        assert code == 1
        assert self.failed_claims(out) == {"one-step-amplification"}
        before, after = (json.loads(text)["records"][0] for text in (clean, out))
        assert after["value"] == before["value"]
        assert after["derivation"] == before["derivation"]
        chain = after["norm_chain"]
        assert max(abs(a - b) for a, b in zip(chain, chain[1:])) > 1e-10


@pytest.mark.parametrize("keep_z", [[], ["--keep-z"]])
def test_zk_check_applies_the_verifier_once_per_trial(capsys, monkeypatch, keep_z):
    # The adversarial verifier is the only Householder operator a zk-check builds, and each
    # trial reads its start block's Grams once from the reflectors, without applying it.
    applied, read = [], []
    act, grams = registers.HouseholderOp._act, registers.HouseholderOp.input_grams
    monkeypatch.setattr(
        registers.HouseholderOp, "_act", lambda op, x: applied.append(x.shape) or act(op, x)
    )
    monkeypatch.setattr(
        registers.HouseholderOp,
        "input_grams",
        lambda op, *a: read.append(op.columns) or grams(op, *a),
    )
    code, _ = run_capture(capsys, ["zk-check", *N3, *keep_z, "--trials", "2", "--seed", "7"])
    assert code == 0
    assert len(read) == 2 and not applied


class TestJsonWriter:
    def test_float_formatting(self):
        assert dump_json(0.5) == "0.5"
        assert dump_json(1 / 3) == "0.33333333333333331"
        assert dump_json([True, None, 3]) == "[true, null, 3]"

    def test_complex_encoding(self):
        assert dump_json(1j) == '{"re": 0, "im": 1}'

    def test_round_trips_through_json(self):
        obj = {"a": [1.5, {"b": False}], "c": "text"}
        assert json.loads(dump_json(obj)) == obj
