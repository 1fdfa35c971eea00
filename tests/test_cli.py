"""Report runner: exit codes, determinism, and record contents."""

import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import zkamp
from zkamp import amplify, cli, protocol, simulator
from zkamp.cli import (
    MAX_SCHEDULE_STEPS,
    build_parser,
    dump_json,
    near_record,
    record,
    run,
    trial_seeds,
)
from zkamp.registers import DiagonalOp
from zkamp.symm import parse_graph_literal

from oracles import watrous_round

N3 = ["--n", "3", "--g0", "01,12", "--g1", "01,02"]
N4 = ["--n", "4", "--g0", "01,12,23", "--g1", "03,12,20"]
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
        assert "not isomorphic" in capsys.readouterr().err

    def test_bad_literal_is_config_error(self, capsys):
        code = run(["zk-check", "--n", "3", "--g0", "0x", "--g1", "01,02"])
        assert code == 2

    def test_n_too_large_is_config_error(self, capsys):
        code = run(["zk-check", "--n", "5", "--g0", "01", "--g1", "01"])
        assert code == 2

    def test_trials_must_be_positive(self, capsys):
        code = run(["verify-eq1", "--n", "2", "--g0", "01", "--g1", "01", "--trials", "0"])
        assert code == 2

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--k-max", "0"], "--k-max must be >= 1"),
            (["--lambdas", ","], "at least one value"),
            (["--lambdas", "0.5,1.5"], "must be in (0, 1), got 1.5"),
        ],
    )
    def test_bad_phases_input_refused_before_solving(self, capsys, monkeypatch, options, message):
        def never(*args, **kwargs):
            raise AssertionError("no phase may be solved for a refused configuration")

        monkeypatch.setattr(amplify, "solve_phases", never)
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
        with pytest.raises(SystemExit) as exc:
            run([command, flag, *FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

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
        assert json.loads(out)["config"] == {
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
    """Every command refuses an oversize dense operator from its dimension alone."""

    @pytest.fixture(autouse=True)
    def no_dense_builds(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an oversize operator must not be built")

        for module, name in (
            (protocol, "haar_random_op"),
            (amplify, "haar_random_op"),
            (protocol, "honest_verifier"),
            (protocol, "find_isomorphism"),
            (simulator, "success_projector"),
            (amplify, "success_projector"),
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
            # Guess space A,B: m^2 basis states; nothing dense is built on it.
            pytest.param(["schedule", "--m", "91"], "8281 basis states", id="argv6-8281"),
            # Toy scramble on W,V,A: dim_w * dim_v * m.
            (["schedule", "--m", "2", "--dim-w", "64", "--dim-v", "65"], 8320),
            (["blocks", "--m", "2", "--dim-w", "64", "--dim-v", "65"], 8320),
        ],
    )
    def test_refused_with_dimension_in_message(self, capsys, argv, dim):
        assert run(argv) == 2
        expected = dim if isinstance(dim, str) else f"{dim}x{dim}"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["zk-check", "verify-eq1"])
    @pytest.mark.parametrize(
        "g0, g1, extra",
        [
            pytest.param("n=5;edges=01", "n=5;edges=02", [], id="n=5;edges=01-n=5;edges=02"),
            pytest.param("n=1;edges=", "n=1;edges=", [], id="n=1;edges=-n=1;edges="),
            pytest.param("n=7;edges=01", "n=7;edges=02", [], id="n=7;edges=01-n=7;edges=02"),
            pytest.param("n=5;edges=01", "n=5;edges=02", ["--dim-w", "4"], id="n=5-dim-w-4"),
            pytest.param("n=200;edges=01", "n=200;edges=02", [], id="n=200"),
        ],
    )
    def test_literal_vertex_count_checked(self, capsys, command, g0, g1, extra):
        # Without --n the vertex count comes from the literals alone; n=5
        # would start an 8192x8192 Haar draw, n=7 is past S_n's range, and
        # n=200's verifier size has thousands of digits.
        assert run([command, "--g0", g0, "--g1", g1, *extra]) == 2
        assert "n must be in 2..4" in capsys.readouterr().err


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

    def test_env_seed_overrides_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("ZKAMP_SEED", "7")
        _, env_based = run_capture(capsys, ZK_ARGS[:-1] + ["999"])
        monkeypatch.delenv("ZKAMP_SEED")
        _, flag_based = run_capture(capsys, ZK_ARGS)
        assert json.loads(env_based)["config"]["seed"] == 7
        assert strip_timings(env_based) == strip_timings(flag_based)

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

    def test_negative_env_seed_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("ZKAMP_SEED", "-3")
        assert run(ZK_ARGS) == 2
        assert "must be >= 0, got -3" in capsys.readouterr().err


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
        # A solver that calls lambda = 0.2 single-step feasible contradicts
        # the analytic boundary 1/4.
        original = amplify.solve_phases

        def too_lenient(lam, k):
            if k == 1 and lam == 0.2:
                return original(0.5, 1)
            return original(lam, k)

        monkeypatch.setattr(amplify, "solve_phases", too_lenient)
        code, out = run_capture(capsys, ["phases", "--lambdas", "0.2,0.5", "--seed", "0"])
        assert code == 1
        boundary = json.loads(out)["records"][-1]
        assert boundary["claim"] == "single-step-feasibility-boundary"
        assert boundary["pass"] is False
        assert boundary["target"] == 0.25
        assert boundary["mismatched_lambdas"] == [0.2]

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
        # 90^2 = 8100 is the largest guess space under the limit of 8192.
        code, out = run_capture(capsys, ["schedule", "--m", "90", "--seed", "2"])
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

    def test_full_graph_literals_accepted(self, capsys):
        code, out = run_capture(
            capsys,
            ["verify-eq1", "--g0", "n=2;edges=01", "--g1", "n=2;edges=01", "--n", "2"],
        )
        assert code == 0


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
