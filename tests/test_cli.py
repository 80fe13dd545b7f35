import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml

import loglosslab
from loglosslab import ValidationError, __version__, equivalence, problemio
from loglosslab.cli import _build_parser, main
from loglosslab.oneshot import excess_witness, logloss_codebook, logloss_excess_optimum
from loglosslab.problemio import (
    dump_report,
    jsonable,
    load_problem,
    parse_float_list,
    render_table,
    round_sig,
)

LN2 = math.log(2.0)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
BINARY = str(PROBLEMS / "binary_hamming.yaml")
SKEW3 = str(PROBLEMS / "skewed3.yaml")
# YAML 1.2 floats with an exponent, which YAML 1.1 reads as strings.
EXPONENT_FLOATS = "px: [1e-3, 0.999]\ndistortion: [[0, 1e308, 2E5], [1e-300, 0, 1.5e-1]]\n"


def h_b(d: float) -> float:
    return -d * math.log(d) - (1 - d) * math.log(1 - d)


def write_problem(tmp_path, text: str) -> str:
    path = tmp_path / "problem.yaml"
    path.write_text(text)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestLoadProblem:
    def test_shipped_files_load(self):
        for name in ("binary_hamming.yaml", "skewed3.yaml", "skewed4_absdiff.yaml"):
            loaded = load_problem(PROBLEMS / name)
            echo = loaded.echo()
            assert echo["path"].endswith(name)
            assert sum(echo["px"]) == pytest.approx(1.0, abs=1e-12)

    def test_named_hamming_expands(self, tmp_path):
        path = write_problem(tmp_path, "px: [0.5, 0.5]\ndistortion: hamming\n")
        loaded = load_problem(path)
        np.testing.assert_array_equal(loaded.problem.distortion,
                                      [[0.0, 1.0], [1.0, 0.0]])

    def test_missing_px_named(self, tmp_path):
        path = write_problem(tmp_path, "distortion: hamming\n")
        with pytest.raises(ValidationError, match="'px'"):
            load_problem(path)

    def test_unknown_field_named(self, tmp_path):
        path = write_problem(
            tmp_path, "px: [0.5, 0.5]\ndistortion: hamming\nweights: [1, 2]\n")
        with pytest.raises(ValidationError, match="weights"):
            load_problem(path)

    def test_ragged_matrix_rejected(self, tmp_path):
        path = write_problem(
            tmp_path, "px: [0.5, 0.5]\ndistortion: [[0, 1], [1]]\n")
        with pytest.raises(ValidationError, match="unequal"):
            load_problem(path)

    def test_non_numeric_entry_names_position(self, tmp_path):
        path = write_problem(tmp_path, "px: [0.5, oops]\ndistortion: hamming\n")
        with pytest.raises(ValidationError, match="entry 1"):
            load_problem(path)

    def test_label_count_mismatch(self, tmp_path):
        path = write_problem(
            tmp_path, "px: [0.5, 0.5]\ndistortion: hamming\nlabels: [a]\n")
        with pytest.raises(ValidationError, match="1 labels for 2"):
            load_problem(path)

    def test_unknown_named_matrix(self, tmp_path):
        path = write_problem(tmp_path, "px: [0.5, 0.5]\ndistortion: euclidean\n")
        with pytest.raises(ValidationError, match="hamming"):
            load_problem(path)

    def test_yaml_error_reports_line(self, tmp_path):
        path = write_problem(tmp_path, "px: [0.5, 0.5]\ndistortion: [\n")
        with pytest.raises(ValidationError, match="line"):
            load_problem(path)

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    def test_yaml_error_names_line_and_column(self, tmp_path, loader):
        if not hasattr(yaml, loader):
            pytest.skip(f"PyYAML built without {loader}")
        path = write_problem(tmp_path, "px: [0.5, 0.5\ndistortion: hamming\n")
        # Either parser names the mark; only the pure-Python one quotes the
        # source line under it.
        with mock.patch.object(problemio, "_YAML_LOADER", getattr(yaml, loader)), \
                pytest.raises(ValidationError,
                              match=r"(?s)invalid YAML at line 2: .*line 2, column 11"):
            load_problem(path)

    @pytest.mark.parametrize("name", ["binary_hamming.yaml", "skewed3.yaml",
                                      "skewed4_absdiff.yaml",
                                      pytest.param(EXPONENT_FLOATS, id="exponent-floats")])
    def test_both_yaml_loaders_give_equal_problems(self, tmp_path, name):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML built without libyaml")
        path = write_problem(tmp_path, name) if name == EXPONENT_FLOATS else PROBLEMS / name
        loaded = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            with mock.patch.object(problemio, "_YAML_LOADER",
                                   problemio._exponent_float_loader(loader)):
                loaded.append(load_problem(path))
        python, libyaml = loaded
        assert python.echo() == libyaml.echo()
        assert python.description == libyaml.description
        assert python.problem.px.probs.tobytes() == libyaml.problem.px.probs.tobytes()
        assert python.problem.distortion.tobytes() == libyaml.problem.distortion.tobytes()

    def test_exponent_floats_load(self, tmp_path):
        loaded = load_problem(write_problem(tmp_path, EXPONENT_FLOATS))
        assert loaded.problem.px.probs.tolist() == [1e-3, 0.999]
        assert loaded.problem.distortion.tolist() == [[0.0, 1e308, 2e5], [1e-300, 0.0, 0.15]]

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    def test_pyyaml_loaders_keep_their_resolvers(self, loader):
        if not hasattr(yaml, loader):
            pytest.skip(f"PyYAML built without {loader}")
        base = getattr(yaml, loader)
        assert yaml.load("[1e-3, 1.0e+3]", Loader=problemio._exponent_float_loader(base)) \
            == [1e-3, 1e3]
        assert yaml.load("[1e-3, 1.0e+3]", Loader=base) == ["1e-3", 1e3]

    def test_top_level_must_be_mapping(self, tmp_path):
        path = write_problem(tmp_path, "- 1\n- 2\n")
        with pytest.raises(ValidationError, match="mapping"):
            load_problem(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_problem(tmp_path / "nope.yaml")

    @pytest.mark.parametrize("text, match", [
        ("px: 0.5\ndistortion: hamming\n", "field 'px': expected a non-empty list of numbers"),
        ("px: [0.5, 0.6]\ndistortion: hamming\n", "field 'px': Pmf: sums to"),
        ("px: [0.5, 0.5]\ndistortion: 3\n",
         "field 'distortion': expected 'hamming' or a list of rows"),
        ("px: [0.5, 0.5]\ndistortion: hamming\nlabels: [1, 2]\n",
         "field 'labels': expected a list of strings"),
        ("px: [0.5, 0.5]\ndistortion: hamming\nname: 3\n", "field 'name': expected a string"),
        # Exponent floats load, but quoted numbers, nan and overflow do not.
        ("px: ['1e-3', 0.999]\ndistortion: hamming\n",
         "field 'px': entry 0 is not a number: '1e-3'"),
        ("px: [0.5, \"0.5\"]\ndistortion: hamming\n",
         "field 'px': entry 1 is not a number: '0.5'"),
        ("px: [.nan, 1]\ndistortion: hamming\n", "field 'px': Pmf: entries must be finite"),
        ("px: [0.5, 0.5]\ndistortion: [[0, 1e400], [1, 0]]\n",
         "field 'distortion': SourceProblem: distortion: entries must be finite"),
    ])
    def test_bad_field_is_named(self, tmp_path, text, match):
        with pytest.raises(ValidationError, match=match):
            load_problem(write_problem(tmp_path, text))

    def test_negative_distortion_blamed_on_field(self, tmp_path):
        path = write_problem(
            tmp_path, "px: [0.5, 0.5]\ndistortion: [[0, -1], [1, 0]]\n")
        with pytest.raises(ValidationError, match="'distortion'"):
            load_problem(path)


class TestReportHelpers:
    def test_round_sig_round_trips(self):
        rounded = round_sig(math.pi)
        assert rounded == float(f"{math.pi:.12g}")
        assert round_sig(rounded) == rounded
        assert round_sig(math.inf) == math.inf
        assert math.isnan(round_sig(math.nan))

    def test_parse_float_list(self):
        assert parse_float_list("0.1,0.2", "--grid") == [0.1, 0.2]
        assert parse_float_list("1, 2,", "--grid") == [1.0, 2.0]
        with pytest.raises(ValidationError, match="--grid"):
            parse_float_list("a,b", "--grid")
        with pytest.raises(ValidationError, match="empty"):
            parse_float_list(",", "--grid")

    def test_jsonable_handles_numpy(self):
        doc = jsonable({"a": np.array([1.0, 2.0]), "b": np.bool_(True),
                        "c": np.int64(3), 4: "x"})
        assert doc == {"a": [1.0, 2.0], "b": True, "c": 3, "4": "x"}
        assert isinstance(doc["b"], bool)

    def test_dump_report_sorted_with_newline(self):
        text = dump_report({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_render_table(self):
        text = render_table(["x", "ok"], [[0.5, True], [1.5, False]])
        lines = text.splitlines()
        assert lines[0] == "x\tok"
        assert lines[1] == "0.5\ttrue"
        assert lines[2] == "1.5\tfalse"

    def test_jsonable_scales_only_named_keys(self):
        doc = {"rate": LN2, "inner": {"rate": [LN2, 2 * LN2], "d": LN2},
               "flag": True}
        out = jsonable(doc, frozenset({"rate"}))
        assert out["rate"] == round_sig(LN2 / LN2)
        assert out["inner"]["rate"] == [round_sig(LN2 / LN2), round_sig(2 * LN2 / LN2)]
        assert out["inner"]["d"] == round_sig(LN2)
        assert out["flag"] is True


class TestRdCommand:
    def test_single_point_report(self, capsys):
        report = run_report(capsys, ["rd", BINARY, "--distortion", "0.1"])
        assert report["command"] == "rd"
        assert report["units"] == "nats"
        assert set(report) == {"version", "command", "units", "inputs",
                               "outputs", "tolerances", "wall_clock_seconds"}
        [point] = report["outputs"]["points"]
        assert point["rate"] == pytest.approx(LN2 - h_b(0.1), abs=1e-6)
        assert point["lambda_star"] == pytest.approx(math.log(9.0), abs=1e-6)
        assert point["csiszar_residual"] < 1e-6
        assert point["kept_columns"] == [0, 1]

    def test_grid_table(self, capsys):
        code, out, err = run_cli(
            capsys, ["rd", BINARY, "--grid", "0.1,0.2", "--format", "table"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "D\trate\tlambda"
        assert len(lines) == 3

    def test_distortion_and_grid_exclusive(self, capsys):
        code, _, err = run_cli(
            capsys, ["rd", BINARY, "--distortion", "0.1", "--grid", "0.2"])
        assert code == 2
        assert "exactly one" in err
        code, _, _ = run_cli(capsys, ["rd", BINARY])
        assert code == 2

    def test_infeasible_target_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["rd", BINARY, "--distortion", "0.9"])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_bad_iteration_budget_exits_two(self, capsys, budget):
        code, _, err = run_cli(capsys, ["rd", BINARY, "--distortion", "0.1",
                                        "--max-iter", budget])
        assert code == 2, err
        assert f"max_iter must be an integer >= 1, got {budget}" in err

    def test_bits_rescales_rates(self, capsys):
        nats = run_report(capsys, ["rd", BINARY, "--distortion", "0.1"])
        bits = run_report(capsys, ["rd", BINARY, "--distortion", "0.1", "--bits"])
        assert bits["units"] == "bits"
        rate_nats = nats["outputs"]["points"][0]["rate"]
        rate_bits = bits["outputs"]["points"][0]["rate"]
        assert rate_bits == pytest.approx(rate_nats / LN2, rel=1e-11)
        # Distortion in the problem's own units is not rescaled.
        assert (bits["outputs"]["points"][0]["achieved_distortion"]
                == nats["outputs"]["points"][0]["achieved_distortion"])

    def test_bits_report_only(self, capsys):
        code, _, err = run_cli(
            capsys, ["rd", BINARY, "--distortion", "0.1", "--bits",
                     "--format", "table"])
        assert code == 2
        assert "report" in err


class TestNonFiniteInputs:
    # A non-finite number is bad input: exit 2, naming the field it came in.
    @pytest.mark.parametrize("argv,field", [
        pytest.param(["rd", BINARY, "--distortion", "0.1", "--tol", "nan"], "tol",
                     id="rd-tol"),
        pytest.param(["rd", BINARY, "--distortion", "nan"], "d", id="rd-distortion"),
        pytest.param(["rd", BINARY, "--distortion", "inf"], "d", id="rd-distortion-inf"),
        pytest.param(["sr", BINARY, "--d1", "0.5", "--d2", "nan"], "d2", id="sr-d2"),
        pytest.param(["sr", BINARY, "--d1", "nan", "--d2", "0.1"], "d1", id="sr-d1"),
        pytest.param(["sr", BINARY, "--chain", "0.6,0.4", "--d2", "nan"], "d_final",
                     id="sr-chain-d2"),
        pytest.param(["timeshare", "--px", "0.5,0.5", "--distortion", "nan",
                      "--n", "10", "--seed", "0"], "d", id="timeshare-distortion"),
        pytest.param(["oneshot", SKEW3, "--criterion", "excess", "--logloss",
                      "--messages", "2", "--distortion", "nan"], "d",
                     id="oneshot-logloss-excess"),
        pytest.param(["oneshot", SKEW3, "--criterion", "codebook", "--logloss",
                      "--epsilon", "0.1", "--distortion", "nan"], "d",
                     id="oneshot-logloss-codebook"),
        pytest.param(["oneshot", SKEW3, "--criterion", "excess", "--messages", "2",
                      "--distortion", "nan"], "d", id="oneshot-excess"),
    ])
    def test_exits_two_naming_the_field(self, capsys, argv, field):
        code, _, err = run_cli(capsys, argv)
        assert code == 2, err
        assert f": {field} must be finite" in err

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["oneshot", SKEW3, "--criterion", "codebook", "--distortion", "0.5",
                      "--epsilon", "nan"], "eps must lie in [0, 1], got nan",
                     id="oneshot-epsilon-nan"),
        pytest.param(["oneshot", SKEW3, "--criterion", "codebook", "--distortion", "0.5",
                      "--epsilon", "inf"], "eps must lie in [0, 1], got inf",
                     id="oneshot-epsilon-inf"),
        pytest.param(["oneshot", SKEW3, "--criterion", "codebook", "--logloss",
                      "--distortion", "0.5", "--epsilon", "inf"],
                     "eps must lie in [0, 1], got inf", id="oneshot-logloss-epsilon-inf"),
        pytest.param(["timeshare", "--px", "0.5,0.5", "--distortion", "0.3",
                      "--n", "nan", "--seed", "0"], "argument --n: invalid int value",
                     id="timeshare-n-nan"),
    ])
    def test_epsilon_and_blocklength_exit_two(self, capsys, argv, message):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse rejects the value itself
            code = stop.code
        err = capsys.readouterr().err
        assert code == 2, err
        assert message in err


class TestOneshotCommand:
    def test_avg_with_oracle_agreement(self, capsys):
        report = run_report(
            capsys, ["oneshot", SKEW3, "--criterion", "avg", "--messages", "2"])
        out = report["outputs"]
        assert out["criterion"] == "avg"
        assert out["optimal_value"] == pytest.approx(0.2, abs=1e-12)
        assert out["oracle"]["agrees"] is True

    def test_logloss_excess_oracle_agreement(self, capsys):
        report = run_report(
            capsys, ["oneshot", SKEW3, "--criterion", "excess",
                     "--messages", "2", "--distortion", "0.5", "--logloss"])
        out = report["outputs"]
        assert out["criterion"] == "excess"
        assert out["oracle"]["agrees"] is True

    def test_logloss_excess_at_a_large_distortion(self, capsys):
        # floor(exp(50)) is about 5e21: every symbol is covered at once.
        start = time.perf_counter()
        report = run_report(
            capsys, ["oneshot", SKEW3, "--criterion", "excess", "--logloss",
                     "--messages", "2", "--distortion", "50"])
        assert time.perf_counter() - start < 5.0
        assert report["outputs"]["optimal_value"] == 0.0
        assert report["outputs"]["oracle"]["agrees"] is True

    @pytest.mark.parametrize("criterion", [["excess", "--messages", "2"],
                                           ["codebook", "--epsilon", "0"]])
    def test_logloss_distortion_past_the_largest_float_exits_two(self, capsys, criterion):
        code, _, err = run_cli(capsys, ["oneshot", SKEW3, "--criterion", *criterion,
                                        "--logloss", "--distortion", "1e308"])
        assert code == 2, err
        assert "floor_exp: d must be at most 709.783, got 1e+308" in err
        assert "Traceback" not in err

    def test_logloss_excess_oracle_agrees_with_zero_mass_symbols(self, capsys, tmp_path):
        # The closed form covers all eleven symbols, the oracle only the six
        # of positive mass; both must report the same epsilon.
        ninths = [1, 2, 2, 1, 0, 1, 0, 0, 2, 0, 0]
        path = write_problem(
            tmp_path, f"px: {[k / 9 for k in ninths]}\ndistortion: hamming\n")
        report = run_report(
            capsys, ["oneshot", path, "--criterion", "excess", "--logloss",
                     "--messages", "2", "--distortion", "2.0"])
        assert report["outputs"]["oracle"]["agrees"] is True

    def test_logloss_excess_oracle_skipped_past_its_guard(self, capsys, tmp_path):
        path = write_problem(tmp_path, f"px: {[1 / 13] * 13}\ndistortion: hamming\n")
        report = run_report(
            capsys, ["oneshot", path, "--criterion", "excess", "--logloss",
                     "--messages", "2", "--distortion", "0.0"])
        assert report["outputs"]["oracle"] is None

    def test_subset_scan_past_its_guard_exits_one(self, capsys, tmp_path):
        # C(30, 15) column subsets: refused before the scan starts.
        path = write_problem(tmp_path, f"px: {[1 / 30] * 30}\ndistortion: hamming\n")
        start = time.perf_counter()
        code, _, err = run_cli(
            capsys, ["oneshot", path, "--criterion", "avg", "--messages", "15"])
        elapsed = time.perf_counter() - start
        assert code == 1
        assert "solve_avg: 155117520 column subsets exceeds guard 1000000" in err
        assert elapsed <= 1.0, f"{elapsed:.2f}s"

    @pytest.mark.parametrize("r", [63, 70])
    def test_avg_oracle_with_one_message(self, capsys, tmp_path, r):
        # One cell: every symbol in it, and more symbols than numpy has axes.
        path = write_problem(tmp_path, f"px: {[1 / r] * r}\ndistortion: hamming\n")
        report = run_report(
            capsys, ["oneshot", path, "--criterion", "avg", "--messages", "1"])
        assert report["outputs"]["oracle"]["agrees"] is True

    @pytest.mark.parametrize("px", [[1 / 12] * 12, [1.0, 0.0]], ids=["uniform12", "point"])
    def test_logloss_avg_zero_optimum_prints_positive_zero(self, capsys, tmp_path, px):
        path = write_problem(tmp_path, f"px: {px}\ndistortion: hamming\n")
        code, out, err = run_cli(
            capsys, ["oneshot", path, "--criterion", "avg", "--logloss",
                     "--messages", str(len(px))])
        assert code == 0, err
        assert '"optimal_value": 0.0,' in out

    def test_logloss_avg_bits_conversion(self, capsys):
        nats = run_report(
            capsys, ["oneshot", SKEW3, "--criterion", "avg", "--messages", "2",
                     "--logloss"])
        bits = run_report(
            capsys, ["oneshot", SKEW3, "--criterion", "avg", "--messages", "2",
                     "--logloss", "--bits"])
        assert (bits["outputs"]["optimal_value"]
                == pytest.approx(nats["outputs"]["optimal_value"] / LN2, rel=1e-11))

    def test_codebook(self, capsys):
        report = run_report(
            capsys, ["oneshot", SKEW3, "--criterion", "codebook",
                     "--distortion", "0.5", "--epsilon", "0.25"])
        out = report["outputs"]
        assert out["m_star"] >= 1
        assert out["achieved_epsilon"] <= 0.25 + 1e-12

    def test_excess_matches_witness(self, capsys):
        report = run_report(
            capsys, ["oneshot", SKEW3, "--criterion", "excess",
                     "--messages", "2", "--distortion", "0.5"])
        code, value = excess_witness(load_problem(SKEW3).problem, 2, 0.5)
        out = report["outputs"]
        assert out["criterion"] == "excess"
        assert out["optimal_value"] == round_sig(value)
        assert out["scheme"] == {"encoder": list(code.encoder),
                                 "decoder": list(code.decoder)}
        assert out["oracle"] is None

    @pytest.mark.parametrize("epsilon", [0.25, 0.001])
    def test_logloss_codebook_matches_closed_forms(self, capsys, epsilon):
        report = run_report(
            capsys, ["oneshot", SKEW3, "--criterion", "codebook", "--logloss",
                     "--distortion", "0.5", "--epsilon", str(epsilon)])
        px = load_problem(SKEW3).problem.px
        m_star = logloss_codebook(px, 0.5, epsilon)
        scheme, value = logloss_excess_optimum(px, m_star, 0.5)
        out = report["outputs"]
        assert out["m_star"] == m_star
        assert out["achieved_epsilon"] == round_sig(value) <= epsilon + 1e-12
        assert out["scheme"] == {"sort_order": list(scheme.sort_order),
                                 "cell_size": scheme.cell_size,
                                 "encoder": list(scheme.encoder())}
        assert "messages" not in report["inputs"]["flags"]

    def test_flag_consistency_enforced(self, capsys):
        # avg takes no --distortion, excess needs one, codebook computes M.
        cases = [
            ["oneshot", SKEW3, "--criterion", "avg", "--messages", "2",
             "--distortion", "0.5"],
            ["oneshot", SKEW3, "--criterion", "excess", "--messages", "2"],
            ["oneshot", SKEW3, "--criterion", "codebook", "--distortion", "0.5",
             "--epsilon", "0.1", "--messages", "2"],
            ["oneshot", SKEW3, "--criterion", "avg", "--messages", "2",
             "--epsilon", "0.1"],
        ]
        for argv in cases:
            code, _, _ = run_cli(capsys, argv)
            assert code == 2, argv


class TestEquivCommand:
    def test_skewed3_exhaustive(self, capsys):
        report = run_report(capsys, ["equiv", SKEW3, "--messages", "2"])
        out = report["outputs"]
        assert out["d_star_m"] == pytest.approx(0.2, abs=1e-12)
        assert out["identity"]["skipped"] is False
        assert out["identity"]["max_residual"] < 1e-6
        assert out["identity"]["max_residual"] <= out["identity"]["residual_bound"] <= 1e-9
        assert out["coincidence"]["matched"] is True
        assert out["coincidence"]["pairs_summed"] > 0

    def test_table_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, ["equiv", SKEW3, "--messages", "2", "--format", "table"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t")[-1] == "coincidence"
        assert lines[1].split("\t")[-1] == "pass"

    def test_degenerate_instance_exits_one(self, capsys):
        # Binary at M = 2 reaches zero distortion: no interior point.
        code, _, err = run_cli(capsys, ["equiv", BINARY, "--messages", "2"])
        assert code == 1
        assert "error:" in err

    def test_missed_distortion_exits_one(self, capsys, tmp_path):
        # Hamming distortion scaled by 1e308: the solve at D*(2) = 0.2e308
        # reaches distortion 0.0, and the error names that, not the rate.
        big = "[[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]"
        path = write_problem(tmp_path, f"px: [0.5, 0.3, 0.2]\ndistortion: {big}\n")
        code, _, err = run_cli(capsys, ["equiv", path, "--messages", "2"])
        assert code == 1
        assert "achieved distortion 0.0 misses the target 2.0000000000000002e+307" in err
        assert "exceeds ln M" not in err

    def test_past_the_guard_reports_the_bound_alone(self, capsys, tmp_path):
        # Uniform Hamming on 16 symbols at M = 3: 3^16 * 16^3 = 1.8e11 code
        # pairs, past the 10^7 guard of the sweep and the coincidence check.
        # On 12 symbols at M = 10 a sweep tile is one encoder of 10^12
        # decoders, whose buffers must not be allocated.
        for r, m in ((16, 3), (12, 10)):
            path = write_problem(tmp_path, f"px: {[1 / r] * r}\ndistortion: hamming\n")
            start = time.perf_counter()
            report = run_report(capsys, ["equiv", path, "--messages", str(m)])
            elapsed = time.perf_counter() - start
            identity = report["outputs"]["identity"]
            assert identity["skipped"] is True
            assert 0.0 < identity["residual_bound"] <= 1e-12
            assert [identity[key] for key in ("n_codes", "max_residual", "min_log_loss",
                                              "min_distortion")] == [None] * 4
            assert report["outputs"]["coincidence"] is None
            assert elapsed <= 2.0, f"{elapsed:.2f}s"

    def test_argmin_counts_decode_no_pair(self, capsys):
        # The report prints the sizes of the argmin sets, never their pairs.
        with mock.patch.object(equivalence, "_pair_tuples",
                               wraps=equivalence._pair_tuples) as decode:
            report = run_report(capsys, ["equiv", SKEW3, "--messages", "2"])
        coincidence = report["outputs"]["coincidence"]
        assert coincidence["n_distortion_argmin"] == coincidence["n_loss_argmin"] > 0
        assert decode.call_count == 0


class TestSrCommand:
    def test_single_layer(self, capsys):
        report = run_report(
            capsys, ["sr", BINARY, "--d1", "0.5", "--d2", "0.1"])
        out = report["outputs"]
        [layer] = out["layers"]
        assert layer["all_checks_pass"] is True
        assert layer["delta"] == pytest.approx(
            (0.5 - h_b(0.1)) / (LN2 - h_b(0.1)), abs=1e-6)
        assert out["fine_rate"] == pytest.approx(LN2 - h_b(0.1), abs=1e-6)
        assert [c["name"] for c in layer["checks"]] == [
            "markov_factorization", "coarse_rate", "coarse_loss",
            "fine_rate", "fine_distortion", "posterior_rows"]

    def test_chain_table(self, capsys):
        code, out, _ = run_cli(
            capsys, ["sr", BINARY, "--chain", "0.6,0.4", "--d2", "0.1",
                     "--format", "table"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d1\tdelta\tmax_residual\tok"
        assert len(lines) == 3
        assert all(line.split("\t")[-1] == "true" for line in lines[1:])

    def test_flag_exclusivity(self, capsys):
        assert run_cli(capsys, ["sr", BINARY, "--d1", "0.5", "--chain", "0.6",
                                "--d2", "0.1"])[0] == 2
        assert run_cli(capsys, ["sr", BINARY, "--d2", "0.1"])[0] == 2
        assert run_cli(capsys, ["sr", BINARY, "--d1", "0.5"])[0] == 2

    def test_infeasible_coarse_target_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, ["sr", BINARY, "--d1", "0.1", "--d2", "0.1"])
        assert code == 1


class TestTimeshareCommand:
    def test_inline_pmf_uniform4(self, capsys):
        report = run_report(
            capsys, ["timeshare", "--px", "0.25,0.25,0.25,0.25",
                     "--distortion", str(LN2), "--n", "1000", "--seed", "7"])
        [decoder] = report["outputs"]["decoders"]
        assert decoder["lossless_prefix"] == 500
        assert decoder["empirical_loss"] == pytest.approx(LN2, rel=1e-11)
        assert decoder["loss_deviation_sigma"] == 0.0

    def test_problem_file_source(self, capsys):
        report = run_report(
            capsys, ["timeshare", SKEW3, "--distortion", "0.3", "--n", "2000",
                     "--seed", "1"])
        assert report["outputs"]["entropy"] == pytest.approx(
            -(0.5 * math.log(0.5) + 0.3 * math.log(0.3) + 0.2 * math.log(0.2)),
            rel=1e-11)
        [decoder] = report["outputs"]["decoders"]
        assert decoder["loss_deviation_sigma"] < 6.0

    def test_two_decoders(self, capsys):
        report = run_report(
            capsys, ["timeshare", "--px", "0.25,0.25,0.25,0.25",
                     "--distortion", str(LN2), "--d2", str(math.log(4) / 4),
                     "--n", "1000", "--seed", "7"])
        coarse, fine = report["outputs"]["decoders"]
        assert coarse["lossless_prefix"] <= fine["lossless_prefix"]
        assert fine["target_distortion"] == pytest.approx(math.log(4) / 4,
                                                          rel=1e-11)

    def test_source_exclusivity(self, capsys):
        base = ["--distortion", "0.3", "--n", "100", "--seed", "1"]
        assert run_cli(capsys, ["timeshare", SKEW3, "--px", "0.5,0.5"] + base)[0] == 2
        assert run_cli(capsys, ["timeshare"] + base)[0] == 2

    def test_required_flags(self, capsys):
        assert run_cli(capsys, ["timeshare", SKEW3, "--n", "100",
                                "--seed", "1"])[0] == 2
        assert run_cli(capsys, ["timeshare", SKEW3, "--distortion", "0.3",
                                "--seed", "1"])[0] == 2
        assert run_cli(capsys, ["timeshare", SKEW3, "--distortion", "0.3",
                                "--n", "100"])[0] == 2

    def test_negative_seed_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["timeshare", "--px", "0.5,0.5", "--distortion",
                                        "0.3", "--n", "10", "--seed", "-1"])
        assert code == 2
        assert "seed must be an integer >= 0, got -1" in err


def strip_wall_clock(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if '"wall_clock_seconds"' not in line)


class TestDeterminism:
    COMMANDS = [
        ["rd", BINARY, "--distortion", "0.2"],
        ["oneshot", SKEW3, "--criterion", "avg", "--messages", "2"],
        ["equiv", SKEW3, "--messages", "2"],
        ["sr", BINARY, "--d1", "0.5", "--d2", "0.1"],
        ["timeshare", "--px", "0.25,0.25,0.25,0.25", "--distortion", "0.4",
         "--n", "1000", "--seed", "11"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_reruns_byte_identical_modulo_wall_clock(self, argv, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main(argv + ["--output", str(path)])
            assert code == 0
        capsys.readouterr()
        first, second = (strip_wall_clock(p.read_text()) for p in paths)
        assert first == second

    def test_one_parser_serves_every_call(self, capsys):
        # The parser is built once per process; no call, not even one that
        # fails to parse, leaves state behind for the next.
        rd = ["rd", BINARY, "--distortion", "0.2"]
        first = run_cli(capsys, rd)
        assert run_cli(capsys, ["equiv", SKEW3, "--messages", "2"])[0] == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["rd", BINARY, "--distortion", "0.2", "--seed", "1"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        second = run_cli(capsys, rd)
        assert first[0] == second[0] == 0
        assert strip_wall_clock(first[1]) == strip_wall_clock(second[1])
        assert _build_parser() is _build_parser()

    def test_output_flag_silences_stdout(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, ["rd", BINARY, "--distortion", "0.2", "--output",
                     str(out_path)])
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["command"] == "rd"

    def test_unwritable_output_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, ["rd", BINARY, "--distortion", "0.2", "--output",
                     "/nonexistent-dir/report.json"])
        assert code == 2
        assert "error:" in err


class TestFlagScope:
    # Each subcommand takes only the flags its handler reads.
    @pytest.mark.parametrize("argv", [
        pytest.param(["rd", BINARY, "--distortion", "0.1", "--seed", "1"], id="rd-seed"),
        pytest.param(["oneshot", SKEW3, "--criterion", "avg", "--messages", "2",
                      "--seed", "1"], id="oneshot-seed"),
        pytest.param(["sr", BINARY, "--d1", "0.5", "--d2", "0.1", "--seed", "1"],
                     id="sr-seed"),
        pytest.param(["equiv", SKEW3, "--messages", "2", "--seed", "3"], id="equiv-seed"),
        pytest.param(["equiv", SKEW3, "--messages", "2", "--samples", "5"],
                     id="equiv-samples"),
        pytest.param(["oneshot", SKEW3, "--criterion", "avg", "--messages", "2",
                      "--tol", "1e-6"], id="oneshot-tol"),
        pytest.param(["timeshare", "--px", "0.5,0.5", "--distortion", "0.3",
                      "--n", "10", "--seed", "0", "--tol", "1e-6"], id="timeshare-tol"),
    ])
    def test_unread_flag_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestEntryPoints:
    def test_module_invocation_reports_version(self):
        # The child imports the package from where this process found it.
        src = str(Path(loglosslab.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "loglosslab", "--version"],
            capture_output=True, text=True, check=True, env=env)
        assert proc.stdout.strip() == f"loglosslab {__version__}"

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
