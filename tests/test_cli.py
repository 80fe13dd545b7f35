import dataclasses
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
from loglosslab import (Check, Pmf, ValidationError, __version__, cli, equivalence, oneshot,
                        problemio, refinement)
from loglosslab.cli import _build_parser, main
from loglosslab.oneshot import (floor_exp, logloss_codebook, logloss_excess_optimum,
                                solve_excess)
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


def parser_error(capsys, argv) -> str:
    """The last stderr line of an argv that argparse refuses with exit 2."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


def wall_clock_dropped(out: str) -> str:
    return "\n".join(line for line in out.splitlines() if '"wall_clock_seconds"' not in line)


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
        with pytest.raises(ValidationError, match="field 'distortion': SourceProblem: "
                                                  "distortion is not convertible to floats"):
            load_problem(path)

    def test_non_numeric_entry_names_position(self, tmp_path):
        path = write_problem(tmp_path, "px: [0.5, oops]\ndistortion: hamming\n")
        with pytest.raises(ValidationError, match=r"field 'px': Pmf: probs\[1\] must be a real "
                                                  "number, got 'oops'"):
            load_problem(path)

    def test_label_count_mismatch(self, tmp_path):
        path = write_problem(
            tmp_path, "px: [0.5, 0.5]\ndistortion: hamming\nlabels: [a]\n")
        with pytest.raises(ValidationError,
                           match=r"field 'labels': len\(labels\) = 1 must equal px.n = 2"):
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
        ("px: 0.5\ndistortion: hamming\n", r"field 'px': Pmf: probs must be 1-D, got shape \(\)"),
        ("px: [0.5, 0.6]\ndistortion: hamming\n", "field 'px': Pmf: sums to"),
        ("px: [0.5, 0.5]\ndistortion: 3\n",
         r"field 'distortion': SourceProblem: distortion must be 2-D, got shape \(\)"),
        ("px: [0.5, 0.5]\ndistortion: hamming\nlabels: [1, 2]\n",
         r"field 'labels': labels\[0\] must be a str, got int"),
        # A mapping is not a list of labels, though it iterates as its keys.
        ("px: [0.5, 0.5]\ndistortion: hamming\nlabels: {a: 1, b: 2}\n",
         "field 'labels': labels must be a sequence, got {'a': 1, 'b': 2}"),
        # A set has no order to match the symbols by.
        ("px: [0.5, 0.5]\ndistortion: hamming\nlabels: !!set {a, b}\n",
         "field 'labels': labels must be a sequence, got {'"),
        ("px: [0.5, 0.5]\ndistortion: hamming\nname: 3\n",
         "field 'name': name must be a str, got int"),
        # Exponent floats load, but quoted numbers, nan and overflow do not.
        ("px: ['1e-3', 0.999]\ndistortion: hamming\n",
         r"field 'px': Pmf: probs\[0\] must be a real number, got '1e-3'"),
        ("px: [0.5, \"0.5\"]\ndistortion: hamming\n",
         r"field 'px': Pmf: probs\[1\] must be a real number, got '0.5'"),
        ("px: [0.5, 0.5]\ndistortion: [[0, 1], [1, x]]\n",
         r"field 'distortion': SourceProblem: distortion\[1, 1\] must be a real number, "
         "got 'x'"),
        ("px: [.nan, 1]\ndistortion: hamming\n",
         "field 'px': Pmf: probs entries must be finite"),
        ("px: [0.5, 0.5]\ndistortion: [[0, 1e400], [1, 0]]\n",
         "field 'distortion': SourceProblem: distortion entries must be finite"),
    ])
    def test_bad_field_is_named(self, tmp_path, text, match):
        with pytest.raises(ValidationError, match=match):
            load_problem(write_problem(tmp_path, text))

    @pytest.mark.parametrize("entry, value", [
        ("'0.5'", "0.5"), ("~", None), ("true", True), ("1" + "0" * 400, 10**400),
        (".nan", math.nan), (".inf", math.inf), ("-0.5", -0.5),
    ], ids=["quoted", "null", "bool", "400-digit", "nan", "inf", "negative"])
    def test_a_wrong_px_entry_is_refused_as_pmf_refuses_it(self, tmp_path, entry, value):
        # The file's refusal is Pmf's own, for the list YAML reads.
        path = write_problem(tmp_path, f"px: [0.5, {entry}]\ndistortion: hamming\n")
        with pytest.raises(ValidationError) as pmf:
            Pmf([0.5, value])
        with pytest.raises(ValidationError) as err:
            load_problem(path)
        assert str(err.value) == f"{path}: field 'px': {pmf.value}"

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

    def test_jsonable_only_rounds(self):
        # No key converts: a value keeps the unit its command gave it.
        doc = {"rate": LN2, "inner": {"rate": [LN2, np.float64(2 * LN2)], "d": LN2},
               "flag": True}
        out = jsonable(doc)
        assert out == {"rate": round_sig(LN2),
                       "inner": {"rate": [round_sig(LN2), round_sig(2 * LN2)],
                                 "d": round_sig(LN2)},
                       "flag": True}


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
        assert parser_error(capsys, ["rd", BINARY, "--distortion", "0.1", "--grid", "0.2"]) \
            == "loglosslab rd: error: argument --grid: not allowed with argument --distortion/-D"
        assert parser_error(capsys, ["rd", BINARY]) == (
            "loglosslab rd: error: one of the arguments --distortion/-D --grid is required")

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

    def test_bits_with_table_is_refused_before_the_command_runs(self, capsys):
        # Simulating these 10^8 samples takes over a second.
        start = time.perf_counter()
        result = run_cli(capsys, ["timeshare", "--px", "0.25,0.25,0.25,0.25", "--distortion",
                                  "0.5", "--n", "100000000", "--seed", "1", "--format",
                                  "table", "--bits"])
        assert time.perf_counter() - start <= 0.3
        assert result == (2, "", "error: --bits applies to report format only\n")


def float_paths(doc, path=""):
    """(path, value) for each float in doc, in document order.

    A list index reads ``[]`` and an entry of a list of named records (SR
    checks) reads ``[name]``; a bool or an int is not a float.
    """
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from float_paths(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for entry in doc:
            name = entry.get("name", "") if isinstance(entry, dict) else ""
            yield from float_paths(entry, f"{path}[{name}]")
    elif isinstance(doc, float):
        yield path, doc


# command: (argv, the nat-valued float paths of its outputs, the other float paths)
UNIT_INVENTORY = {
    "rd": (["rd", BINARY, "--grid", "0.05,0.1,0.2"],
           {"points[].rate", "points[].lambda_star", "points[].tilted_information[]",
            "points[].csiszar_residual"},
           {"points[].target_distortion", "points[].achieved_distortion",
            "points[].output_marginal[]"}),
    "oneshot": (["oneshot", SKEW3, "--criterion", "avg", "--logloss", "--messages", "2"],
                {"optimal_value"},
                {"scheme.cell_masses[]", "scheme.reproduction_rows[][]"}),
    "equiv": (["equiv", SKEW3, "--messages", "2"],
              {"lambda_star", "h_x_given_xhat", "identity.residual_bound",
               "identity.max_residual", "identity.min_log_loss", "coincidence.min_log_loss"},
              {"d_star_m", "reproduction_rows[][]", "identity.min_distortion",
               "coincidence.min_distortion"}),
    "sr": (["sr", BINARY, "--chain", "0.65,0.5,0.35", "--d2", "0.1"],
           {"fine_rate", "fine_lambda", "layers[].d1", "layers[].rates[]",
            "layers[].checks[coarse_rate].residual", "layers[].checks[coarse_loss].residual",
            "layers[].checks[fine_rate].residual"},
           {"d2", "layers[].delta", "layers[].reproduction_rows[][]",
            "layers[].checks[markov_factorization].residual",
            "layers[].checks[fine_distortion].residual",
            "layers[].checks[posterior_rows].residual"}),
    "timeshare": (["timeshare", SKEW3, "--distortion", "0.3", "--d2", "0.1", "--n", "2000",
                   "--seed", "1"],
                  {"entropy", "decoders[].target_distortion", "decoders[].empirical_loss",
                   "decoders[].ideal_rate"},
                  {"decoders[].loss_deviation_sigma", "decoders[].rate_deviation_sigma"}),
}


class TestReportUnits:
    @pytest.mark.parametrize("command", sorted(UNIT_INVENTORY))
    def test_bits_divides_exactly_the_nat_values(self, capsys, command):
        argv, nat, other = UNIT_INVENTORY[command]
        assert not nat & other
        nats = run_report(capsys, argv)
        bits = run_report(capsys, argv + ["--bits"])
        # inputs and tolerances echo what the library was given, in any unit.
        for block in ("inputs", "tolerances"):
            assert bits[block] == nats[block]
        pairs = list(zip(float_paths(nats["outputs"]), float_paths(bits["outputs"]),
                         strict=True))
        assert {path for (path, _), _ in pairs} == nat | other
        for (path, in_nats), (bits_path, in_bits) in pairs:
            assert bits_path == path
            if path in nat:
                assert in_bits == pytest.approx(in_nats / LN2, rel=1e-11, abs=0.0), path
            else:
                assert in_bits == in_nats, path

    @pytest.mark.parametrize("grid", ["0.05,0.0501", "0.1,0.1001", "0.2,0.2001"])
    @pytest.mark.parametrize("units", [[], ["--bits"]])
    def test_slope_is_in_the_unit_of_the_rate(self, capsys, grid, units):
        # -(R(D2) - R(D1)) / (D2 - D1) is the mean of the two slopes up to
        # 1.2e-7 relative on the binary Hamming curve, in either unit.
        first, second = run_report(capsys, ["rd", BINARY, "--grid", grid] + units)[
            "outputs"]["points"]
        quotient = -((second["rate"] - first["rate"])
                     / (second["target_distortion"] - first["target_distortion"]))
        mean = (first["lambda_star"] + second["lambda_star"]) / 2
        assert quotient == pytest.approx(mean, rel=1e-6)


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

    @pytest.mark.parametrize("table", [[], ["--format", "table"]])
    def test_an_oracle_that_disagrees_exits_one_after_the_report(self, capsys, table):
        # The report is written whole; one stderr line names both values.
        argv = ["oneshot", SKEW3, "--criterion", "avg", "--messages", "2", *table]
        passed, want, _ = run_cli(capsys, argv)
        values = []

        def moved(problem, m):
            values.append(oneshot.solve_avg_oracle(problem, m))
            return values[-1] + 0.25

        with mock.patch.object(cli, "solve_avg_oracle", moved):
            code, out, err = run_cli(capsys, argv)
        assert (passed, code) == (0, 1)
        value, = values
        assert err == (f"error: oneshot: the oracle's value {value + 0.25} differs from "
                       f"the solver's {value}\n")
        if table:  # the table has no oracle column
            assert out == want
            return
        want, got = json.loads(want), json.loads(out)
        want["outputs"]["oracle"] = {"value": round_sig(value + 0.25), "agrees": False}
        for report in (want, got):
            del report["wall_clock_seconds"]
        assert got == want

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

    @pytest.mark.parametrize("criterion, called", [
        (["excess", "--messages", "2"], "logloss_excess_optimum"),
        (["codebook", "--epsilon", "0"], "logloss_codebook"),
    ])
    def test_logloss_distortion_past_the_largest_float_exits_two(self, capsys, criterion, called):
        code, _, err = run_cli(capsys, ["oneshot", SKEW3, "--criterion", *criterion,
                                        "--logloss", "--distortion", "1e308"])
        assert code == 2, err
        assert f"error: {called}: d must be at most 709.783, got 1e+308" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("criterion", [
        ["avg"],
        ["excess", "--distortion", "0.5"],
        ["excess", "--logloss", "--distortion", "0.5"],
        ["excess", "--logloss", "--distortion", "50"],
    ])
    def test_message_count_past_the_columns_costs_nothing(self, capsys, criterion):
        # A code carries min(M, s) messages, a log-loss scheme one per
        # filled cell, so neither the work nor the report grows with M.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["oneshot", SKEW3, "--criterion", *criterion,
                                          "--messages", str(10**18)])
        elapsed = time.perf_counter() - start
        assert code == 0, err
        assert len(out.encode()) < 4096
        assert elapsed <= 1.0, f"{elapsed:.2f}s"

    def test_equiv_past_the_columns_sits_at_the_curve_endpoint(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, ["equiv", SKEW3, "--messages", str(10**18)])
        elapsed = time.perf_counter() - start
        assert code == 1
        assert "sits at a curve endpoint" in err
        assert "Traceback" not in err
        assert elapsed <= 1.0, f"{elapsed:.2f}s"

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

    def test_codebook_scans_each_size_once(self, capsys, tmp_path):
        # M* = 3 here, below the greedy bound of 4: the scan at 3 that proves
        # M* also gives the witness, so no size is scanned twice.
        rng = np.random.default_rng(3)
        px = rng.random(20)
        path = write_problem(tmp_path, yaml.safe_dump(
            {"px": (px / px.sum()).tolist(), "distortion": rng.random((20, 20)).tolist()}))
        argv = ["oneshot", path, "--criterion", "codebook",
                "--distortion", "0.3", "--epsilon", "0.05"]
        with mock.patch.object(oneshot, "_first_best_subset",
                               wraps=oneshot._first_best_subset) as scan:
            code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        assert [call.args[1] for call in scan.call_args_list] == [1, 2, 3]
        outputs = json.loads(out)["outputs"]
        assert outputs["m_star"] == 3
        # The same code and epsilon as a fresh scan at M* gives.
        witness, value = solve_excess(load_problem(path).problem, 3, 0.3)
        assert outputs["scheme"] == {"encoder": list(witness.encoder),
                                     "decoder": list(witness.decoder)}
        assert outputs["achieved_epsilon"] == round_sig(value)

    def test_excess_matches_witness(self, capsys):
        report = run_report(
            capsys, ["oneshot", SKEW3, "--criterion", "excess",
                     "--messages", "2", "--distortion", "0.5"])
        code, value = solve_excess(load_problem(SKEW3).problem, 2, 0.5)
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
        code, value = logloss_codebook(px, 0.5, epsilon)
        at_m_star, value_at_m_star = logloss_excess_optimum(px, code.n_messages, 0.5)
        assert code.encoder == at_m_star.encoder and value == value_at_m_star
        out = report["outputs"]
        assert out["m_star"] == code.n_messages
        assert out["achieved_epsilon"] == round_sig(value) <= epsilon + 1e-12
        assert out["scheme"] == {"sort_order": np.argsort(-px.probs, kind="stable").tolist(),
                                 "cell_size": floor_exp(0.5),
                                 "encoder": list(code.encoder)}
        assert "messages" not in report["inputs"]["flags"]

    @pytest.mark.parametrize("flags, message", [
        # avg takes no --distortion, excess needs one, codebook computes M.
        (["avg", "--messages", "2", "--distortion", "0.5"],
         "oneshot avg: --distortion does not apply"),
        (["excess", "--messages", "2"], "oneshot excess: --distortion is required"),
        (["codebook", "--distortion", "0.5", "--epsilon", "0.1", "--messages", "2"],
         "oneshot codebook: --messages does not apply"),
        (["avg", "--messages", "2", "--epsilon", "0.1"], "oneshot avg: --epsilon does not apply"),
        (["excess", "--messages", "0", "--distortion", "0.5"],
         "solve_excess: n_messages must be an integer >= 1, got 0"),
        (["avg", "--messages", "-1", "--logloss"],
         "logloss_avg_optimum: n_messages must be an integer >= 1, got -1"),
        (["codebook", "--distortion", "0.5"], "oneshot codebook: --epsilon is required"),
        # With several wrong, the first in the order messages, distortion, epsilon.
        (["codebook", "--messages", "2"], "oneshot codebook: --messages does not apply"),
        (["avg", "--messages", "2", "--distortion", "0.5", "--epsilon", "0.1"],
         "oneshot avg: --distortion does not apply"),
        (["excess", "--messages", "2", "--epsilon", "0.1"],
         "oneshot excess: --distortion is required"),
    ])
    def test_flag_consistency_enforced(self, capsys, flags, message):
        code, _, err = run_cli(capsys, ["oneshot", SKEW3, "--criterion", *flags])
        assert code == 2
        assert err == f"error: {message}\n"


class TestEquivCommand:
    def test_skewed3_exhaustive(self, capsys):
        report = run_report(capsys, ["equiv", SKEW3, "--messages", "2"])
        out = report["outputs"]
        assert out["d_star_m"] == pytest.approx(0.2, abs=1e-12)
        assert out["identity"]["skipped"] is False
        assert out["identity"]["max_residual"] < 1e-6
        assert out["identity"]["max_residual"] <= out["identity"]["residual_bound"] <= 1e-9
        assert out["coincidence"]["matched"] is True
        assert out["coincidence"]["scored_decoders"] > 0

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

    def test_one_message_sits_at_the_knee_and_names_the_called_function(self, capsys):
        # D*(1) is the best single column, D_max of the curve.
        code, _, err = run_cli(capsys, ["equiv", SKEW3, "--messages", "1"])
        assert code == 1
        assert err.startswith("error: build_corresponding: D*(1) = 0.5 sits at a curve "
                              "endpoint of [0.0, 0.5]"), err

    def test_zero_messages_exit_two(self, capsys):
        code, _, err = run_cli(capsys, ["equiv", SKEW3, "--messages", "0"])
        assert code == 2
        assert err == "error: build_corresponding: n_messages must be an integer >= 1, got 0\n"

    def test_messages_are_required(self, capsys):
        assert parser_error(capsys, ["equiv", SKEW3]) == (
            "loglosslab equiv: error: the following arguments are required: --messages/-M")

    def test_missed_distortion_exits_one(self, capsys, tmp_path):
        # Hamming distortion scaled by 1e308: the solve at D*(2) = 0.2e308
        # reaches distortion 0.0, and the error names that, not the rate.
        big = "[[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]"
        path = write_problem(tmp_path, f"px: [0.5, 0.3, 0.2]\ndistortion: {big}\n")
        code, _, err = run_cli(capsys, ["equiv", path, "--messages", "2"])
        assert code == 1
        assert "achieved distortion 0.0 misses the target 2.0000000000000002e+307" in err
        assert "exceeds ln M" not in err

    def test_both_blocks_are_filled_at_1e11_code_pairs(self, capsys, tmp_path):
        # Uniform Hamming on 16 symbols at M = 3: 3^16 * 16^3 = 1.8e11 code
        # pairs, from C(16, 3) * 16 * 3 cost entries for the sweep and
        # 16^3 * 16 * 3 decoder costs for the coincidence check.  Measured
        # at about 20 ms on a 2-core machine.
        path = write_problem(tmp_path, f"px: {[1 / 16] * 16}\ndistortion: hamming\n")
        start = time.perf_counter()
        report = run_report(capsys, ["equiv", path, "--messages", "3"])
        elapsed = time.perf_counter() - start
        identity = report["outputs"]["identity"]
        assert identity["skipped"] is False
        assert identity["n_codes"] == 3**16 * 16**3
        assert 0.0 < identity["max_residual"] <= identity["residual_bound"] <= 1e-12
        coincidence = report["outputs"]["coincidence"]
        assert coincidence["matched"] is True
        assert coincidence["n_distortion_argmin"] == coincidence["n_loss_argmin"] == 5_356_925_280
        assert (identity["min_distortion"], identity["min_log_loss"]) \
            == (coincidence["min_distortion"], coincidence["min_log_loss"]) \
            == (0.8125, 2.68286835357)
        assert elapsed <= 2.0, f"{elapsed:.2f}s"

    def test_a_null_cell_prints_as_null_in_the_table(self, capsys, tmp_path):
        # Past the sweep's guard the report's max_residual is null, and the
        # table prints it as the report does, not as Python's None.
        path = write_problem(tmp_path, f"px: {[1 / 20] * 20}\ndistortion: hamming\n")
        code, out, _ = run_cli(capsys, ["equiv", path, "--messages", "7", "--format", "table"])
        assert code == 0
        header, row = (line.split("\t") for line in out.splitlines())
        assert dict(zip(header, row))["max_residual"] == "null"
        assert "None" not in out

    def test_past_the_decoder_guard_the_identity_is_still_checked(self, capsys, tmp_path):
        # On 12 symbols at M = 10 the count would read 12^10 * 12 * 10
        # costs, and the sweep reads C(12, 10) * 12 * 10 = 7,920.
        path = write_problem(tmp_path, f"px: {[1 / 12] * 12}\ndistortion: hamming\n")
        report = run_report(capsys, ["equiv", path, "--messages", "10"])
        identity = report["outputs"]["identity"]
        assert identity["skipped"] is False
        assert identity["n_codes"] == 10**12 * 12**10
        assert 0.0 < identity["max_residual"] <= identity["residual_bound"] <= 1e-12
        assert [identity[key] for key in ("min_log_loss", "min_distortion")] == [None] * 2
        assert report["outputs"]["coincidence"] is None

    def test_past_both_guards_reports_the_bound_alone(self, capsys, tmp_path):
        # On 20 symbols at M = 7 the sweep would read C(20, 7) * 20 * 7 =
        # 10,852,800 cost entries and the count 20^7 * 20 * 7.  The build
        # takes about 0.66 s; both refusals come at once.
        path = write_problem(tmp_path, f"px: {[1 / 20] * 20}\ndistortion: hamming\n")
        start = time.perf_counter()
        report = run_report(capsys, ["equiv", path, "--messages", "7"])
        elapsed = time.perf_counter() - start
        identity = report["outputs"]["identity"]
        assert identity["skipped"] is True
        assert 0.0 < identity["residual_bound"] <= 1e-12
        assert [identity[key] for key in ("n_codes", "max_residual", "min_log_loss",
                                          "min_distortion")] == [None] * 4
        assert report["outputs"]["coincidence"] is None
        assert elapsed <= 2.0, f"{elapsed:.2f}s"

    @pytest.mark.parametrize("table", [[], ["--format", "table"]])
    def test_a_failed_coincidence_exits_one_after_the_report(self, capsys, table):
        argv = ["equiv", SKEW3, "--messages", "2", *table]
        passed = main(argv)
        want = capsys.readouterr().out.replace("pass", "FAIL").replace(
            '"matched": true', '"matched": false')

        def unmatched(cp):
            return dataclasses.replace(equivalence.verify_optimum_coincidence(cp), matched=False)

        with mock.patch.object(cli, "verify_optimum_coincidence", unmatched):
            code, out, err = run_cli(capsys, argv)
        assert (passed, code) == (0, 1)
        assert err == ("error: equiv: the coincidence check failed: the distortion and "
                       "log-loss argmin sets differ\n")
        assert wall_clock_dropped(out) == wall_clock_dropped(want)

    # A zero bound prints as the report prints 0.0.
    @pytest.mark.parametrize("table, zero", [([], "0.0"), (["--format", "table"], "0")])
    def test_a_residual_past_its_bound_exits_one_after_the_report(self, capsys, table, zero):
        argv = ["equiv", SKEW3, "--messages", "2", *table]
        passed = main(argv)
        want = capsys.readouterr().out.replace("1.82890818134e-14", zero)
        with mock.patch.object(cli, "identity_bound", lambda cp: 0.0):
            code, out, err = run_cli(capsys, argv)
        assert (passed, code) == (0, 1)
        assert err == ("error: equiv: the identity check failed: max_residual "
                       "1.1102230246251565e-16 exceeds residual_bound 0.0\n")
        assert wall_clock_dropped(out) == wall_clock_dropped(want)

    @pytest.mark.parametrize("units", [[], ["--bits"]])
    def test_identity_optima_are_the_coincidence_optima(self, capsys, units):
        # The identity block prints the coincidence report's optima: moved
        # there, they move in both blocks.
        def moved(cp):
            report = equivalence.verify_optimum_coincidence(cp)
            return dataclasses.replace(report, min_distortion=0.25, min_loss=0.5)

        with mock.patch.object(cli, "verify_optimum_coincidence", moved):
            out = run_report(capsys, ["equiv", SKEW3, "--messages", "2", *units])["outputs"]
        assert out["identity"]["min_distortion"] == 0.25
        for key in ("min_distortion", "min_log_loss"):
            assert out["identity"][key] == out["coincidence"][key]

    def test_optimum_off_the_support_exits_one(self, capsys, tmp_path):
        # The one-shot optimum at M = 2 decodes to column 3, which the R(D)
        # point at D*(2) prunes.  Once this printed "matched": true.
        px = [0.03342033696893241, 0.22127550618592393, 0.09416457801968742,
              0.16790961029966858, 0.20421016801652594, 0.27901980050926173]
        distortion = [[1, 1, 1, 0], [0, 3, 0, 0], [0, 3, 3, 3],
                      [0, 3, 0, 1], [3, 3, 1, 1], [1, 0, 3, 3]]
        path = write_problem(tmp_path, f"px: {px}\ndistortion: {distortion}\n")
        code, out, err = run_cli(capsys, ["equiv", path, "--messages", "2"])
        assert (code, out) == (1, "")
        assert err == ("error: build_corresponding: the one-shot optimum decodes message 1 "
                       "to column 3, which the R(D) point at D*(2) prunes "
                       "(kept columns (0, 1, 2))\n")

    def test_argmin_counts_stream_no_pair(self, capsys):
        # The report prints the sizes of the argmin sets, never their pairs.
        with mock.patch.object(equivalence._ArgminSet, "__iter__", autospec=True,
                               side_effect=equivalence._ArgminSet.__iter__) as stream:
            report = run_report(capsys, ["equiv", SKEW3, "--messages", "2"])
        coincidence = report["outputs"]["coincidence"]
        assert coincidence["n_distortion_argmin"] == coincidence["n_loss_argmin"] > 0
        assert stream.call_count == 0


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
        assert parser_error(capsys, ["sr", BINARY, "--d1", "0.5", "--chain", "0.6",
                                     "--d2", "0.1"]) == (
            "loglosslab sr: error: argument --chain: not allowed with argument --d1")
        assert parser_error(capsys, ["sr", BINARY, "--d2", "0.1"]) == (
            "loglosslab sr: error: one of the arguments --d1 --chain is required")
        assert parser_error(capsys, ["sr", BINARY, "--d1", "0.5"]) == (
            "loglosslab sr: error: the following arguments are required: --d2")

    def test_infeasible_coarse_target_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, ["sr", BINARY, "--d1", "0.1", "--d2", "0.1"])
        assert code == 1

    def test_a_failed_check_exits_one_after_the_report(self, capsys, tmp_path):
        # The report goes to --output whole; stderr names the failed check.
        argv = ["sr", BINARY, "--chain", "0.6,0.4", "--d2", "0.1", "--output"]
        assert main([*argv, str(tmp_path / "passed.json")]) == 0

        def failing(layer):
            report = refinement.verify_sr(layer)
            if layer.d1 != 0.4:
                return report
            rate = report.checks[1]
            return dataclasses.replace(report, checks=(
                report.checks[0], Check(rate.name, rate.bound * 2, rate.bound),
                *report.checks[2:]))

        with mock.patch.object(cli, "verify_sr", failing):
            code, out, err = run_cli(capsys, [*argv, str(tmp_path / "failed.json")])
        assert (code, out) == (1, "")
        assert err == "error: sr: failed checks: coarse_rate at d1 = 0.4\n"
        passed, failed = (json.loads((tmp_path / f"{name}.json").read_text())
                          for name in ("passed", "failed"))
        layer = passed["outputs"]["layers"][1]
        layer["all_checks_pass"] = layer["checks"][1]["ok"] = False
        layer["checks"][1]["residual"] = failed["outputs"]["layers"][1]["checks"][1]["residual"]
        for report in (passed, failed):
            del report["wall_clock_seconds"]
        assert failed == passed


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

    @pytest.mark.parametrize("source", [[SKEW3, "--px", "0.5,0.5"], []], ids=["both", "neither"])
    def test_source_exclusivity(self, capsys, source):
        base = ["--distortion", "0.3", "--n", "100", "--seed", "1"]
        code, _, err = run_cli(capsys, ["timeshare", *source] + base)
        assert code == 2
        assert err == "error: timeshare: give exactly one of a problem file or --px\n"

    def test_required_flags(self, capsys):
        for flag, argv in [("--distortion/-D", ["--n", "100", "--seed", "1"]),
                           ("--n", ["--distortion", "0.3", "--seed", "1"]),
                           ("--seed", ["--distortion", "0.3", "--n", "100"])]:
            assert parser_error(capsys, ["timeshare", SKEW3, *argv]) == (
                f"loglosslab timeshare: error: the following arguments are required: {flag}")

    def test_zero_blocklength_is_refused_by_the_sampler(self, capsys):
        code, _, err = run_cli(capsys, ["timeshare", SKEW3, "--distortion", "0.3",
                                        "--n", "0", "--seed", "1"])
        assert code == 2
        assert err == "error: timeshare_simulate: n must be an integer >= 1, got 0\n"

    def test_negative_seed_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["timeshare", "--px", "0.5,0.5", "--distortion",
                                        "0.3", "--n", "10", "--seed", "-1"])
        assert code == 2
        assert "seed must be an integer >= 0, got -1" in err

    def test_infeasible_second_target_is_named(self, capsys):
        code, out, err = run_cli(capsys, ["timeshare", "--px", "0.5,0.5", "--distortion",
                                          "0.5", "--d2", "-0.2", "--n", "10", "--seed", "0"])
        assert (code, out) == (1, "")
        assert "error: timeshare_two_decoders: d2 = -0.2 outside" in err

    def test_sample_count_past_its_guard_exits_one(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["timeshare", "--px", "0.5,0.5", "--distortion",
                                          "0.3", "--seed", "0", "--n", "1000000000001"])
        elapsed = time.perf_counter() - start
        assert (code, out) == (1, "")
        assert "timeshare_simulate: 1000000000001 samples exceeds guard 1000000000" in err
        assert "Traceback" not in err
        assert elapsed <= 1.0, f"{elapsed:.2f}s"


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

    def test_overflowing_file_entry_exits_two_without_a_traceback(self, tmp_path):
        path = write_problem(tmp_path, f"px: [0.5, 1{'0' * 400}]\ndistortion: hamming\n")
        src = str(Path(loglosslab.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "loglosslab", "rd", path, "--distortion", "0.1"],
            capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {path}: field 'px': Pmf: probs entries must be finite\n"

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
