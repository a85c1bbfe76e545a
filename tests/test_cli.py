"""End-to-end tests for the scenario runner."""

import dataclasses
import json

import jsonschema
import numpy as np
import pytest

from unicollapse import cli, collapse
from unicollapse.cli import (
    REPORT_SCHEMA,
    ConfigError,
    ScenarioConfig,
    main,
    run,
)
from unicollapse.grothendieck import GroupElement, MonoidPair
from unicollapse.linalg import StateVector


def strip_timing(report_text: str) -> dict:
    report = json.loads(report_text)
    report.pop("wall_time_s")
    return report


# ---------------------------------------------------------------------------
# scenario execution through the public entry point
# ---------------------------------------------------------------------------

def test_all_scenarios_pass(tmp_path, capsys):
    invocations = [
        ["grothendieck-int", "--range", "12"],
        ["envariance-restore", "--trials", "20", "--seed", "5"],
        ["equiv-laws", "--triples", "8", "--seed", "3"],
        ["born", "--weights", "2,3,5", "--denominator", "10"],
        ["darwinism", "--env-qubits", "6", "--seed", "2",
         "--out", str(tmp_path / "darwin")],
        ["nohide", "--dim", "2", "--inputs", "6", "--seed", "1"],
    ]
    for argv in invocations:
        assert main(argv) == 0, f"scenario failed: {argv}"
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["passed"]


def test_born_report_serializes_exact_fractions(capsys):
    assert main(["born", "--weights", "1,2", "--denominator", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["probabilities"] == ["1/3", "2/3"]
    for check in report["checks"]:
        assert check["passed"]


def test_darwinism_writes_curve_artifact(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["darwinism", "--env-qubits", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    csv_text = (out / "curve.csv").read_text()
    assert csv_text.splitlines()[0] == "f,mean_I_bits,samples,H_S"
    assert len(csv_text.splitlines()) == 7  # header + f = 0..5
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert str(out / "curve.csv") in report["artifacts"]


def test_same_seed_gives_byte_identical_outputs(tmp_path, capsys):
    out = tmp_path / "repeat"
    argv = ["darwinism", "--env-qubits", "6", "--seed", "7",
            "--samples-per-size", "10", "--record-angle", "0.6",
            "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    first_report = (out / "report.json").read_bytes()
    first_csv = (out / "curve.csv").read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    second_report = (out / "report.json").read_bytes()
    second_csv = (out / "curve.csv").read_bytes()
    assert first_csv == second_csv
    assert strip_timing(first_report.decode()) == strip_timing(second_report.decode())


def test_failing_tolerance_exits_one(capsys):
    code = main(["envariance-restore", "--trials", "5", "--tolerance", "1e-30"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"]
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing and failing[0]["residual"] > failing[0]["tolerance"]


def test_records_that_miss_the_joint_fail_gram_check(monkeypatch, capsys):
    real = cli.premeasure

    def skewed(system, n_env, record_angle=None):
        state = real(system, n_env, record_angle=record_angle)
        shifted = real(system, n_env, record_angle=record_angle + 0.01)
        return dataclasses.replace(state, records=shifted.records)

    monkeypatch.setattr(cli, "premeasure", skewed)
    assert main(["darwinism", "--env-qubits", "6", "--record-angle", "0.7"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
    assert not checks["gram_matches_dense"]["passed"]


def _failed_checks(argv, capsys) -> set:
    """Run ``argv``; it must exit 1 with no traceback.  Return the failed checks."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    return {c["name"] for c in json.loads(captured.out)["checks"] if not c["passed"]}


def _scaled_dense_shift(scale):
    """controlled_shift_gate as a dense permutation matrix times ``scale``."""
    real = collapse.controlled_shift_gate

    def gate(dim):
        image = real(dim)
        dense = np.zeros((image.size, image.size))
        dense[image, np.arange(image.size)] = scale
        return dense

    return gate


def test_born_norm_drift_fails_global_purity(monkeypatch, capsys):
    monkeypatch.setattr(collapse, "controlled_shift_gate", _scaled_dense_shift(1.001))
    assert "global_purity" in _failed_checks(["born", "--weights", "2,3"], capsys)


def test_born_non_bijective_gate_fails_unitarity(monkeypatch, capsys):
    real = collapse.controlled_shift_gate

    def broken(dim):
        gate = real(dim).copy()
        gate[1] = gate[0]
        return gate

    monkeypatch.setattr(collapse, "controlled_shift_gate", broken)
    assert "fine_graining_unitary" in _failed_checks(["born", "--weights", "2,3"], capsys)


def test_born_uneven_coarse_amplitude_fails_flatness_and_envariance(monkeypatch, capsys):
    real = collapse.tensor

    def skewed(coarse, *rest):
        amps = coarse.amplitudes.copy()
        amps[np.flatnonzero(amps)[0]] *= 1.1
        return real(StateVector(amps, coarse.factor_dims), *rest)

    monkeypatch.setattr(collapse, "tensor", skewed)
    failed = _failed_checks(["born", "--weights", "2,3"], capsys)
    assert {"fine_amplitudes_flat", "branch_transpositions_envariant"} <= failed


def test_darwinism_norm_drift_fails_global_purity(monkeypatch, capsys):
    monkeypatch.setattr(collapse, "controlled_shift_gate", _scaled_dense_shift(1.001))
    assert "global_purity" in _failed_checks(["darwinism", "--env-qubits", "6"], capsys)


def test_crossed_group_add_fails_homomorphism(monkeypatch, capsys):
    def crossed(x, y):
        return GroupElement(MonoidPair(x.pair.pos + y.pair.neg,
                                       x.pair.neg + y.pair.pos), x.monoid)

    monkeypatch.setattr(cli, "group_add", crossed)
    failed = _failed_checks(["grothendieck-int", "--range", "6"], capsys)
    assert "add_neg_homomorphism" in failed


def test_identity_group_neg_fails_homomorphism(monkeypatch, capsys):
    monkeypatch.setattr(cli, "group_neg", lambda x: x)
    failed = _failed_checks(["grothendieck-int", "--range", "6"], capsys)
    assert "add_neg_homomorphism" in failed


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "born.json"
    config.write_text(json.dumps({"weights": [1, 1], "seed": 9}))
    assert main(["born", "--config", str(config), "--weights", "1,3"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the flag wins over the file value
    assert report["config"]["weights"] == [1, 3]
    assert report["config"]["seed"] == 9


def test_unknown_config_field_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"wieghts": [1, 1]}))
    assert main(["born", "--config", str(config)]) == 2
    assert "unknown fields" in capsys.readouterr().err


def test_config_scenario_mismatch_rejected(tmp_path, capsys):
    config = tmp_path / "other.json"
    config.write_text(json.dumps({"scenario": "nohide"}))
    assert main(["born", "--config", str(config)]) == 2


def test_denominator_mismatch_is_config_error(capsys):
    assert main(["born", "--weights", "1,2", "--denominator", "4"]) == 2
    assert "denominator" in capsys.readouterr().err


def test_budget_violations_are_config_errors(capsys):
    assert main(["darwinism", "--env-qubits", "30"]) == 2
    capsys.readouterr()
    assert main(["nohide", "--dim", "40"]) == 2
    capsys.readouterr()
    assert main(["born", "--weights", "1,1,1,1,1,1,1,43"]) == 2


def test_malformed_weights_flag(capsys):
    assert main(["born", "--weights", "1,x"]) == 2


@pytest.mark.parametrize("values", [
    {"seed": "abc"}, {"env_qubits": 3.5}, {"weights": ["x"]},
])
def test_mistyped_config_values_exit_two(tmp_path, capsys, values):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(values))
    assert main(["darwinism", "--config", str(config)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_unwritable_out_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["born", "--weights", "1,2", "--out", str(blocker / "x")]) == 2
    assert "config error:" in capsys.readouterr().err


def test_validate_checks_field_types():
    for bad in ({"seed": True}, {"seed": 1.0}, {"dim": "3"},
                {"record_angle": "0.5"}, {"weights": (1, 2.0)},
                {"weights": [1, 2]}, {"out": 3}, {"tolerance": None}):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="nohide", **bad).validate()
    # an int is a valid float, and None a valid Optional
    ScenarioConfig(scenario="darwinism", record_angle=1, denominator=None).validate()


def test_unknown_scenario_rejected_by_parser():
    with pytest.raises(SystemExit) as exit_info:
        main(["definitely-not-a-scenario"])
    assert exit_info.value.code == 2


def test_validate_rejects_out_of_range_fields(tmp_path, capsys):
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="equiv-laws", triples=0).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="darwinism", delta=2.0).validate()
    config = tmp_path / "state.json"
    config.write_text(json.dumps({"state": "w"}))
    assert main(["darwinism", "--config", str(config)]) == 2
    assert "unknown fields" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="grothendieck-int", seed=-1).validate()


def test_run_reports_validate_against_schema():
    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)
    report, code = run(ScenarioConfig(scenario="born", weights=(2, 2)))
    assert code == 0
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["results"]["probabilities"] == ["1/2", "1/2"]
