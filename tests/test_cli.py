"""End-to-end tests for the scenario runner."""

import contextlib
import dataclasses
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unicollapse import cli, collapse, envariance
from unicollapse.cli import (
    REPORT_SCHEMA,
    ConfigError,
    ScenarioConfig,
    main,
    run,
)
from unicollapse.grothendieck import (
    NATURALS_ADD,
    GroupElement,
    MonoidPair,
    pair_equivalent,
)
from unicollapse.linalg import (
    StateVector,
    distance,
    haar_unitary,
    partial_trace,
    random_state,
)


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
        ["born", "--weights", "2,3,5"],
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
    assert main(["born", "--weights", "1,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["probabilities"] == ["1/3", "2/3"]
    assert report["results"]["denominator"] == 3
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


def per_object_chain(d_p: int, d_n: int, seed: int):
    """``envariance.sample_chain`` built one object at a time, as it was
    before the stacked kernels: each state normalized once."""
    rng = np.random.default_rng(seed)
    w_p = haar_unitary(d_p, rng)
    e = StateVector(rng.standard_normal(d_p) + 1j * rng.standard_normal(d_p))
    c = w_p.apply(e)
    a = w_p.apply(c)
    b, d, f = (StateVector(rng.standard_normal(d_n) + 1j * rng.standard_normal(d_n))
               for _ in range(3))
    return (envariance.link_product_pairs((a, b), (c, d)),
            envariance.link_product_pairs((c, d), (e, f)), w_p)


def per_object_equiv_laws(triples: int, seed: int) -> dict:
    """equiv-laws triple by triple through the object API: the loop the
    stacked passes replaced, kept as their reference.  The symmetry rotation
    is drawn before the law check, as the stacked draw pass draws it.
    Returns each check's residual."""
    rng = np.random.default_rng(seed)
    out = dict.fromkeys(["reflexivity_failures", "verdict_law_failures",
                         "symmetry_residual_max", "transitivity_residual_max",
                         "witness_unitarity_max"], 0.0)
    for index in range(triples):
        d_p = int(rng.choice([2, 3]))
        d_n = int(rng.choice([2, 3]))
        x = envariance.JointPairState(random_state(d_p * d_n, rng, (d_p, d_n)), (d_p, d_n))

        def rotate(source):
            u, v = haar_unitary(d_p, rng), haar_unitary(d_n, rng)
            moved = u.entries @ source.joint.amplitudes.reshape(d_p, d_n) @ v.entries.T
            return envariance.JointPairState(StateVector(moved.reshape(-1)), (d_p, d_n))

        y = rotate(x)
        z = rotate(y)
        xx, xy, yz, xz, yx = verdicts = [
            envariance.pair_equivalent(s, t, trials=1 if s is t else 2, seed=seed + index)
            for s, t in ((x, x), (x, y), (y, z), (x, z), (y, x))]
        witnesses = [w for v in verdicts for w in v.witnesses]
        rotation = envariance.sample_envariant_unitary(y, rng)
        out["reflexivity_failures"] += not xx.related
        if xy.related and yx.related and yz.related and xz.related:
            forward = xy.witnesses[0]
            reverse = envariance.symmetry_witness(x, y, forward, (forward.u_p @ rotation).dagger)
            first, second, w_p = per_object_chain(d_p, d_n, seed + 77_000 + index)
            chained = envariance.transitivity_witness(first, second, w_p)
            out["symmetry_residual_max"] = max(out["symmetry_residual_max"], reverse.residual)
            out["transitivity_residual_max"] = max(out["transitivity_residual_max"],
                                                   chained.residual)
            witnesses += [reverse, first.witness, second.witness, chained]
        else:
            out["verdict_law_failures"] += 1
        out["witness_unitarity_max"] = max(
            [out["witness_unitarity_max"]] + [op.unitarity_defect() for w in witnesses
                                              for op in (w.u_p, w.u_n, w.u_ancilla)
                                              if op is not None])
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 33_003])
def test_stacked_equiv_laws_match_the_per_object_loop(seed):
    # the stacked passes do each triple's arithmetic in the loop's order, one
    # matrix at a time inside each numpy call, so the results are equal
    report, code = run(ScenarioConfig(scenario="equiv-laws", triples=24, seed=seed))
    assert code == 0
    reference = per_object_equiv_laws(24, seed)
    assert {c["name"]: c["residual"] for c in report["checks"]} == reference
    assert all(c["residual"] > 0 for c in report["checks"] if c["name"].endswith("_max"))


def test_stacked_restoration_matches_the_per_object_loop():
    rng = np.random.default_rng(20_206)
    worst = 0.0
    for _ in range(200):
        d_p, d_n = (int(rng.choice([2, 3, 4, 6])) for _ in range(2))
        pair = envariance.JointPairState(random_state(d_p * d_n, rng, (d_p, d_n)), (d_p, d_n))
        rank = int(np.sum(pair.spectrum() > 1e-12))
        u_p, u_n = envariance.synthesize_envariant(
            pair, rng.uniform(0.0, 2.0 * math.pi, size=rank))
        moved = u_p.entries @ pair.joint.amplitudes.reshape(d_p, d_n) @ u_n.entries.T
        worst = max(worst, distance(StateVector(moved.reshape(-1)), pair.joint))
    report, code = run(ScenarioConfig(scenario="envariance-restore", trials=200,
                                      seed=20_206))
    assert code == 0
    assert 0 < report["checks"][0]["residual"] == worst


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


def test_adjoint_undo_fails_restoration(monkeypatch, capsys):
    real = envariance._synthesize_stack

    def adjoint_undo(left, right, phases):
        u_p, u_n = real(left, right, phases)
        return u_p, np.swapaxes(u_n, 1, 2).conj()

    monkeypatch.setattr(envariance, "_synthesize_stack", adjoint_undo)
    failed = _failed_checks(["envariance-restore", "--trials", "5"], capsys)
    assert failed == {"restoration_residual_max"}


@pytest.mark.parametrize("extra", [[], ["--record-angle", "0.7"]])
def test_random_records_fail_closed_form(extra, monkeypatch, capsys):
    real = cli.premeasure
    rng = np.random.default_rng(8)

    def random_records(system, n_env, record_angle=None):
        state = real(system, n_env, record_angle=record_angle)
        shape = state.records.shape
        records = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        records /= np.linalg.norm(records, axis=-1, keepdims=True)
        return dataclasses.replace(state, records=records)

    monkeypatch.setattr(cli, "premeasure", random_records)
    failed = _failed_checks(["darwinism", "--env-qubits", "8", *extra], capsys)
    assert "curve_matches_closed_form" in failed


def test_overlarge_pair_information_fails_closed_form(monkeypatch, capsys):
    real = collapse.fragment_information

    def inflated(state, fragments):
        h_system, info = real(state, fragments)
        return h_system, info + (3.0 if fragments.shape[1] == 2 else 0.0)

    monkeypatch.setattr(collapse, "fragment_information", inflated)
    failed = _failed_checks(["darwinism", "--env-qubits", "6"], capsys)
    assert "curve_matches_closed_form" in failed


@pytest.mark.parametrize("n", [8, 11])
def test_nearly_perfect_records_fail_angle_check(n, monkeypatch, capsys):
    # overlap ~1e-5 moves the closed-form gap by only ~7e-11, inside its 1e-9
    real = cli.premeasure

    def nearly_perfect(system, n_env, record_angle=None):
        return real(system, n_env, record_angle=math.pi / 2 - 1e-5)

    monkeypatch.setattr(cli, "premeasure", nearly_perfect)
    failed = _failed_checks(["darwinism", "--env-qubits", str(n)], capsys)
    assert failed == {"records_match_angle"}


def test_scaled_fourier_fails_bleach_unitarity_beyond_dense_limit(monkeypatch, capsys):
    real = collapse.fourier_matrix
    monkeypatch.setattr(collapse, "fourier_matrix", lambda dim: 1.001 * real(dim))
    failed = _failed_checks(["nohide", "--dim", "25", "--inputs", "12"], capsys)
    assert failed == {"bleach_map_unitary"}


def test_scaled_envariant_rotation_fails_witness_unitarity(monkeypatch, capsys):
    real = envariance._sample_stack
    monkeypatch.setattr(envariance, "_sample_stack",
                        lambda left, blocks, draws: 1.001 * real(left, blocks, draws))
    failed = _failed_checks(["equiv-laws", "--triples", "5"], capsys)
    assert failed == {"witness_unitarity_max"}


def test_envariant_rotation_leaving_its_subgroup_fails_laws(monkeypatch, capsys):
    # entry [0, 0] x 1.001 mixes Schmidt blocks: every trial's undo leaks, so
    # every verdict is unrelated, no triple reaches the symmetry and
    # transitivity witnesses, and the rotations are not unitary
    real = envariance._sample_stack

    def skewed(left, blocks, draws):
        rotation = real(left, blocks, draws)
        rotation[:, 0, 0] *= 1.001
        return rotation

    monkeypatch.setattr(envariance, "_sample_stack", skewed)
    failed = _failed_checks(["equiv-laws", "--triples", "5"], capsys)
    assert failed == {"reflexivity_failures", "verdict_law_failures",
                      "witness_unitarity_max"}


def _tilted(ops):
    """``ops`` composed with a fixed rotation by 1e-3 between the first two
    basis vectors."""
    rotation = np.eye(ops.shape[-1], dtype=complex)
    c, s = math.cos(1e-3), math.sin(1e-3)
    rotation[:2, :2] = [[c, -s], [s, c]]
    return ops @ rotation


def test_tilted_link_undo_fails_transitivity(monkeypatch, capsys):
    real = envariance._link_undo_stack

    def tilted(*args):
        u_n, leakage = real(*args)
        return _tilted(u_n), leakage

    monkeypatch.setattr(envariance, "_link_undo_stack", tilted)
    failed = _failed_checks(["equiv-laws", "--triples", "5", "--seed", "3"], capsys)
    assert failed == {"transitivity_residual_max"}


@pytest.mark.parametrize("seed", ["0", "3"])
def test_tilted_reverse_rotation_fails_symmetry(seed, monkeypatch, capsys):
    # the undo of a v_p outside y's envariant coset leaks about 1e-3, and the
    # v_n built from it misses unitarity by about 1e-6
    real = envariance._reverse_stack

    def tilted(*args):
        *rest, v_p = args
        return real(*rest, _tilted(v_p))

    monkeypatch.setattr(envariance, "_reverse_stack", tilted)
    failed = _failed_checks(["equiv-laws", "--triples", "5", "--seed", seed], capsys)
    assert failed == {"symmetry_residual_max", "witness_unitarity_max"}


def test_unbleached_joint_fails_recovery(monkeypatch, capsys):
    rng = np.random.default_rng(4)

    def unbleached(psi):
        d = psi.dim
        joint = random_state(d ** 3, rng, (d, d, d))
        return collapse.BleachResult(joint, partial_trace(joint, keep=[0]))

    monkeypatch.setattr(cli, "bleach", unbleached)
    failed = _failed_checks(["nohide", "--dim", "3"], capsys)
    assert "recovery_distance" in failed


def test_slightly_rotated_recovery_fails_distance(monkeypatch, capsys):
    # a 1e-6 rad error gives an infidelity of 1e-12, inside the old 1e-10 bound
    real = cli.recover

    def rotated(joint):
        out = real(joint).amplitudes
        other = np.roll(out.conj(), 1)  # made orthogonal to out below
        other -= np.vdot(out, other) * out
        other /= np.linalg.norm(other)
        return StateVector(math.cos(1e-6) * out + math.sin(1e-6) * other)

    monkeypatch.setattr(cli, "recover", rotated)
    failed = _failed_checks(["nohide", "--dim", "3"], capsys)
    assert failed == {"recovery_distance"}


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


def test_order_relation_fails_integer_oracle(monkeypatch, capsys):
    ordered = dataclasses.replace(NATURALS_ADD, eq=operator.le)
    # the scalar relation runs the same body, so it answers wrongly too:
    # 0 + 0 <= 1 + 0 although 0 - 1 != 0 - 0
    assert pair_equivalent(MonoidPair(0, 1), MonoidPair(0, 0), ordered)
    monkeypatch.setattr(cli, "NATURALS_ADD", ordered)
    failed = _failed_checks(["grothendieck-int", "--range", "6"], capsys)
    assert failed == {"relation_matches_integer_oracle"}


def test_grothendieck_sweep_counts_what_it_checks(monkeypatch):
    real = cli.pair_equivalent_bulk
    verdicts = []

    def counted(*args):
        result = real(*args)
        verdicts.append(np.size(result))
        return result

    monkeypatch.setattr(cli, "pair_equivalent_bulk", counted)
    report, code = run(ScenarioConfig(scenario="grothendieck-int", range_max=6))
    assert code == 0
    assert sum(verdicts) == report["results"]["tuples_checked"] == 7 ** 4


@pytest.mark.parametrize("extra", [[], ["--record-angle", "0.7"]])
def test_darwinism_single_environment_qubit(extra, capsys):
    # the curve holds only f = 0 and f = N
    assert main(["darwinism", "--env-qubits", "1", *extra]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["passed"]


DARWINISM_CHECKS = ["broadcast_gate_unitary", "global_purity", "gram_matches_dense",
                    "curve_matches_closed_form", "curve_monotone_defect",
                    "records_match_angle"]
# None (perfect records) or log-uniform in [1e-12, pi/2]
RECORD_ANGLES = st.none() | st.floats(math.log(1e-12), math.log(math.pi / 2)).map(
    lambda exponent: min(math.exp(exponent), math.pi / 2))


def _main_captured(argv) -> tuple[int, str, str]:
    """``main(argv)`` with its stdout and stderr captured (hypothesis-safe)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(constant):
    raise ValueError(f"{constant} in a report")


@given(n=st.integers(1, 6), angle=RECORD_ANGLES, samples=st.integers(1, 40),
       delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2 ** 32))
@example(n=5, angle=1e-9, samples=40, delta=0.1, seed=0)  # H_S ~ 0: R = 0
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_darwinism_passes_over_its_validated_domain(n, angle, samples, delta, seed):
    argv = ["darwinism", "--env-qubits", str(n), "--samples-per-size",
            str(samples), "--delta", repr(delta), "--seed", str(seed)]
    if angle is not None:
        argv += ["--record-angle", repr(angle)]
    code, out, err = _main_captured(argv)
    assert (code, err) == (0, ""), argv
    report = json.loads(out, parse_constant=_reject_constant)
    assert [c["name"] for c in report["checks"]] == DARWINISM_CHECKS


@pytest.mark.parametrize("top", range(1, 9))
def test_grothendieck_passes_over_its_validated_domain(top):
    code, out, err = _main_captured(["grothendieck-int", "--range", str(top)])
    assert (code, err) == (0, "")
    report = json.loads(out, parse_constant=_reject_constant)
    assert [c["name"] for c in report["checks"]] == [
        "relation_matches_integer_oracle", "add_neg_homomorphism"]
    assert report["results"]["tuples_checked"] == (top + 1) ** 4


@pytest.mark.parametrize("top", ["0", "201"])
def test_grothendieck_one_step_outside_its_domain_exits_two(top):
    code, out, err = _main_captured(["grothendieck-int", f"--range={top}"])
    assert (code, out) == (2, "")
    assert err.startswith("config error:")


@pytest.mark.parametrize("flag, value", [
    ("--env-qubits", "0"), ("--env-qubits", "13"),
    ("--record-angle", "0.0"), ("--record-angle", repr(math.nextafter(math.pi / 2, 4))),
    ("--samples-per-size", "0"), ("--delta", "0.0"), ("--delta", "1.0"),
    ("--seed", "-1"),
])
def test_darwinism_one_step_outside_its_domain_exits_two(flag, value):
    code, out, err = _main_captured(["darwinism", f"{flag}={value}"])
    assert (code, out) == (2, "")
    assert err.startswith("config error:")


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


def test_non_utf8_config_exits_two(tmp_path):
    config = tmp_path / "bad.json"
    config.write_bytes(b'\xff\xfe{"seed": 1}')
    code, out, err = _main_captured(["born", "--config", str(config)])
    assert (code, out) == (2, "")
    assert err.startswith("config error:")


def test_unwritable_out_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["born", "--weights", "1,2", "--out", str(blocker / "x")]) == 2
    assert "config error:" in capsys.readouterr().err


def test_validate_checks_field_types():
    for bad in ({"seed": True}, {"seed": 1.0}, {"dim": "3"},
                {"record_angle": "0.5"}, {"weights": (1, 2.0)},
                {"weights": [1, 2]}, {"out": 3}, {"delta": None}):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="nohide", **bad).validate()
    # an int is a valid float, and None a valid Optional
    ScenarioConfig(scenario="darwinism", record_angle=1, out=None).validate()


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


def test_reports_do_not_depend_on_blas_threads():
    # byte identity holds at fixed BLAS thread settings; these configs keep it
    # across one and two OpenBLAS threads too (README names the exception)
    configs = [["equiv-laws", "--triples", "50", "--seed", "3"],
               ["nohide", "--dim", "8", "--inputs", "6", "--seed", "1"]]
    src = str(Path(cli.__file__).resolve().parents[1])
    reports = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src,
               "PYTHONDONTWRITEBYTECODE": "1"}
        runs = [subprocess.Popen([sys.executable, "-m", "unicollapse.cli", *argv],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
                for argv in configs]
        outputs = [run.communicate() for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        assert [err for _, err in outputs] == [b"", b""]
        reports[threads] = [re.sub(rb'"wall_time_s": [^\n]*', b"", out) for out, _ in outputs]
    assert reports["1"] == reports["2"]
