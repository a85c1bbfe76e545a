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
import tracemalloc
from fractions import Fraction
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
    real = envariance._phase_stack
    monkeypatch.setattr(envariance, "_phase_stack",
                        lambda basis, phases: 1.001 * real(basis, phases))
    failed = _failed_checks(["equiv-laws", "--triples", "5"], capsys)
    assert failed == {"witness_unitarity_max"}


def test_envariant_rotation_leaving_its_subgroup_fails_laws(monkeypatch, capsys):
    # entry [0, 0] x 1.001 mixes Schmidt blocks: every trial's undo leaks, so
    # every verdict is unrelated, no triple reaches the symmetry and
    # transitivity witnesses, and the rotations are not unitary
    real = envariance._phase_stack

    def skewed(basis, phases):
        rotation = real(basis, phases)
        rotation[:, 0, 0] *= 1.001
        return rotation

    monkeypatch.setattr(envariance, "_phase_stack", skewed)
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

    def unbleached(psis):
        n, d = psis.shape
        joint = np.stack([random_state(d ** 3, rng).amplitudes for _ in range(n)])
        joint = joint.reshape(n, d, d, d)
        return collapse.BleachResult(joint, collapse._marginals(joint))

    monkeypatch.setattr(cli, "bleach", unbleached)
    failed = _failed_checks(["nohide", "--dim", "3"], capsys)
    assert "recovery_distance" in failed


def test_slightly_rotated_recovery_fails_distance(monkeypatch, capsys):
    # a 1e-6 rad error gives an infidelity of 1e-12, inside the old 1e-10 bound
    real = cli.recover

    def rotated(joints):
        out = real(joints)
        other = np.roll(out.conj(), 1, axis=1)  # made orthogonal to out below
        other -= np.vecdot(out, other)[:, None] * out
        other /= np.linalg.norm(other, axis=1, keepdims=True)
        return math.cos(1e-6) * out + math.sin(1e-6) * other

    monkeypatch.setattr(cli, "recover", rotated)
    failed = _failed_checks(["nohide", "--dim", "3"], capsys)
    assert failed == {"recovery_distance"}


def _nan_recover(joints):
    return np.full(joints.shape[:2], np.nan, dtype=complex)


def test_nan_recovery_fails_its_check_with_a_null_residual(monkeypatch, capsys):
    # a NaN residual must fail, not vanish from a max() fold, and the report
    # stays strict JSON
    monkeypatch.setattr(cli, "recover", _nan_recover)
    assert main(["nohide", "--dim", "3", "--inputs", "5", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = json.loads(captured.out, parse_constant=_reject_constant)["checks"]
    assert {c["name"] for c in checks if not c["passed"]} == {"recovery_distance"}
    assert [c["residual"] for c in checks if c["name"] == "recovery_distance"] == [None]


def test_nan_written_to_out_is_strict_json(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "recover", _nan_recover)
    out = tmp_path / "nan"
    assert main(["nohide", "--dim", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert not report["passed"]


def test_nan_restoration_fails_its_check(monkeypatch, capsys):
    real = envariance._residuals

    def nan_residuals(*args):
        residuals = real(*args)
        residuals[-1] = np.nan  # one trial of one group; the others stay finite
        return residuals

    monkeypatch.setattr(envariance, "_residuals", nan_residuals)
    failed = _failed_checks(["envariance-restore", "--trials", "20", "--seed", "5"], capsys)
    assert failed == {"restoration_residual_max"}


def test_nan_bleach_fails_its_checks_without_a_traceback(monkeypatch, capsys):
    # NaN joints and marginals reach the trace-distance eigvalsh and recover's
    # eigh, which would raise on them; each input's residual reads NaN instead
    real = cli.bleach

    def nan_bleach(psis):
        result = real(psis)
        return collapse.BleachResult(result.joint * np.nan, result.sigma_system * np.nan)

    monkeypatch.setattr(cli, "bleach", nan_bleach)
    assert main(["nohide", "--dim", "3", "--inputs", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = json.loads(captured.out, parse_constant=_reject_constant)["checks"]
    assert {c["name"]: c["residual"] for c in checks if not c["passed"]} == {
        "bleached_marginal_input_independent": None,
        "bleached_marginal_maximally_mixed": None, "recovery_distance": None}


def test_nan_in_the_first_group_fails_symmetry(monkeypatch, capsys):
    # the fold reads every (d_p, d_n) group's residuals, not the last group's
    real = envariance._reverse_stack
    calls = []

    def nan_first(*args):
        v_n, residual, undo = real(*args)
        if not calls:
            residual[0] = np.nan
        calls.append(len(residual))
        return v_n, residual, undo

    monkeypatch.setattr(envariance, "_reverse_stack", nan_first)
    assert main(["equiv-laws", "--triples", "20", "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(calls) > 1
    checks = json.loads(captured.out, parse_constant=_reject_constant)["checks"]
    assert {c["name"]: c["residual"] for c in checks if not c["passed"]} == {
        "symmetry_residual_max": None}


@pytest.mark.parametrize("residuals", [[], [np.zeros(0)], [np.zeros(0), np.zeros((0, 3))]])
def test_fold_over_no_problems_reads_zero_and_passes(residuals):
    for fold in (np.maximum, np.add):
        assert cli._check("empty", residuals, 0, fold) == {
            "name": "empty", "passed": True, "residual": 0.0, "tolerance": 0.0}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fold_fails_a_non_finite_residual_with_null(bad):
    residuals = [np.array([1e-12, 2e-12]), np.array([3e-12, bad, 4e-12]), [5e-12]]
    entry = cli._check("worst", residuals, 1e-9)
    assert (entry["passed"], entry["residual"]) == (False, None)
    # finite: the largest residual of every group
    residuals[1][1] = 1e-13
    assert cli._check("worst", residuals, 1e-9)["residual"] == 5e-12


def test_count_fold_sums_failures_across_groups():
    groups = [np.array([True, False]), np.array([False]), np.array([True, True, False])]
    assert cli._check("failures", groups, 0, np.add) == {
        "name": "failures", "passed": False, "residual": 3.0, "tolerance": 0.0}
    assert cli._check("failures", [g & False for g in groups], 0, np.add)["passed"]


@pytest.mark.parametrize("shape", ["flat_ancilla", "system_ancilla_swapped"])
def test_wrong_ancilla_factor_dims_fail_dimension_check(shape, monkeypatch, capsys):
    # the right amplitudes under wrong factor dims: only the shape check sees it
    real = cli.bleach

    def misshaped(psis):
        result = real(psis)
        n, d = psis.shape
        joint = result.joint.reshape(n, d, d * d) if shape == "flat_ancilla" \
            else result.joint.reshape(n, d * d, d)
        return collapse.BleachResult(joint, result.sigma_system)

    monkeypatch.setattr(cli, "bleach", misshaped)
    failed = _failed_checks(["nohide", "--dim", "3", "--inputs", "5"], capsys)
    assert failed == {"ancilla_dimension_exact"}


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


def _non_bijective_shift():
    """controlled_shift_gate with its first two images equal."""
    real = collapse.controlled_shift_gate

    def broken(dim):
        gate = real(dim).copy()
        gate[1] = gate[0]
        return gate

    return broken


def test_born_non_bijective_gate_fails_unitarity(monkeypatch, capsys):
    monkeypatch.setattr(collapse, "controlled_shift_gate", _non_bijective_shift())
    assert "fine_graining_unitary" in _failed_checks(["born", "--weights", "2,3"], capsys)


def test_darwinism_non_bijective_gate_fails_broadcast_unitarity(monkeypatch, capsys):
    monkeypatch.setattr(collapse, "controlled_shift_gate", _non_bijective_shift())
    failed = _failed_checks(["darwinism", "--env-qubits", "6"], capsys)
    assert failed == {"broadcast_gate_unitary"}


def test_nohide_without_controlled_phase_fails_bleaching(monkeypatch, capsys):
    # shifts without phases leave the marginal input-dependent and not I/d,
    # and recover's fixed inverse, which expects the phases, misses the input
    monkeypatch.setattr(collapse, "_controlled_phase", lambda d: np.ones(d * d, dtype=complex))
    failed = _failed_checks(["nohide", "--dim", "3"], capsys)
    assert failed == {"bleached_marginal_input_independent",
                      "bleached_marginal_maximally_mixed", "recovery_distance"}


def test_born_uneven_coarse_amplitude_fails_flatness_and_envariance(monkeypatch, capsys):
    real = collapse.tensor

    def skewed(coarse, *rest):
        amps = coarse.amplitudes.copy()
        amps[np.flatnonzero(amps)[0]] *= 1.1
        return real(StateVector(amps, coarse.factor_dims), *rest)

    monkeypatch.setattr(collapse, "tensor", skewed)
    failed = _failed_checks(["born", "--weights", "2,3"], capsys)
    assert {"fine_amplitudes_flat", "branch_transpositions_envariant"} <= failed


@pytest.mark.parametrize("weights", ["2,3", "1,2,3,4", "12"])
def test_born_off_by_one_denominator_fails_spectrum_check(weights, monkeypatch, capsys):
    # probabilities m_k / (M + 1) no longer equal the squared Schmidt spectrum
    monkeypatch.setattr(collapse, "Fraction", lambda a, b: Fraction(a, b + 1))
    failed = _failed_checks(["born", "--weights", weights], capsys)
    assert failed == {"probabilities_equal_squared_spectrum"}


def test_darwinism_norm_drift_fails_global_purity(monkeypatch, capsys):
    monkeypatch.setattr(collapse, "controlled_shift_gate", _scaled_dense_shift(1.001))
    failed = _failed_checks(["darwinism", "--env-qubits", "6"], capsys)
    assert failed == {"broadcast_gate_unitary", "curve_matches_closed_form",
                      "curve_monotone_defect", "global_purity", "gram_matches_dense"}


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


def test_relation_count_sums_every_a_slice(monkeypatch):
    # the order relation answers wrongly wherever a + d < b + c, in every
    # a-slice of the sweep: the residual counts them all, (7^4 - 231) / 2
    monkeypatch.setattr(cli, "NATURALS_ADD", dataclasses.replace(NATURALS_ADD, eq=operator.le))
    report, code = run(ScenarioConfig(scenario="grothendieck-int", range_max=6))
    a, b, c, d = np.ix_(*[np.arange(7)] * 4)
    assert code == 1
    assert report["checks"][0]["residual"] == np.count_nonzero(a + d < b + c) == 1085


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


BORN_CHECKS = ["fine_amplitudes_flat", "branch_transpositions_envariant",
               "probabilities_equal_squared_spectrum", "fine_graining_unitary",
               "global_purity"]


def _composition(ends: list[bool]) -> tuple[int, ...]:
    """The composition of len(ends) + 1 with a part ending after each True."""
    parts, size = [], 1
    for end in ends:
        if end:
            parts.append(size)
            size = 1
        else:
            size += 1
    return (*parts, size)


@given(weights=st.lists(st.booleans(), max_size=7).map(_composition))
@example(weights=(128,))  # the budget edge: 1 * 128^2 = 2^14
@example(weights=(1, 89))  # 2 * 90^2
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_born_passes_over_its_validated_domain(weights):
    argv = ["born", "--weights", ",".join(map(str, weights))]
    code, out, err = _main_captured(argv)
    assert (code, err) == (0, ""), argv
    report = json.loads(out, parse_constant=_reject_constant)
    assert [c["name"] for c in report["checks"]] == BORN_CHECKS
    total = sum(weights)
    assert report["results"]["transpositions_checked"] == math.comb(total, 2)
    assert [Fraction(p) for p in report["results"]["probabilities"]] == [
        Fraction(m, total) for m in weights]


NOHIDE_CHECKS = ["bleached_marginal_input_independent",
                 "bleached_marginal_maximally_mixed", "recovery_distance",
                 "ancilla_dimension_exact", "bleach_map_unitary"]


@given(d=st.integers(2, 4), inputs=st.integers(2, 5), seed=st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_nohide_passes_over_its_validated_domain(d, inputs, seed):
    argv = ["nohide", "--dim", str(d), "--inputs", str(inputs), "--seed", str(seed)]
    code, out, err = _main_captured(argv)
    assert (code, err) == (0, ""), argv
    report = json.loads(out, parse_constant=_reject_constant)
    assert [c["name"] for c in report["checks"]] == NOHIDE_CHECKS
    assert report["results"] == {"dim": d, "inputs": inputs}


def test_nohide_stacks_are_chunked():
    tracemalloc.start()
    try:
        report, code = run(ScenarioConfig(scenario="nohide", dim=25, inputs=200, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and report["passed"]
    # one stack of all 200 joints is 48 MiB and the pass holds several at once
    # (148 MiB measured unchunked); chunks of cli.NOHIDE_CHUNK amplitudes, 2 MiB
    # each, kept it at 9 MiB
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("scenario, flag, value", [
    ("born", "--weights", "129"), ("born", "--weights", "1,90"),  # 129^2, 2 * 91^2
    ("born", "--weights", "0"), ("born", "--weights", "1,-1"),
    ("born", "--weights", "1.5"), ("nohide", "--dim", "1"), ("nohide", "--dim", "26"),
    ("nohide", "--inputs", "1"), ("nohide", "--inputs", "501"), ("nohide", "--seed", "-1"),
])
def test_born_and_nohide_one_step_outside_their_domain_exit_two(scenario, flag, value):
    code, out, err = _main_captured([scenario, f"{flag}={value}"])
    assert (code, out) == (2, "")
    assert err.startswith("config error:")


ENVARIANCE_CHECKS = {
    "equiv-laws": ("--triples", ["reflexivity_failures", "verdict_law_failures",
                                 "symmetry_residual_max", "transitivity_residual_max",
                                 "witness_unitarity_max"]),
    "envariance-restore": ("--trials", ["restoration_residual_max"]),
}


@pytest.mark.parametrize("scenario", sorted(ENVARIANCE_CHECKS))
@given(count=st.integers(1, 5), seed=st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_envariance_scenarios_pass_over_their_validated_domain(scenario, count, seed):
    flag, checks = ENVARIANCE_CHECKS[scenario]
    argv = [scenario, flag, str(count), "--seed", str(seed)]
    code, out, err = _main_captured(argv)
    assert (code, err) == (0, ""), argv
    report = json.loads(out, parse_constant=_reject_constant)
    assert [c["name"] for c in report["checks"]] == checks


@pytest.mark.parametrize("scenario, flag, value", [
    ("equiv-laws", "--triples", "0"), ("equiv-laws", "--triples", "10001"),
    ("equiv-laws", "--seed", "-1"), ("envariance-restore", "--trials", "0"),
    ("envariance-restore", "--trials", "10001"), ("envariance-restore", "--seed", "-1"),
])
def test_envariance_scenarios_one_step_outside_their_domain_exit_two(scenario, flag, value):
    code, out, err = _main_captured([scenario, f"{flag}={value}"])
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
