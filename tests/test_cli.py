"""CLI tests: table contents, exit codes, output determinism."""

import _json
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oscoul
from oscoul import kernels, oracle
from oscoul.cli import main
from oscoul.models import MAX_STATES, CoulombLike, NonlinearOscillator, QuantumNumbers
from test_cli_golden import CASES, GOLDEN


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return rows


def test_spectrum_nlo_energies(capsys):
    code, out, _ = run(
        ["spectrum", "--model", "nlo", "--d", "2", "--lambda", "-0.1",
         "--beta", "1", "--n-max", "3"],
        capsys,
    )
    assert code == 0
    energies = sorted({float(r["energy"]) for r in parse_csv(out)})
    np.testing.assert_allclose(energies, [1.0, 2.1, 3.3, 4.6], rtol=1e-14)


def test_spectrum_coulomb_energies(capsys):
    code, out, _ = run(
        ["spectrum", "--model", "coulomb", "--D", "3", "--Q", "1", "--n-max", "1"],
        capsys,
    )
    assert code == 0
    energies = sorted({float(r["energy"]) for r in parse_csv(out)})
    np.testing.assert_allclose(energies, [-0.125, -0.03125], rtol=1e-14)


def test_spectrum_bound_only_row_count(capsys):
    code, out, _ = run(
        ["spectrum", "--model", "clike", "--D", "3", "--lambda", "0.2", "--Q", "1",
         "--n-max", "8", "--bound-only"],
        capsys,
    )
    assert code == 0
    assert len(parse_csv(out)) == 5


@pytest.mark.parametrize(
    "argv,count",
    [
        (["bound-states", "--model", "clike", "--D", "3", "--lambda", "1e-300", "--Q", "1"], "1e+300"),
        (["bound-states", "--model", "clike", "--D", "3", "--lambda", "-1e-7", "--Q", "1"], "3926992"),
        (["spectrum", "--model", "osc", "--d", "3", "--omega", "1", "--n-max", "100000000"],
         "2500000100000001"),
        (["spectrum", "--model", "coulomb", "--D", "3", "--Q", "1", "--L", "0", "--n-max", "100000000"],
         "100000001"),
    ],
)
def test_enumerations_are_sized_before_they_are_walked(argv, count, capsys):
    # each of these walked for minutes or without end; now each is refused at once
    def hang(signum, frame):
        raise TimeoutError(" ".join(argv))

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        code, out, err = run(argv, capsys)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and count in lines[0], err
    assert str(MAX_STATES) in lines[0]


def test_bound_states_counts(capsys):
    code, out, _ = run(
        ["bound-states", "--model", "clike", "--D", "3", "--lambda", "-0.1", "--Q", "1"],
        capsys,
    )
    assert code == 0
    assert len(parse_csv(out)) == 4


@pytest.mark.parametrize(
    "model_flags",
    [["--model", "osc", "--d", "3", "--omega", "1"], ["--model", "coulomb", "--D", "3", "--Q", "1"]],
    ids=["osc", "coulomb"],
)
def test_bound_states_rejects_euclidean_models(model_flags, capsys):
    code, out, err = run(["bound-states", *model_flags], capsys)
    assert code == 2 and out == ""
    assert "bound-state enumeration applies to nlo/clike/pdm-* models" in err


def test_wavefunction_matches_gaussian(capsys):
    code, out, _ = run(
        ["wavefunction", "--model", "osc", "--d", "3", "--omega", "1", "--l", "0",
         "--n-r", "0", "--points", "50", "--x-max", "4"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["x", "psi_weighted", "psi_tilde"]
    for r in rows:
        x = float(r["x"])
        assert abs(float(r["psi_weighted"]) - math.exp(-0.5 * x * x)) < 1e-14
        assert abs(float(r["psi_tilde"]) - x * math.exp(-0.5 * x * x)) < 1e-13


@pytest.mark.parametrize("n_r", [0, 1, 2])
def test_wavefunction_samples_reach_the_density_cutoff(n_r, capsys):
    # clike lam > 0 is cut in the geodesic coordinate s; sampling up to that
    # cutoff read as a radius stopped where the density was 1e-8 to 1e-3 of its peak
    model = CoulombLike(D=2.5, lam=0.02, Q=1.0)
    code, out, _ = run(
        ["wavefunction", "--model", "clike", "--D", "2.5", "--lambda", "0.02", "--Q", "1",
         "--L", "0.5", "--n-r", str(n_r)],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    x_max = float(rows[-1]["x"])
    density = float(rows[-1]["psi_weighted"]) ** 2 * model.weight(x_max)
    fine = np.geomspace(1e-6, x_max, 100_000)
    peak = np.max(model.wavefunction(QuantumNumbers(n_r, 0.5), fine) ** 2 * model.weight(fine))
    assert density <= 1e-11 * peak


def test_wavefunction_default_samples_show_the_bulk(capsys):
    # nlo lam > 0 decays only as a power of r: samples evenly spaced in r up to
    # the density cutoff all fell in the far tail (r from 1506 to 75279)
    model = NonlinearOscillator(d=2, lam=0.2, beta=1.0)
    q = QuantumNumbers(1, 1.0)
    code, out, _ = run(
        ["wavefunction", "--model", "nlo", "--d", "2", "--lambda", "0.2", "--beta", "1",
         "--l", "1", "--n-r", "1", "--points", "50"],
        capsys,
    )
    assert code == 0
    xs = np.array([float(r["x"]) for r in parse_csv(out)])
    density = model.wavefunction(q, xs) ** 2 * model.weight(xs)
    fine = np.geomspace(1e-6, xs[-1], 100_000)
    peak = np.max(model.wavefunction(q, fine) ** 2 * model.weight(fine))
    assert np.count_nonzero(density >= 1e-3 * peak) >= 10


def test_wavefunction_tilde_vanishes_at_origin(capsys):
    code, out, _ = run(
        ["wavefunction", "--model", "nlo", "--d", "2", "--lambda", "-0.1", "--beta", "1",
         "--l", "0", "--points", "40"],
        capsys,
    )
    rows = parse_csv(out)
    assert float(rows[0]["psi_weighted"]) > 0.9
    assert float(rows[0]["psi_tilde"]) < 0.3


def test_duality_report(capsys, tmp_path):
    out_file = tmp_path / "dual.json"
    code, _, _ = run(
        ["duality", "--d", "4", "--l", "0", "--lambda", "-0.1", "--beta", "1",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["D"] == 3.0 and rep["L"] == 0.0
    assert math.isclose(rep["Q"], 1.0, rel_tol=1e-13)
    assert math.isclose(rep["coulomb_energy"], -0.1625, rel_tol=1e-13)
    assert rep["max_deviation"] <= 1e-10


def test_verify_passes(capsys, tmp_path):
    out_file = tmp_path / "verify.json"
    code, _, _ = run(
        ["verify", "--model", "nlo", "--d", "2", "--lambda", "-0.1", "--beta", "1",
         "--l", "1", "--k", "2", "--grids", "128,256,512", "--tol-eig", "1e-5",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["schema"] == 1
    assert rep["pass"] is True


def test_verify_reports_the_eigenvalue_resolution(capsys):
    # the relative width N eps to which each grid's eigenvalues were bisected
    code, out, _ = run(["verify", *OSC, "--grids", "128,256,512"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["eig_resolution"] == [N * np.finfo(float).eps for N in (128, 256, 512)]
    assert rep["grids"] == [128, 256, 512]


@pytest.mark.parametrize(
    "model_flags", [["--model", "clike"], ["--model", "pdm-coulomb"]], ids=["weighted", "flat"]
)
def test_verify_residual_samples_end_at_the_studied_cutoff(model_flags, capsys, monkeypatch):
    # on an infinite domain the residual samples run up to the cutoff each
    # state was solved on, in the model's solved coordinate
    from oscoul import oracle

    reports, seen = [], []
    study, residual = oracle.convergence_study, oracle.residual_norm

    def study_spy(*args, **kwargs):
        reports.append(study(*args, **kwargs))
        return reports[-1]

    def residual_spy(state, samples, *args, **kwargs):
        seen.append((state.q, np.array(samples)))
        return residual(state, samples, *args, **kwargs)

    monkeypatch.setattr(oracle, "convergence_study", study_spy)
    monkeypatch.setattr(oracle, "residual_norm", residual_spy)
    code, _, _ = run(
        ["verify", *model_flags, "--D", "3", "--lambda", "0.05", "--Q", "1", "--k", "2",
         "--grids", "128,256,512", "--format", "json"],
        capsys,
    )
    assert code in (0, 1)
    model = CoulombLike(D=3, lam=0.05, Q=1.0)
    assert math.isinf(model.domain[1]) and len(reports) == 1 and len(seen) == 2
    for j, (q, samples) in enumerate(seen):
        assert q == QuantumNumbers(j, 0.0)
        expected = oracle.default_samples(model, reports[0].cutoffs[j])
        np.testing.assert_array_equal(samples, expected)


def test_verify_failure_exit_code(capsys, tmp_path):
    out_file = tmp_path / "verify.json"
    code, _, err = run(
        ["verify", "--model", "nlo", "--d", "2", "--lambda", "-0.1", "--beta", "1",
         "--l", "1", "--k", "1", "--grids", "128,256,512", "--tol-eig", "1e-15",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 1
    assert "verify failed" in err
    assert json.loads(out_file.read_text())["pass"] is False


def test_verify_writes_null_for_a_non_finite_value(capsys):
    # n_r=1's sequence is not monotone, so its order, extrapolation and error
    # are NaN: the report writes null for each, and stays strict JSON
    code, out, err = run(
        ["verify", "--model", "pdm-coulomb", "--D", "4", "--lambda", "0.1", "--Q", "1",
         "--L", "0.5", "--k", "2", "--format", "json"],
        capsys,
    )

    def refuse(name):
        raise AssertionError(f"{name} is not JSON")

    state = json.loads(out, parse_constant=refuse)["states"][1]
    assert code == 1
    assert err.startswith("verify failed: n_r=1 rel_error=nan order=nan residual=")
    assert [state[key] for key in ("extrapolated", "observed_order", "rel_error")] == [None] * 3


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--model", "bogus"])
    assert exc.value.code == 2


def test_verify_has_no_picture_flag(capsys):
    # the model name selects the picture: pdm-osc is the flat picture of nlo
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--model", "nlo", "--picture", "flat", "--d", "2", "--lambda", "-0.1",
              "--beta", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --picture flat" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1e-3", "-2.5E-2"])
def test_negative_exponent_values_parse_as_values(value, capsys):
    argv = ["spectrum", "--model", "nlo", "--d", "2", "--beta", "1", "--n-max", "3"]
    spaced = run([*argv, "--lambda", value], capsys)
    joined = run([*argv, f"--lambda={value}"], capsys)
    assert spaced[0] == 0 and spaced[1]
    assert spaced == joined


def test_missing_parameter_exit_code(capsys):
    code, _, err = run(["spectrum", "--model", "nlo", "--d", "2"], capsys)
    assert code == 2
    assert "required" in err


@pytest.mark.parametrize("lam,flag", [("0", "--omega"), ("-0.1", "--beta")])
def test_duality_missing_strength_exit_code(lam, flag, capsys):
    # lam = 0 reads --omega and lam != 0 reads --beta; neither given is a usage error
    code, _, err = run(["duality", "--d", "4", "--lambda", lam], capsys)
    assert code == 2
    assert f"{flag} is required for duality" in err


def test_invalid_model_exit_code(capsys):
    code, _, err = run(
        ["spectrum", "--model", "nlo", "--d", "2", "--lambda", "0", "--beta", "1"],
        capsys,
    )
    assert code == 2
    assert "lam" in err


def test_verify_pdm_coulomb_mm(capsys, tmp_path):
    out_file = tmp_path / "pdm.json"
    code, _, _ = run(
        ["verify", "--model", "pdm-coulomb", "--ordering", "mm", "--D", "3",
         "--lambda", "-0.1", "--Q", "1", "--k", "1", "--grids", "256,512,1024",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["picture"] == "flat"
    assert math.isclose(rep["states"][0]["extrapolated"], -0.330625, rel_tol=1e-5)


def test_verify_vonroos_ordering_flag(capsys, tmp_path):
    out_file = tmp_path / "vr.json"
    code, _, _ = run(
        ["verify", "--model", "pdm-coulomb", "--ordering", "vonroos:0,-1,0", "--D", "3",
         "--lambda", "-0.1", "--Q", "1", "--k", "1", "--grids", "256,512,1024",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert json.loads(out_file.read_text())["pass"] is True


def test_spectrum_pdm_columns(capsys):
    code, out, _ = run(
        ["spectrum", "--model", "pdm-coulomb", "--D", "3", "--lambda", "-0.1", "--Q", "1",
         "--L", "0", "--n-max", "0"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert math.isclose(float(rows[0]["energy_bd"]), -0.1640625, rel_tol=1e-14)
    assert math.isclose(float(rows[0]["energy_mm"]), -0.1653125, rel_tol=1e-14)


def test_verify_byte_identical_reports(capsys, tmp_path):
    args = ["verify", "--model", "clike", "--D", "3", "--lambda", "-0.1", "--Q", "1",
            "--L", "0", "--k", "1", "--grids", "128,256,512", "--tol-eig", "1e-4"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize(
    "model_flags",
    [
        ["--model", "pdm-coulomb", "--D", "3", "--lambda", "-0.1", "--Q", "1"],
        ["--model", "pdm-osc", "--d", "2", "--lambda", "-0.1", "--beta", "1"],
    ],
)
def test_verify_general_vonroos_fails_before_solving(model_flags, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve ran before the closed-form check")

    monkeypatch.setattr(kernels, "lowest_eigenvalues_tridiag", no_solve)
    code, _, err = run(
        ["verify", *model_flags, "--ordering", "vonroos:-0.5,0,-0.5", "--k", "1"], capsys
    )
    assert code == 2
    assert "PDM orderings are BD (0,-1,0) and MM (-0.25,-0.5,-0.25) only" in err


PDM_COULOMB = ["--model", "pdm-coulomb", "--D", "3", "--lambda", "-0.1", "--Q", "1"]
OSC = ["--model", "osc", "--d", "3", "--omega", "1", "--k", "1"]


def assert_usage_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", *PDM_COULOMB, "--ordering", "vonroos:-0.5,0,-0.5"], "PDM orderings are BD"),
        (["verify", *PDM_COULOMB, "--ordering", "vonroos:1,2"], "bad ordering 'vonroos:1,2'"),
        (["verify", *PDM_COULOMB, "--ordering", "xyz"], "unknown ordering 'xyz'"),
        (["verify", "--model", "nlo", "--d", "2", "--lambda", "-0.1", "--beta", "1",
          "--l", "1.5"], "oscillator-side l must be an integer"),
        (["verify", "--model", "clike", "--D", "3", "--lambda", "-0.1", "--Q", "1",
          "--L", "-0.5"], "angular quantum number must be >= 0"),
        (["wavefunction", "--model", "nlo", "--d", "2", "--lambda", "-0.25", "--beta", "1",
          "--x-max", "3"], "sampling range exceeds the coordinate domain"),
        (["verify", "--model", "nlo", "--d", "2", "--lambda", "-0.1", "--beta", "1", "--k", "1",
          "--ordering", "xyz"], "--ordering is for pdm-osc and pdm-coulomb, not --model nlo"),
        (["verify", "--model", "nlo", "--d", "2", "--lambda", "-0.1", "--beta", "1", "--k", "1",
          "--ordering", "mm"], "--ordering is for pdm-osc and pdm-coulomb, not --model nlo"),
        (["wavefunction", "--model", "clike", "--D", "3", "--lambda", "-0.1", "--Q", "1",
          "--x-max", "10", "--points", "3"], "sampling range exceeds the coordinate domain"),
        (["verify", *OSC, "--grids", "512,1000,2048"],
         "need each grid size twice the one before, of N >= 3 cells, got [512, 1000, 2048]"),
        (["verify", *OSC, "--grids", "0,0,0"], "of N >= 3 cells, got [0, 0, 0]"),
        (["verify", *OSC, "--grids", "-1,-2,-4"], "of N >= 3 cells, got [-1, -2, -4]"),
        (["verify", "--model", "osc", "--d", "3", "--omega", "1", "--k", "0"],
         "k must be >= 1"),
        (["wavefunction", "--model", "osc", "--d", "3", "--omega", "1", "--points", "0"],
         "--points must be >= 1"),
        (["duality", "--d", "2", "--lambda", "0.1", "--beta", "1", "--samples", "0"],
         "--samples must be >= 1"),
        (["duality", "--d", "2", "--l", "1.5", "--lambda", "0.1", "--beta", "1"],
         "oscillator-side l must be an integer"),
        (["spectrum", "--model", "nlo", "--d", "2", "--lambda", "0.1", "--beta", "1",
          "--l", "inf"], "oscillator-side l must be an integer"),
        (["verify", *OSC, "--tol-eig", "nan"], "--tol-eig must be >= 0, got nan"),
        (["verify", *OSC, "--tol-eig", "-0.5"], "--tol-eig must be >= 0, got -0.5"),
        (["verify", *OSC, "--tol-eig", "-1e-6"], "--tol-eig must be >= 0, got -1e-06"),
        (["verify", *OSC, "--tol-residual", "nan"], "--tol-residual must be >= 0, got nan"),
        (["verify", *OSC, "--tol-residual", "-1"], "--tol-residual must be >= 0, got -1.0"),
        (["spectrum", "--model", "nlo", "--d", "2", "--lambda", "0.1", "--beta", "1",
          "--n-max", "-1"], "--n-max must be >= 0, got -1"),
        (["verify", "--model", "nlo", "--d", "3", "--lambda", "nan", "--beta", "1"],
         "lam must be finite and nonzero, got nan"),
        (["verify", "--model", "osc", "--d", "3", "--omega", "inf"],
         "omega must be finite and positive, got inf"),
        (["verify", *OSC, "--grids", "512,abc,2048"],
         "--grids must be comma-separated integers, got '512,abc,2048'"),
        (["verify", "--model", "osc", "--d", "3", "--omega", "1", "--k", "600"],
         "k must lie in [1, 512], got 600"),
        (["wavefunction", "--model", "nlo", "--d", "3", "--lambda", "0.1", "--beta", "1",
          "--l", "2", "--n-r", "4", "--x-max", "5"], "state n_r=4 ang=2 is not normalizable"),
        (["wavefunction", "--model", "clike", "--D", "3", "--lambda", "0.5", "--Q", "1",
          "--n-r", "3", "--x-max", "5"], "state n_r=3 ang=0 is not normalizable"),
        (["wavefunction", "--model", "nlo", "--d", "3", "--lambda", "0.1", "--beta", "1",
          "--l", "2", "--n-r", "4"], "state n_r=4 ang=2 is not normalizable"),
        (["spectrum", "--model", "clike", "--D", "3", "--lambda", "0.1", "--Q", "1",
          "--L", "inf"], "angular quantum number must be >= 0 and finite, got inf"),
        (["spectrum", "--model", "clike", "--D", "3", "--lambda", "0.1", "--Q", "1",
          "--l", "1", "--n-max", "1"], "--l does not apply to --model clike"),
        (["verify", *OSC, "--lambda", "0.1"], "--lambda does not apply to --model osc"),
        (["verify", *OSC, "--format", "csv"], "verify writes JSON only, not --format csv"),
        (["bound-states", "--model", "nlo", "--d", "2", "--lambda", "0.2", "--beta", "1",
          "--format", "csv"], "bound-states --model nlo writes JSON only, not --format csv"),
        (["duality", "--d", "3", "--lambda", "0.1", "--beta", "1", "--omega", "5"],
         "--omega does not apply to duality at lambda = 0.1"),
        (["duality", "--d", "3", "--omega", "1", "--beta", "7"],
         "--beta does not apply to duality at lambda = 0"),
    ],
    ids=["vonroos-general", "vonroos-two-values", "unknown-ordering", "fractional-l",
         "negative-L", "x-max-outside-domain", "x-max-at-domain-end",
         "unknown-ordering-weighted-model",
         "ordering-on-weighted-model", "non-doubling-grids", "zero-grids", "negative-grids",
         "no-states", "no-points", "no-samples",
         "fractional-l-duality", "infinite-l", "nan-tol-eig", "negative-tol-eig",
         "negative-exponent-tol-eig",
         "nan-tol-residual", "negative-tol-residual", "negative-n-max", "nan-lambda",
         "inf-omega", "non-integer-grids", "k-above-coarsest-grid", "unbound-nlo-x-max",
         "unbound-clike-x-max", "unbound-nlo", "infinite-L", "l-on-clike", "lambda-on-osc",
         "csv-verify", "csv-nlo-bound-states", "omega-on-curved-duality",
         "beta-on-flat-duality"],
)
def test_usage_errors_print_one_line(argv, message, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve ran before the usage check")

    def no_problem(*args, **kwargs):
        raise AssertionError("a problem was built before the usage check")

    monkeypatch.setattr(kernels, "lowest_eigenvalues_tridiag", no_solve)
    monkeypatch.setattr(oracle, "build_problem", no_problem)
    assert message in assert_usage_error(argv, capsys)


@pytest.mark.parametrize("name,triple", [("bd", "0,-1,0"), ("mm", "-0.25,-0.5,-0.25")])
def test_vonroos_spelling_of_bd_and_mm_gives_the_same_report(name, triple, capsys):
    argv = ["verify", *PDM_COULOMB, "--k", "1", "--grids", "128,256,512", "--ordering"]
    named = json.loads(run([*argv, name], capsys)[1])
    spelled = json.loads(run([*argv, f"vonroos:{triple}"], capsys)[1])
    assert (named.pop("ordering"), spelled.pop("ordering")) == (name, f"vonroos:{triple}")
    assert named == spelled


@pytest.mark.parametrize("model", ["clike", "pdm-coulomb"])
def test_verify_far_tail_where_the_stretch_underflows(model, capsys):
    # the cutoff of n_r = 1 falls at x = 38.9, where t = exp(lam x^2) is 2e-197
    # and t^2 underflows: P = t^2/(2 x t)^2 must be formed without t
    code, out, err = run(
        ["verify", "--model", model, "--D", "3", "--lambda", "-0.3", "--Q", "2", "--L", "0.5",
         "--k", "2"],
        capsys,
    )
    assert code == 0, err
    assert all(state["pass"] for state in json.loads(out)["states"])


@pytest.mark.parametrize("command", [["verify", "--k", "2"], ["wavefunction", "--n-r", "1"]])
def test_cutoff_scan_stops_where_the_coordinate_overflows(command, capsys):
    # n_r=1 still holds 4e-6 of its peak density at x = 32, and R = expm1(lam
    # x^2)/lam overflows before x = 64: that window raised "polynomial
    # argument must be finite" from deep inside the Jacobi recurrence
    code, out, err = run(
        [command[0], "--model", "clike", "--D", "2.5", "--lambda", "0.3", "--Q", "1", "--L", "0",
         *command[1:]],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: state n_r=1 ang=0: density does not decay below 1e-12 of its peak by y = 32, "
        "and its coordinate map overflows before y = 64\n"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--model", "clike", "--D", "3", "--lambda", "1e-300", "--Q", "1", "--L", "0"],
         "state n_r=0 ang=0: density does not decay below 1e-12 of its peak by y = 8192"),
        (["--model", "nlo", "--d", "3", "--lambda", "-1e-300", "--beta", "1", "--k", "1"],
         "the operator overflows on the grid of N = 512 cells of y in (0, 1e+150)"),
        (["--model", "nlo", "--d", "3", "--lambda", "-1e-200", "--beta", "1", "--k", "1"],
         "the operator overflows on the grid of N = 512 cells of y in (0, 1e+100)"),
        (["--model", "pdm-osc", "--d", "3", "--lambda", "-1e-300", "--beta", "1", "--k", "1"],
         "the operator overflows on the grid of N = 512 cells of y in (0, 1e+150)"),
    ],
    ids=["clike-never-decays", "nlo-overflows", "nlo-overflows-1e-200", "pdm-osc-overflows"],
)
def test_refusals_found_while_solving_print_one_line(argv, message, capsys):
    # clike at lam = 1e-300 still holds its density at y = 8192, the scan's last
    # window; on nlo's domain (0, 1/sqrt|lam|) h^2 w overflows, and the solve
    # would read its couplings as 0: one error line each, and no warning
    assert assert_usage_error(["verify", *argv], capsys) == f"error: {message}"


def test_verify_zero_reference_is_judged_by_its_absolute_error(capsys):
    # clike D=2.5 L=0 has 2E = 0 exactly at n_r = 1 (extrapolation 4.3e-12)
    code, out, err = run(
        ["verify", "--model", "clike", "--D", "2.5", "--lambda", "0.1", "--Q", "0.5", "--L", "0",
         "--k", "2"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert "Infinity" not in out and "NaN" not in out
    state = json.loads(out)["states"][1]
    assert state["reference"] == 0.0
    assert state["rel_error"] == abs(state["extrapolated"]) < 1e-10


def test_verify_flat_half_integer_L_answers(capsys):
    # a flat lam > 0 state that once had no admissible truncation radius (exit 2)
    code, out, _ = run(
        ["verify", "--model", "pdm-coulomb", "--D", "4", "--lambda", "0.05", "--Q", "1",
         "--L", "0.5", "--k", "3"],
        capsys,
    )
    assert code in (0, 1)
    assert len(json.loads(out)["states"]) == 3


def run_python(*args, stdin=None):
    src = os.path.dirname(os.path.dirname(oscoul.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], env=env, input=stdin, capture_output=True, text=True
    )


def test_cli_import_loads_no_scipy_or_numba():
    # scipy.linalg alone adds about 28 MB of resident memory to every run; the
    # oracle, the duality map and the LAPACK binding are imported only by the
    # commands that use them
    code = (
        "import oscoul.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numba'))); "
        "print(sorted(m for m in ('oscoul.kernels', 'oscoul.oracle', 'oscoul.duality') "
        "if m in sys.modules))"
    )
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]", "[]"]


@pytest.mark.parametrize("lam,loads_oracle", [("-0.1", False), ("0.1", True)])
def test_duality_imports_the_oracle_only_for_an_infinite_domain(lam, loads_oracle, tmp_path):
    # at lam < 0 the Coulomb side's domain is finite and needs no cutoff scan;
    # the median of the ratios never imports numpy.ma (about 12 ms)
    code = (
        "import sys, oscoul.cli; "
        f"oscoul.cli.main(['duality', '--d', '3', '--lambda', '{lam}', '--beta', '1', "
        f"'--out', {str(tmp_path / 'd.json')!r}]); "
        "print(sorted(m for m in ('numpy.ma', 'oscoul.oracle') if m in sys.modules))"
    )
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == (["['oscoul.oracle']"] if loads_oracle else ["[]"])
    assert json.loads((tmp_path / "d.json").read_text())["max_deviation"] < 1e-12


# runs golden cases, read as (name, argv, out path) from stdin, in one fresh
# process and prints the NumPy modules loaded after them
GOLDEN_RUNNER = """
import json, sys
import oscoul, oscoul.cli
for name, argv, out in json.load(sys.stdin):
    assert oscoul.cli.main([*argv, "--out", out]) == 0, name
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "numpy")))
"""


def run_golden_cases_fresh(names, tmp_path):
    cases = [(name, CASES[name], str(tmp_path / name)) for name in names]
    out = run_python("-c", GOLDEN_RUNNER, stdin=json.dumps(cases))
    assert out.returncode == 0, out.stderr
    mismatched = [n for n in names if (tmp_path / n).read_bytes() != (GOLDEN / n).read_bytes()]
    assert not mismatched, mismatched
    return json.loads(out.stdout)


def test_closed_form_commands_run_without_numpy(tmp_path):
    # spectrum and bound-states evaluate scalar closed forms: NumPy is
    # registered to load on first use and never executes
    names = [n for n in CASES if n.startswith(("spectrum-", "bound-states-"))]
    assert len(names) == 21
    assert "numpy._core" not in run_golden_cases_fresh(names, tmp_path)


def test_array_commands_load_numpy_on_first_use(tmp_path):
    names = ["wavefunction-nlo-pos.csv", "duality-nlo-pos.json"]
    assert "numpy._core" in run_golden_cases_fresh(names, tmp_path)


def test_repeated_main_calls_match_separate_runs(capsys):
    # main reuses one parser, so no value of one call may leak into the next
    calls = [
        ["verify", "--model", "nlo", "--d", "2", "--lambda", "-0.1", "--beta", "1",
         "--l", "1", "--k", "2", "--grids", "64,128,256", "--tol-eig", "1e-3"],
        ["spectrum", "--model", "clike", "--D", "3", "--lambda", "-0.1", "--Q", "1",
         "--n-max", "3", "--format", "json"],
        ["verify", "--model", "pdm-coulomb", "--D", "3", "--lambda", "-0.1", "--Q", "1",
         "--ordering", "mm", "--k", "1", "--grids", "128,256,512"],
    ]
    for argv in calls:
        code, out, err = run(argv, capsys)
        alone = run_python("-m", "oscoul.cli", *argv)
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr)


@pytest.fixture
def no_lapack(tmp_path, monkeypatch):
    monkeypatch.setattr(kernels, "_library_dirs", lambda: [tmp_path])
    kernels._lapack.cache_clear()
    yield tmp_path
    kernels._lapack.cache_clear()


def assert_verify_fails_but_spectrum_runs(capsys, *names):
    code, _, err = run(
        ["verify", "--model", "nlo", "--d", "2", "--lambda", "-0.1", "--beta", "1", "--k", "1"],
        capsys,
    )
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for name in names:
        assert name in lines[0]
    code, out, _ = run(
        ["spectrum", "--model", "nlo", "--d", "2", "--lambda", "-0.1", "--beta", "1"], capsys
    )
    assert code == 0 and out.startswith("n_r,ang,n,energy,bound")


def test_missing_lapack_is_a_usage_error(no_lapack, capsys):
    assert_verify_fails_but_spectrum_runs(capsys, "libscipy_openblas64_")


def test_library_without_the_routines_names_them(no_lapack, capsys):
    # a loadable library under the expected name that does not export the
    # routine (a copy of a C extension of the standard library)
    (no_lapack / "libscipy_openblas64_-stub.so").write_bytes(Path(_json.__file__).read_bytes())
    assert_verify_fails_but_spectrum_runs(capsys, "libscipy_openblas64_", "scipy_dlarrk_64_")
