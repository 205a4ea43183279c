import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import subfrac
import subfrac.spectral as spectral
from subfrac import GridFunction, GridSpec
from subfrac.cli import (
    KEYS,
    ExperimentConfig,
    _parse_floats,
    _read_config_file,
    build_parser,
    commutator_residual,
    config_from_args,
    main,
    report_json,
    run,
)
from subfrac.errors import ConfigError


# the kinds that diagonalize a Heisenberg grid by the dense eigh
DENSE_KINDS = ("spectrum", "frac", "heat", "extend", "verify-all")


def run_cli(argv):
    return main(argv)


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["limit", "--does-not-exist", "1"])
    assert exc.value.code == 2


def test_assemble_writes_matrix_market(tmp_path):
    code = run_cli([
        "assemble", "--mode", "euclidean_box", "--n", "9", "--L", "1", "--dims", "1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    mtx = (tmp_path / "assemble" / "operator.mtx").read_text().splitlines()
    assert mtx[0] == "%%MatrixMarket matrix coordinate real symmetric"
    assert (tmp_path / "assemble" / "results.json").exists()


def test_spectrum_csv_output(tmp_path):
    code = run_cli([
        "spectrum", "--mode", "euclidean_torus", "--n", "32", "--L", "1", "--dims", "1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "spectrum" / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 33


def test_limit_run_passes_and_exports(tmp_path, capsys):
    code = run_cli([
        "limit", "--mode", "euclidean_torus", "--n", "64", "--L", "10",
        "--s", "0.5", "--t", "0.2,0.1,0.05", "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "C_s_closed_vs_quadrature_s=0.5" in out
    assert "boundary_limit_rel_error_s=0.5" in out
    f = subfrac.read_gf1(tmp_path / "limit" / "limit_extrapolated_s0.5.gf1")
    assert f.spec.n_per_axis == 64
    sweep = (tmp_path / "limit" / "limit_sweep_s0.5.csv").read_text().splitlines()
    assert sweep[0] == "t,rel_distance_to_extrapolant"
    assert len(sweep) == 4


def test_failing_tolerance_exits_one(tmp_path, capsys):
    code = run_cli([
        "limit", "--mode", "euclidean_torus", "--n", "32", "--L", "10",
        "--s", "0.5", "--t", "0.4,0.2,0.1", "--tol", "1e-18", "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert any(line.startswith("FAIL") for line in out.splitlines())


def test_limit_heisenberg_s09_regression(tmp_path):
    # the three-point elimination missed the 2e-2 tolerance on this seed
    code = run_cli([
        "limit", "--mode", "heisenberg", "--n", "9", "--L", "2", "--s", "0.9",
        "--t", "0.2,0.1,0.05", "--seed", "11", "--out", str(tmp_path),
    ])
    assert code == 0


@pytest.mark.parametrize("s", ["0.999", "0.9999"])
def test_limit_at_s_near_one_passes(tmp_path, s):
    # the C(s) cross-check's quadrature converges as s -> 1
    code = run_cli([
        "limit", "--mode", "heisenberg", "--n", "5", "--L", "1", "--s", s,
        "--out", str(tmp_path),
    ])
    assert code == 0


def test_limit_fallback_is_reported(tmp_path, monkeypatch, capsys):
    # a sweep that does not close in on the extrapolant falls back to the raw
    # smallest-t value; the report must fail on it even when that value
    # happens to meet the tolerance
    import subfrac.extension as ext

    monkeypatch.setattr(ext, "_extrapolate_three", lambda ts, ws, dws, s: np.array(ws[0]))
    with pytest.warns(RuntimeWarning):
        code = run_cli([
            "limit", "--mode", "euclidean_torus", "--n", "32", "--L", "10",
            "--s", "0.5", "--t", "0.2,0.1,0.05", "--tol", "1.0", "--out", str(tmp_path),
        ])
    assert code == 1
    report = json.loads((tmp_path / "limit" / "results.json").read_text())["report"]
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["boundary_limit_rel_error_s=0.5"]["passed"]
    assert not checks["boundary_limit_fallback_s=0.5"]["passed"]
    assert not report["passed"]
    assert "FAIL boundary_limit_fallback_s=0.5" in capsys.readouterr().out


@pytest.mark.parametrize("kind, s, code", [
    ("limit", "1e-15", 0), ("limit", "1e-16", 2), ("limit", "1e-17", 2),
    ("limit", "0.9999999999999999", 2), ("verify-all", "1e-300", 2)])
def test_s_within_roundoff_of_zero_or_one_passes_or_exits_two(tmp_path, capsys, kind, s, code):
    # two powers of the boundary limit's Hermite extrapolation coincide in
    # double precision there; the config refuses the run with an error line,
    # not a LinAlgError, before any stage writes a file
    assert run_cli([kind, "--mode", "euclidean_torus", "--n", "16", "--s", s,
                    "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith(f"error: the boundary-limit extrapolation at s={float(s)} is singular")
    assert (tmp_path / kind).exists() is (code == 0)


@pytest.mark.parametrize("argv", [
    *([kind, "--mode", "heisenberg", "--n", "19"] for kind in DENSE_KINDS),
    ["limit", "--mode", "heisenberg", "--n", "107"],
], ids=lambda argv: "-".join(x for x in argv if not x.startswith("--")))
def test_grid_past_its_route_capacity_is_refused_before_assembly(tmp_path, capsys, monkeypatch,
                                                                 argv):
    # 19^3 = 6859 nodes are over DENSE_LIMIT; on 107^3 nodes the Krylov
    # basis fits only 29 of its 32 starting steps
    import subfrac.cli as cli

    def assemble(*args):
        raise AssertionError("assembled a grid past its route's capacity")

    monkeypatch.setattr(cli, "assemble_operator", assemble)
    assert run_cli([*argv, "--out", str(tmp_path)]) == 2
    assert (("32 Krylov steps on 1225043 nodes exceed the 6000^2-double memory limit"
             if argv[0] == "limit" else "over the dense eigendecomposition limit 6000")
            in capsys.readouterr().err)
    assert not (tmp_path / argv[0]).exists()


@pytest.mark.parametrize("kind", ["spectrum", "verify-all"])
def test_box_past_the_dense_wall_takes_the_dst(tmp_path, monkeypatch, kind):
    # 19^3 = 6859 nodes are over DENSE_LIMIT, which no longer caps a box:
    # the DST diagonalizes it, checked by the probes against the operator
    import subfrac.cli as cli
    import subfrac.spectral as spectral

    def refuse(*args, **kwargs):
        raise AssertionError("a box run called the dense eigendecomposition")

    monkeypatch.setattr(spectral, "spectral_decompose", refuse)
    monkeypatch.setattr(cli, "spectral_decompose", refuse)
    assert run_cli([kind, "--mode", "euclidean_box", "--dims", "3", "--n", "19", "--L", "4",
                    "--out", str(tmp_path)]) == 0
    checks = _checks(tmp_path, kind)
    for name in EIGEN_PROBES:
        assert checks[name]["passed"] and checks[name]["tolerance"] == 1e-12, name


def test_box_verify_all_does_not_import_scipy_fft(tmp_path):
    # the box's DST-I is taken with numpy.fft, which the package loads
    # anyway; a fresh process, since another test may have loaded scipy.fft
    src = str(Path(subfrac.__file__).resolve().parent.parent)
    code = ("import sys; from subfrac.cli import main; "
            f"code = main(['verify-all', '--mode', 'euclidean_box', '--dims', '2', '--n', '13', "
            f"'--out', {str(tmp_path)!r}]); "
            "sys.exit(code or ('scipy.fft' in sys.modules and 'scipy.fft was imported'))")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_unknown_kind_is_rejected_before_any_output(tmp_path):
    out = tmp_path / "runs"
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        run(ExperimentConfig(kind="bogus", out=str(out)))
    assert not out.exists()


def test_parse_floats_rejects_non_finite(tmp_path):
    with pytest.raises(ConfigError):
        _parse_floats("nan,inf")
    with pytest.raises(SystemExit) as exc:
        main(["limit", "--s", "nan", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("line", ["s=abc", "t=0.2,x", "n=abc", "L=wide"])
def test_config_file_unparsable_value_exits_two(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert run_cli(["limit", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"bad value for {line.split('=')[0]!r}" in err


def test_flag_unparsable_float_list_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["limit", "--s", "abc", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --s: bad float list 'abc'" in capsys.readouterr().err


@given(st.text())
def test_parse_floats_gives_finite_floats_or_config_error(text):
    try:
        values = _parse_floats(text)
    except ConfigError:
        return
    assert isinstance(values, tuple)
    assert all(type(v) is float and np.isfinite(v) for v in values)


@given(st.text())
def test_config_file_parser_gives_pairs_or_config_error(tmp_path_factory, text):
    cfg = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    cfg.write_text(text, encoding="utf-8")
    try:
        values = _read_config_file(str(cfg))
    except ConfigError:
        return
    for key, value in values.items():
        assert key == key.strip() and value == value.strip()
        assert not key.startswith("#") and "=" not in key


def test_empty_t_sweep_exits_two(tmp_path, capsys):
    code = run_cli(["extend", "--mode", "euclidean_torus", "--n", "16", "--t", ",",
                    "--out", str(tmp_path)])
    assert code == 2
    assert "error: the t sweep is empty" in capsys.readouterr().err
    assert not (tmp_path / "extend").exists()


def test_empty_s_sweep_exits_two(tmp_path, capsys):
    # with no s the per-s checks never run, so the report would pass vacuously
    code = run_cli(["limit", "--mode", "euclidean_torus", "--n", "16", "--s", ",",
                    "--out", str(tmp_path)])
    assert code == 2
    assert "error: the s sweep is empty" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_bad_tolerance_exits_two(tmp_path, capsys, tol, source):
    # the tol parser refuses these, 0 included: ExperimentConfig reads a 0
    # as the default of the mode, while the hashed config would say 0.0
    argv = ["limit", "--mode", "euclidean_torus", "--n", "16", "--out", str(tmp_path)]
    if source == "flag":
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--tol", tol])
        assert exc.value.code == 2
    else:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"tol={tol}\n")
        assert run_cli([*argv, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "tol must be finite and > 0" in err
    assert not (tmp_path / "limit").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("kind, key, value", [
    ("limit", "seed", "-1"),
    ("limit", "s", "0.5,0.5"),
    ("heat", "t", "0.2,0.2"),
])
def test_bad_seed_or_repeated_sweep_value_exits_two(tmp_path, capsys, kind, key, value, source):
    # a negative seed is no numpy seed, and a repeated sweep value would
    # report one check twice and overwrite its output files
    argv = [kind, "--mode", "euclidean_torus", "--n", "16", "--out", str(tmp_path)]
    if source == "flag":
        argv += [f"--{key}", value]
    else:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key}={value}\n")
        argv += ["--config", str(cfg)]
    assert run_cli(argv) == 2
    message = "seed must be >= 0" if key == "seed" else f"the {key} sweep repeats a value"
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / kind).exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("kind, mode, key, value, message", [
    ("extend", "heisenberg", "t", "0.1,0.2", "t values must be strictly descending"),
    ("limit", "euclidean_torus", "t", "0.2,0.1", "limit needs at least 3 t values"),
    ("limit", "heisenberg", "t", "0.2,0.05,0.1", "t values must be strictly descending"),
    ("verify-all", "euclidean_torus", "t", "0.2,0.1", "verify-all needs at least 3 t values"),
    ("extend", "euclidean_torus", "t", "0.2,0", "all t values must be finite and > 0"),
    ("limit", "heisenberg", "s", "0.5,1.5", "s must lie strictly in (0, 1)"),
])
def test_bad_extension_sweep_exits_two_before_any_output(tmp_path, capsys, kind, mode, key,
                                                         value, message, source):
    # rejected with the config, so no decomposition is paid for and no
    # spectrum.csv is left without its results.json
    argv = [kind, "--mode", mode, "--n", "7" if mode == "heisenberg" else "16",
            "--out", str(tmp_path)]
    if source == "flag":
        argv += [f"--{key}", value]
    else:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key}={value}\n")
        argv += ["--config", str(cfg)]
    assert run_cli(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / kind).exists()


def test_heat_takes_any_t_sweep(tmp_path):
    # only the extension kinds march t down to the boundary
    code = run_cli(["heat", "--mode", "euclidean_torus", "--n", "16", "--t", "0.1,0.3",
                    "--out", str(tmp_path)])
    assert code == 0


@pytest.mark.parametrize("mode, t, message", [
    ("euclidean_torus", "0.1,-0.1", "heat semigroup needs t >= 0"),
    ("heisenberg", "-0.1", "heat semigroup needs t >= 0"),
    ("euclidean_torus", "0.1,0", "the torus kernel column needs t > 0"),
])
def test_bad_heat_sweep_exits_two_before_any_output(tmp_path, capsys, mode, t, message):
    # rejected with the config, so no spectrum.csv or heat_t*.gf1 is left
    # without its results.json
    code = run_cli(["heat", "--mode", mode, "--n", "7" if mode == "heisenberg" else "16",
                    "--t", t, "--out", str(tmp_path)])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "heat").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("mode, key, value", [
    ("heisenberg", "dims", "2"),
    ("euclidean_torus", "op", "j3"),
    ("euclidean_box", "op", "j1"),
])
def test_value_the_mode_ignores_exits_two(tmp_path, capsys, mode, key, value, source):
    # a heisenberg grid is always 3-D and a euclidean one carries the euclid
    # operator, so any other value would be hashed into the config but not run
    argv = ["spectrum", "--mode", mode, "--n", "5", "--out", str(tmp_path)]
    if source == "flag":
        argv += [f"--{key}", value]
    else:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key}={value}\n")
        argv += ["--config", str(cfg)]
    assert run_cli(argv) == 2
    assert f"got {key}=" in capsys.readouterr().err


EIGEN_PROBES = ("eigen_orthogonality_probe", "eigen_residual_probe")


def test_spectrum_reports_eigen_probes(tmp_path):
    # the dense route (a box and the Heisenberg grid) and the FFT route (a torus)
    for grid in (["--mode", "euclidean_box", "--dims", "2", "--n", "13"],
                 ["--mode", "heisenberg", "--n", "5"],
                 ["--mode", "euclidean_torus", "--n", "16"]):
        out = tmp_path / grid[1]
        assert run_cli(["spectrum", *grid, "--out", str(out)]) == 0, grid
        checks = _checks(out, "spectrum")
        for name in EIGEN_PROBES:
            assert checks[name]["passed"], (grid, name)
            assert checks[name]["tolerance"] == 1e-12


def _checks(tmp_path, kind):
    report = json.loads((tmp_path / kind / "results.json").read_text())["report"]
    return {c["name"]: c for c in report["checks"]}


def test_tol_sets_only_the_boundary_limit_bound(tmp_path):
    code = run_cli(["verify-all", "--mode", "euclidean_torus", "--n", "32", "--L", "10",
                    "--s", "0.5", "--tol", "0.02", "--out", str(tmp_path)])
    assert code == 0
    checks = _checks(tmp_path, "verify-all")
    assert checks["boundary_limit_rel_error_s=0.5"]["tolerance"] == 0.02
    assert checks["pde_residual_s=0.5"]["tolerance"] == 1e-6


KRYLOV_CHECKS = {
    "krylov_orthogonality": 1e-12,
    "krylov_steps_s=0.5": subfrac.spectral.DENSE_LIMIT ** 2 // 19 ** 3,
    "krylov_delta_s=0.5": 1e-10,
    "sparse_identity_s=0.5": 1e-12,
}


def test_heisenberg_limit_past_the_dense_wall(tmp_path, monkeypatch):
    # N = 6859 is over the dense limit; a Heisenberg limit must never densify
    import subfrac.cli as cli
    import subfrac.spectral as spectral

    def refuse(*args, **kwargs):
        raise AssertionError("limit called the dense eigendecomposition")

    monkeypatch.setattr(spectral, "spectral_decompose", refuse)
    monkeypatch.setattr(cli, "spectral_decompose", refuse)
    code = run_cli(["limit", "--mode", "heisenberg", "--n", "19", "--L", "4",
                    "--out", str(tmp_path)])
    assert code == 0
    checks = _checks(tmp_path, "limit")
    for name, bound in KRYLOV_CHECKS.items():
        assert checks[name]["passed"] and checks[name]["tolerance"] == bound, name
    assert checks["boundary_limit_rel_error_s=0.5"]["passed"]
    assert not (tmp_path / "limit" / "spectrum.csv").exists()


def test_sparse_identity_with_an_exhaustive_basis(tmp_path):
    # on the 5^3 grid phi's basis reaches N = 125 steps and is exact, and
    # the plain basis of A phi has as many steps but no orthogonality
    code = run_cli(["limit", "--mode", "heisenberg", "--n", "5", "--L", "2",
                    "--s", "0.1,0.5,0.9", "--out", str(tmp_path)])
    assert code == 0
    checks = _checks(tmp_path, "limit")
    for s in ("0.1", "0.5", "0.9"):
        assert checks[f"krylov_steps_s={s}"]["achieved"] == 125
        assert checks[f"krylov_delta_s={s}"]["achieved"] == 0.0
        check = checks[f"sparse_identity_s={s}"]
        assert check["passed"] and check["tolerance"] == 1e-12


def test_krylov_limit_times_its_two_spectra_in_provenance(tmp_path):
    # the doubling loop and the plain A phi spectrum are timed beside the
    # run, outside the hashed report, which stays bitwise the same
    argv = ["limit", "--mode", "heisenberg", "--n", "7", "--L", "2", "--seed", "3",
            "--out", None]
    reports = []
    for sub in ("a", "b"):
        argv[-1] = str(tmp_path / sub)
        assert run_cli(argv) == 0
        payload = json.loads((tmp_path / sub / "limit" / "results.json").read_text())
        clock = payload["provenance"]["wall_clock_s"]
        assert sorted(clock) == ["limit", "limit_krylov_doubling", "limit_krylov_plain"]
        assert 0 < clock["limit_krylov_doubling"] + clock["limit_krylov_plain"] < clock["limit"]
        reports.append(json.dumps(payload["report"], sort_keys=True))
    assert reports[0] == reports[1] and "limit_krylov" not in reports[0]


def test_verify_all_times_each_stage_in_provenance(tmp_path):
    # each stage's wall time sits beside the run, outside the hashed report,
    # which stays bitwise the same
    argv = ["verify-all", "--mode", "euclidean_torus", "--n", "16", "--L", "10",
            "--seed", "3", "--out", None]
    stages = ["extend", "frac", "group", "heat", "limit", "spectrum"]
    reports = []
    for sub in ("a", "b"):
        argv[-1] = str(tmp_path / sub)
        assert run_cli(argv) == 0
        payload = json.loads((tmp_path / sub / "verify-all" / "results.json").read_text())
        clock = payload["provenance"]["wall_clock_s"]
        assert sorted(clock) == [*stages, "verify-all"]
        assert 0 < sum(clock[stage] for stage in stages) < clock["verify-all"]
        reports.append(json.dumps(payload["report"], sort_keys=True))
    assert reports[0] == reports[1] and "wall_clock" not in reports[0]


@pytest.mark.parametrize("argv, dense", [
    (["spectrum", "--mode", "heisenberg", "--n", "5", "--L", "2"], True),
    (["limit", "--mode", "heisenberg", "--n", "5", "--L", "2"], False),
    (["spectrum", "--mode", "euclidean_torus", "--n", "16", "--L", "10"], False),
], ids=["dense", "krylov", "torus"])
def test_provenance_records_the_blas_threads_of_the_dense_route(tmp_path, argv, dense):
    assert run_cli([*argv, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / argv[0] / "results.json").read_text())
    found = spectral.blas_thread_api()
    # a dense route below SERIAL_ORDER runs on one thread, and so does the
    # Krylov route; the FFT route runs neither
    krylov = argv[0] == "limit"
    one = 1 if found["api"] else None
    assert payload["provenance"]["blas"] == {**found, "dense_threads": one if dense else None,
                                             "krylov_threads": one if krylov else None}
    # the Gram-Schmidt passes of the Krylov route's reorthogonalized spectrum
    gram_schmidt = payload["provenance"]["gram_schmidt"]
    if krylov:
        steps = {c["name"]: c for c in payload["report"]["checks"]}["krylov_steps_s=0.5"]
        assert gram_schmidt["steps"] == steps["achieved"]
        assert 0 < gram_schmidt["passes"] <= gram_schmidt["steps"]
    else:
        assert gram_schmidt is None
    report = json.dumps(payload["report"])
    assert "blas" not in report and "gram_schmidt" not in report and "passes" not in report


@pytest.mark.parametrize("argv, clamped", [
    (["spectrum", "--mode", "heisenberg", "--n", "9", "--L", "2"],
     {"dense": 0, "krylov": None, "krylov_plain": None}),
    (["limit", "--mode", "heisenberg", "--n", "5", "--L", "2"],
     {"dense": None, "krylov": 0, "krylov_plain": 0}),
    (["verify-all", "--mode", "euclidean_torus", "--n", "16", "--L", "10"],
     {"dense": None, "krylov": None, "krylov_plain": None}),
], ids=["heis9", "krylov", "torus"])
def test_provenance_counts_the_clamped_eigenvalues(tmp_path, argv, clamped):
    # the dense eigh and both Ritz spectra count the eigenvalues their clamp
    # set to 0, none on a Dirichlet grid; the torus's FFT symbol is exact and
    # is not clamped, so its count is None
    assert run_cli([*argv, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / argv[0] / "results.json").read_text())
    assert payload["provenance"]["clamped_eigenvalues"] == clamped
    assert "clamped" not in json.dumps(payload["report"])


@pytest.mark.skipif(spectral.blas_thread_api()["api"] is None,
                    reason="scipy's BLAS has no OpenBLAS thread API")
def test_dense_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # two processes whose OpenBLAS starts at one and at two threads write
    # the same hashed report: below SERIAL_ORDER the dense route runs on one
    argv = ["extend", "--mode", "heisenberg", "--n", "7", "--L", "2", "--s", "0.3,0.7",
            "--t", "0.2,0.1"]
    src = str(Path(subfrac.__file__).resolve().parent.parent)
    payloads = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "subfrac.cli", *argv,
                               "--out", str(tmp_path / threads)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payloads[threads] = json.loads((tmp_path / threads / "extend" / "results.json").read_text())
    blas = {threads: payload["provenance"]["blas"] for threads, payload in payloads.items()}
    assert blas["1"]["default_threads"] == 1 and blas["2"]["default_threads"] >= 1
    assert blas["1"]["dense_threads"] == blas["2"]["dense_threads"] == 1
    assert (json.dumps(payloads["1"]["report"], sort_keys=True)
            == json.dumps(payloads["2"]["report"], sort_keys=True))


# from 1e-160 on, q = lam t^2/4 lies below the normal double range at every
# lam > 0, so each mode passes through with d2F/dt2 = 0 and all of it is lost
@pytest.mark.parametrize("t", ["1e-150", "1e-160", "1e-200", "1e-300"])
def test_extend_at_a_t_too_small_for_the_multipliers_exits_two(tmp_path, capsys, t):
    code = run_cli(["extend", "--s", "0.5", "--t", t, "--out", str(tmp_path)])
    assert code == 2
    assert "cancels to roundoff" in capsys.readouterr().err


def test_krylov_limit_holds_one_basis_at_a_time(tmp_path, monkeypatch):
    # the basis of A phi in the sparse identity is built only after every
    # spectrum of phi, each doubling included, has been freed
    import weakref

    import subfrac.cli as cli
    import subfrac.spectral as spectral

    build, extend = cli.krylov_spectrum, spectral.KrylovSpectrum.extended
    of_phi, alive_at_psi = [], []

    def tracked_build(op, f, steps, **kwargs):
        if of_phi:  # every build after phi's first one is the A phi basis
            alive_at_psi.append(sum(ref() is not None for ref in of_phi))
            return build(op, f, steps, **kwargs)
        kry = build(op, f, steps, **kwargs)
        of_phi.append(weakref.ref(kry))
        return kry

    def tracked_extend(self, op, steps):
        kry = extend(self, op, steps)
        of_phi.append(weakref.ref(kry))
        return kry

    monkeypatch.setattr(cli, "krylov_spectrum", tracked_build)
    monkeypatch.setattr(spectral.KrylovSpectrum, "extended", tracked_extend)
    code = run_cli(["limit", "--mode", "heisenberg", "--n", "7", "--L", "2",
                    "--s", "0.3,0.7", "--out", str(tmp_path)])
    assert code == 0
    assert len(of_phi) > 1 and alive_at_psi == [0]


def test_sparse_identity_builds_one_basis_for_every_s(tmp_path, monkeypatch):
    # phi's reorthogonalized spectrum and one plain spectrum of A phi,
    # however many s values
    import subfrac.cli as cli

    build, calls, modes = cli.krylov_spectrum, [], []

    def counted(op, f, steps, **kwargs):
        calls.append(steps)
        modes.append(kwargs)
        return build(op, f, steps, **kwargs)

    monkeypatch.setattr(cli, "krylov_spectrum", counted)
    code = run_cli(["limit", "--mode", "heisenberg", "--n", "7", "--L", "2",
                    "--s", "0.1,0.5,0.9", "--out", str(tmp_path)])
    assert code == 0
    assert len(calls) == 2
    assert modes == [{}, {"reorthogonalize": False}]
    checks = _checks(tmp_path, "limit")
    for s in ("0.1", "0.5", "0.9"):
        check = checks[f"sparse_identity_s={s}"]
        assert check["passed"] and check["tolerance"] == 1e-12


@pytest.mark.parametrize("kind, mode, calls", [
    ("frac", "heisenberg", 1 + 3),
    ("heat", "heisenberg", 1 + 3),
    ("heat", "euclidean_torus", 1 + 3 + 1),
])
def test_frac_and_heat_take_their_outputs_over_phi_in_one_apply(tmp_path, monkeypatch, kind,
                                                                 mode, calls):
    # J^s and J^{s/2} of phi for every s (H_t and H_{t/2} for every t) come
    # from one 2-D apply, each second half from one apply on its own input,
    # and a torus's kernel columns from one more apply on the delta
    import subfrac.cli as cli

    apply, shapes = spectral.SpectralDecomposition.apply_values, []

    def counted(self, values, f):
        shapes.append(np.shape(values))
        return apply(self, values, f)

    stage = cli.RUNNERS[kind][0]

    def measured(run):
        run.dec  # built and probed before the count starts
        monkeypatch.setattr(spectral.SpectralDecomposition, "apply_values", counted)
        stage(run)

    monkeypatch.setitem(cli.RUNNERS, kind, (measured,))
    grid = ["--n", "5", "--L", "2"] if mode == "heisenberg" else ["--n", "16", "--L", "10"]
    code = run_cli([kind, "--mode", mode, *grid, "--s", "0.3,0.5,0.7",
                    "--t", "0.2,0.1,0.05", "--out", str(tmp_path)])
    assert code == 0
    assert len(shapes) == calls
    assert shapes[0][0] == 2 * 3
    if mode == "euclidean_torus":
        assert shapes[1][0] == 3


def test_torus_runs_never_densify(tmp_path, monkeypatch):
    # every torus subcommand takes the FFT diagonalization, checked by the
    # probes against the assembled operator
    import subfrac.cli as cli
    import subfrac.spectral as spectral

    def refuse(*args, **kwargs):
        raise AssertionError("a torus run called the dense eigendecomposition")

    monkeypatch.setattr(spectral, "spectral_decompose", refuse)
    monkeypatch.setattr(cli, "spectral_decompose", refuse)
    for kind in ("spectrum", "frac", "heat", "extend", "limit", "verify-all"):
        code = run_cli([kind, "--mode", "euclidean_torus", "--dims", "2", "--n", "16",
                        "--L", "10", "--s", "0.5", "--out", str(tmp_path)])
        assert code == 0, kind
        checks = _checks(tmp_path, kind)
        for name in EIGEN_PROBES:
            assert checks[name]["passed"] and checks[name]["tolerance"] == 1e-12, (kind, name)
        assert not any(name.startswith(("krylov", "sparse_identity", "fourier_cross_validate"))
                       for name in checks), kind
    lines = (tmp_path / "spectrum" / "spectrum.csv").read_text().splitlines()
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert lines[0] == "index,eigenvalue" and len(values) == 256
    assert values == sorted(values) and values[0] == 0.0


@pytest.mark.parametrize("mode", ["euclidean_torus", "heisenberg"])
def test_verify_all_limit_reads_the_extend_profiles(tmp_path, monkeypatch, mode):
    # the extend and limit phis agree in every mode, so the boundary limit
    # reads the extend profiles: one multiplier call per (s, t), each over
    # the distinct eigenvalues
    import subfrac.extension as extension

    evaluate = extension.extension_multiplier_values
    calls, sizes = [], []

    def counted(s, t, lam):
        calls.append((s, t))
        sizes.append(lam.size)
        assert np.unique(lam).size == lam.size
        return evaluate(s, t, lam)

    monkeypatch.setattr(extension, "extension_multiplier_values", counted)
    grid = {"euclidean_torus": ["--dims", "2", "--n", "16", "--L", "10"],
            "heisenberg": ["--n", "5", "--L", "2"]}[mode]
    code = run_cli(["verify-all", "--mode", mode, *grid, "--s", "0.3,0.5",
                    "--t", "0.2,0.1,0.05", "--out", str(tmp_path)])
    assert code == 0
    assert len(calls) == 2 * 3
    assert len(set(calls)) == len(calls)
    if mode == "euclidean_torus":
        assert max(sizes) < 16 * 16


def test_verify_all_builds_phi_once(tmp_path, monkeypatch):
    # frac, heat, extend and limit share the one seeded phi of the job
    import subfrac.cli as cli

    build, specs = cli.random_bump, []

    def counted(spec, rng):
        specs.append(spec)
        return build(spec, rng)

    monkeypatch.setattr(cli, "random_bump", counted)
    code = run_cli(["verify-all", "--mode", "euclidean_torus", "--n", "16", "--L", "10",
                    "--out", str(tmp_path)])
    assert code == 0
    assert len(specs) == 1


def test_limit_spec_example_defaults(tmp_path):
    # the documented one-liner, with no --L: defaults must make it pass
    code = run_cli([
        "limit", "--mode", "euclidean_torus", "--n", "64",
        "--s", "0.5", "--t", "0.2,0.1,0.05", "--out", str(tmp_path),
    ])
    assert code == 0


@pytest.mark.parametrize("kind", ["spectrum", "limit"])
def test_box_mode_runs_on_its_defaults(tmp_path, kind):
    # a box needs an odd n, so its default grid differs from the torus's 64
    assert run_cli([kind, "--mode", "euclidean_box", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / kind / "results.json").read_text())["report"]
    assert report["config"]["n"] == "65"


@pytest.mark.parametrize("flags, message", [
    (["--n", "5", "--s", "0.5,-0.5"], "fractional power needs s > 0, got -0.5"),
    (["--n", "4"], "box modes need odd n_per_axis"),
], ids=["nonpositive-s", "even-box-n"])
def test_bad_frac_config_exits_two_before_any_output(tmp_path, capsys, flags, message):
    # rejected with the config, so no eigh is paid for and no empty frac/, or
    # frac_s*.gf1 without its results.json, is left behind
    assert run_cli(["frac", "--mode", "heisenberg", *flags, "--out", str(tmp_path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "frac").exists()


def test_heat_subcommand(tmp_path, capsys):
    code = run_cli([
        "heat", "--mode", "euclidean_torus", "--n", "32", "--L", "10",
        "--t", "0.3,0.1", "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "heat_identity_at_t0" in out
    assert "kernel_mass_gap_t=0.3" in out
    u = subfrac.read_gf1(tmp_path / "heat" / "heat_t0.3.gf1")
    assert u.spec.n_per_axis == 32


def test_extend_manifest(tmp_path):
    code = run_cli([
        "extend", "--mode", "euclidean_torus", "--n", "32", "--L", "10",
        "--s", "0.4", "--t", "0.3,0.1", "--out", str(tmp_path),
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "extend" / "extend_manifest_s0.4.json").read_text())
    assert manifest["s"] == 0.4
    assert manifest["t_values"] == [0.3, 0.1]
    assert manifest["path_agreement"] <= 1e-6
    checks = json.loads((tmp_path / "extend" / "results.json").read_text())["report"]["checks"]
    delta = next(c for c in checks if c["name"] == "path_b_quadrature_delta_s=0.4")
    assert delta["passed"] and delta["tolerance"] == subfrac.extension.QUAD_RTOL
    doublings = next(c for c in checks if c["name"] == "path_b_quadrature_doublings_s=0.4")
    assert doublings["passed"] and doublings["tolerance"] == subfrac.extension.QUAD_DOUBLINGS
    assert 1 <= doublings["achieved"] <= subfrac.extension.QUAD_DOUBLINGS
    assert doublings["achieved"] == int(doublings["achieved"])
    assert manifest["C_s_used"] == pytest.approx(subfrac.extension_constant(0.4))
    u = subfrac.read_gf1(tmp_path / "extend" / "extend_u_s0.4_t0.3.gf1")
    assert u.spec.mode == "euclidean_torus"


def test_extend_manifest_records_the_shared_grid(tmp_path):
    # one quadrature grid serves the whole s x t sweep; every manifest holds it
    code = run_cli([
        "extend", "--mode", "heisenberg", "--n", "5", "--L", "2",
        "--s", "0.3,0.6", "--t", "0.2,0.1", "--out", str(tmp_path),
    ])
    assert code == 0
    checks = json.loads((tmp_path / "extend" / "results.json").read_text())["report"]["checks"]
    achieved = {c["name"]: c["achieved"] for c in checks}
    grids = []
    for s in (0.3, 0.6):
        manifest = json.loads((tmp_path / "extend" / f"extend_manifest_s{s}.json").read_text())
        grid = manifest["quadrature"]
        assert grid["initial_nodes"] == subfrac.extension.QUAD_NODES + 1
        assert 1 <= grid["doublings"] == achieved[f"path_b_quadrature_doublings_s={s}"]
        assert grid["final_nodes"] == subfrac.extension.QUAD_NODES * 2 ** grid["doublings"] + 1
        assert achieved[f"path_b_quadrature_delta_s={s}"] <= grid["final_delta"]
        assert grid["final_delta"] <= subfrac.extension.QUAD_RTOL
        grids.append(grid)
    assert grids[0] == grids[1]
    assert grids[0]["final_delta"] == max(
        achieved[f"path_b_quadrature_delta_s={s}"] for s in (0.3, 0.6))


def test_extend_with_overflowing_q_passes(tmp_path):
    # t^2 overflows, so every mode's q is inf and its multipliers are exactly
    # 0 on both paths, with no floating-point warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli([
            "extend", "--mode", "heisenberg", "--n", "5", "--L", "2",
            "--s", "0.5", "--t", "1e300,1e299", "--out", str(tmp_path),
        ])
    assert code == 0
    u = subfrac.read_gf1(tmp_path / "extend" / "extend_u_s0.5_t1e+300.gf1")
    assert (u.values == 0.0).all()
    manifest = json.loads((tmp_path / "extend" / "extend_manifest_s0.5.json").read_text())
    assert manifest["quadrature"]["final_nodes"] == manifest["quadrature"]["doublings"] == 0


def test_verify_all_passes_on_small_heisenberg(tmp_path):
    code = run_cli([
        "verify-all", "--mode", "heisenberg", "--n", "7", "--L", "2",
        "--s", "0.5", "--t", "0.2,0.1,0.05", "--out", str(tmp_path),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "verify-all" / "results.json").read_text())
    assert payload["report"]["passed"] is True
    names = [c["name"] for c in payload["report"]["checks"]]
    assert "group_associativity" in names
    assert "commutator_equals_T" in names
    assert "heat_identity_at_t0" in names


@pytest.mark.parametrize("n, L, code", [
    # the commutator check reads the nodes two steps inside every face
    (3, 1.0, 2),
    # the homogeneity test function and the convolution's x3 index overflowed here
    (5, 3e3, 0), (5, 1e5, 0), (5, 1e20, 0),
    # the commutator's roundoff grows like L^2 and failed a fixed 1e-10 bound here
    (11, 1e8, 0),
    # the squared L2 norm of the Young check's convolution is past the double range
    (5, 1e50, 0),
    # and so is the norm itself
    (5, 1e70, 2),
])
def test_heisenberg_verify_all_is_finite_or_refused(tmp_path, capsys, n, L, code):
    # exit 0 with every achieved value finite, or exit 2 before any output
    argv = ["verify-all", "--mode", "heisenberg", "--n", str(n), "--L", repr(L),
            "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(argv) == code
    if code == 2:
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "verify-all").exists()
    else:
        report = json.loads((tmp_path / "verify-all" / "results.json").read_text())["report"]
        assert all(np.isfinite(c["achieved"]) for c in report["checks"])


@pytest.mark.parametrize("n", [5, 7, 9, 11, 13, 15, 21])
def test_commutator_check_passes_on_every_extent(n):
    # the stencils are exact on the check's quadratic, so only roundoff is left
    for L in np.geomspace(1e-6, 1e20, 53):
        residual, bound = commutator_residual(GridSpec(n, L))
        assert residual <= bound, (L, residual, bound)


def test_commutator_check_fails_on_a_scaled_T(monkeypatch):
    import subfrac.cli as cli

    apply = cli.apply_multi_index

    def scaled_t(index, f):
        out = apply(index, f)
        return GridFunction(f.spec, out.values * (1.0 + 1e-6)) if index == ["T"] else out

    monkeypatch.setattr(cli, "apply_multi_index", scaled_t)
    residual, bound = commutator_residual(GridSpec(9, 2.0))
    assert bound == 1e-10
    assert residual > bound


def test_config_file_unknown_mode_exits_two(tmp_path, capsys):
    # the --mode flag has argparse choices; a config file's mode= is checked by the config
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("mode=hyperbolic\n")
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "error: unknown mode 'hyperbolic'" in capsys.readouterr().err
    assert not (tmp_path / "spectrum").exists()


def test_results_json_deterministic(tmp_path):
    argv = [
        "frac", "--mode", "euclidean_torus", "--n", "32", "--L", "1",
        "--s", "0.5,0.3", "--seed", "77", "--out", None,
    ]
    reports = []
    for sub in ("a", "b"):
        argv[-1] = str(tmp_path / sub)
        assert run_cli(argv) == 0
        payload = json.loads((tmp_path / sub / "frac" / "results.json").read_text())
        reports.append(json.dumps(payload["report"], sort_keys=True))
    assert reports[0] == reports[1]


def test_report_json_round_trips_bitwise(tmp_path):
    parser = build_parser()
    args = parser.parse_args([
        "spectrum", "--mode", "euclidean_torus", "--n", "16", "--L", "1",
        "--out", str(tmp_path),
    ])
    config = config_from_args(args)
    report = run(config)
    body = report_json(report)
    assert json.dumps(json.loads(body), sort_keys=True, indent=2) == body


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("mode=euclidean_torus\nn=32\nL=1\ns=0.5\nt=0.3,0.1\nseed=5\n")
    parser = build_parser()
    args = parser.parse_args(["frac", "--config", str(cfg), "--n", "16",
                              "--out", str(tmp_path)])
    config = config_from_args(args)
    assert config.n == 16          # CLI wins
    assert config.mode == "euclidean_torus"
    assert config.s_values == (0.5,)
    assert config.seed == 5


def test_config_file_bad_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("frobnicate=1\n")
    code = run_cli(["frac", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "frobnicate" in capsys.readouterr().err


def test_unreadable_config_file_exits_two(tmp_path, capsys):
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"mode=heisenberg\n# caf\xe9\n")
    for cfg in (tmp_path / "missing.cfg", latin1):
        assert run_cli(["frac", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "error: cannot read config file" in capsys.readouterr().err


def test_config_hash_stability():
    parser = build_parser()
    args = parser.parse_args(["limit", "--mode", "euclidean_torus", "--n", "64",
                              "--L", "10", "--s", "0.5"])
    c1 = config_from_args(args)
    c2 = config_from_args(args)
    assert c1.hash() == c2.hash()
    args2 = parser.parse_args(["limit", "--mode", "euclidean_torus", "--n", "32",
                               "--L", "10", "--s", "0.5"])
    assert config_from_args(args2).hash() != c1.hash()


@pytest.mark.parametrize("argv, digest", [
    (["limit", "--mode", "heisenberg", "--op", "j1", "--n", "15", "--L", "4", "--s", "0.5",
      "--t", "0.2,0.1,0.05"],
     "847bd31973144e129c85deeaf44818b4fcc247a8a4a0ffa1dbf5b9b08bba7f06"),
    # the benchmark passes a seed to every job
    (["limit", "--mode", "heisenberg", "--op", "j1", "--n", "15", "--L", "4", "--s", "0.5",
      "--t", "0.2,0.1,0.05", "--seed", "7"],
     "f81ffeb2d24e713709570c21e41d95d882042fab909fabd257731158a0c4d13a"),
    (["limit", "--mode", "euclidean_torus"],
     "4c6f7b83f1b47266d80ea4ee4b3d4366b2ad0abce4380b2788f1d210b3f73355"),
], ids=["heis15-limit", "heis15-limit-seed7", "torus-defaults"])
def test_config_hash_golden(argv, digest):
    # every report and manifest embeds this hash, so the text of each key is pinned
    assert config_from_args(build_parser().parse_args(argv)).hash() == digest


# a value other than the default for each config key, and the flags its grid needs
KEY_VALUES = {
    "kind": ("limit", []),
    "mode": ("euclidean_box", []),
    "op": ("j3", []),
    "n": ("7", []),
    "L": ("2.5", []),
    "dims": ("2", ["--mode", "euclidean_torus"]),
    "s": ("0.3,0.7", []),
    "t": ("0.4,0.2,0.1", []),
    "tol": ("0.05", []),
    "seed": ("9", []),
    "out": ("elsewhere", []),
}


@pytest.mark.parametrize("key", list(KEYS))
def test_config_file_and_flag_give_the_same_config(tmp_path, key):
    # a key parses the same from a config file as from its flag; the kind's
    # flag is the positional argument, which a file's kind= repeats
    value, grid = KEY_VALUES[key]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key}={value}\n")
    parser = build_parser()
    from_file = config_from_args(parser.parse_args(["limit", *grid, "--config", str(cfg)]))
    flag = [] if key == "kind" else [f"--{key}", value]
    from_flag = config_from_args(parser.parse_args(["limit", *grid, *flag]))
    assert from_file.flat() == from_flag.flat()
    assert from_file == from_flag


@pytest.mark.parametrize("argv", [
    ["frac", "--mode", "heisenberg", "--n", "5", "--L", "1e200"],
    ["frac", "--mode", "heisenberg", "--n", "5", "--L", "1e120"],
    ["spectrum", "--mode", "euclidean_torus", "--n", "4", "--L", "1e-160"],
    # L^2 and 1/h^2 are doubles here, but the group law's O(L^2) terms and
    # the O(1/h^2) eigenvalues overflow once the norms square them
    ["verify-all", "--mode", "heisenberg", "--n", "5", "--L", "1e100"],
    ["frac", "--mode", "euclidean_torus", "--n", "5", "--L", "1e-150"],
], ids=["L-squared", "cell-volume", "inverse-h-squared", "L-fourth", "inverse-h-fourth"])
def test_extent_out_of_the_double_range_exits_two_before_any_output(tmp_path, capsys, argv):
    # L^4, 1/h^4 or h^dims past the double range: refused with the config,
    # not a traceback, a failed check or an empty output directory
    assert run_cli([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / argv[0]).exists()


@pytest.mark.parametrize("kind", ["assemble", "spectrum", "frac", "heat", "extend", "limit",
                                  "verify-all"])
def test_every_kind_has_help(capsys, kind):
    with pytest.raises(SystemExit) as exc:
        main([kind, "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out
