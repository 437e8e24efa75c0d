"""Config parsing, CSV/manifest plumbing, and the command-line surface."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaodecay import dynamics, ensemble
from chaodecay.cli import main
from chaodecay.config import COMMANDS, STOCHASTIC_COMMANDS, parse_config
from chaodecay.errors import (
    InputOutputError,
    NumericError,
    SyntaxUsageError,
    ValidationError,
)
from chaodecay.formulas import SemiclassicalParams, correction_peak
from chaodecay.geometry import SHAPES, CavityGeometry
from chaodecay.io import atomic_open, write_csv, write_manifest
from chaodecay.quadrature import convergence_study, semiclassical_ladder

from golden import (
    EXAMPLE_CONFIGS,
    GOLDEN_CASES,
    GOLDEN_FILE,
    KERNEL_CASES,
    SHAPE_CONFIGS,
    case_name,
    csv_sha256,
    kernel_name,
    kernel_sha256,
    numpy_key,
    run_bundled,
)


def read_csv(path):
    """(embedded manifest line or None, header, rows of floats) of a written CSV."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    manifest = json.loads(lines.pop(0)[1:]) if lines[0].startswith("#") else None
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    assert all(len(row) == len(header) for row in rows)
    return manifest, header, rows


def read_manifest(path):
    return json.loads(Path(path).read_text())


def check_manifest_derived(manifest, recomputed):
    """Raise ValidationError where a stored derived number is more than 1e-12
    relative away from its recomputed value (keys only one side has pass)."""
    stored = manifest.get("derived", {})
    for key, fresh in recomputed.items():
        old = stored.get(key)
        if not isinstance(old, (int, float)) or not isinstance(fresh, (int, float)):
            continue
        if math.isinf(fresh) and math.isinf(old):
            continue
        if abs(old - fresh) > 1e-12 * max(abs(old), abs(fresh), 1e-300):
            raise ValidationError(f"manifest derived value {key!r} = {old!r} does not "
                                  f"match recomputed {fresh!r}")


MINIMAL_FIG3 = json.dumps({
    "command": "fig3",
    "params": {"tauD_over_TH": 0.3, "taud_over_TH": [0.05, 0.1, "inf"]},
})


class TestParseConfig:
    def test_minimal_fig3(self):
        cfg = parse_config(MINIMAL_FIG3)
        assert cfg.command == "fig3"
        assert cfg.params["tauD_over_TH"] == 0.3
        assert cfg.params["taud_over_TH"] == [0.05, 0.1, math.inf]
        assert cfg.params["n_points"] == 301  # documented default

    def test_bad_json_reports_position(self):
        with pytest.raises(SyntaxUsageError, match="line 1"):
            parse_config("{oops")

    def test_non_object_root(self):
        # well-formed JSON of the wrong shape is a validation problem
        with pytest.raises(ValidationError):
            parse_config("[1, 2]")

    def test_unknown_key_path(self):
        doc = json.loads(MINIMAL_FIG3)
        doc["params"]["tau_dd"] = 1.0
        with pytest.raises(ValidationError, match=r"config\.params\.tau_dd"):
            parse_config(json.dumps(doc))

    def test_missing_seed_field_path(self):
        doc = {"command": "simulate", "geometry": {"shape": "cardioid"},
               "ensemble": {"n_samples": 10}}
        with pytest.raises(ValidationError, match=r"config\.ensemble\.seed"):
            parse_config(json.dumps(doc))

    def test_unknown_command(self):
        with pytest.raises(ValidationError, match="config.command"):
            parse_config(json.dumps({"command": "transmogrify"}))

    def test_bool_is_not_a_number(self):
        doc = json.loads(MINIMAL_FIG3)
        doc["params"]["tauD_over_TH"] = True
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))

    def test_bath_block_maps_to_alpha(self):
        doc = {"command": "pair-decoherence",
               "geometry": {"shape": "cardioid"},
               "ensemble": {"seed": 1, "n_samples": 4},
               "params": {"bath": {"damping": 0.5, "inverse_temperature": 1.0}}}
        cfg = parse_config(json.dumps(doc))
        assert cfg.params["alpha"] == pytest.approx(1.0)
        assert cfg.warnings == []

    def test_bath_and_alpha_conflict_warns(self):
        doc = {"command": "pair-decoherence",
               "geometry": {"shape": "cardioid"},
               "ensemble": {"seed": 1, "n_samples": 4},
               "params": {"alpha": 0.123,
                          "bath": {"damping": 0.5, "inverse_temperature": 1.0}}}
        cfg = parse_config(json.dumps(doc))
        assert cfg.params["alpha"] == 0.123  # the direct value wins
        assert len(cfg.warnings) == 1
        assert "alpha" in cfg.warnings[0]

    def test_geometry_defaults(self):
        doc = {"command": "simulate", "geometry": {"shape": "cardioid"},
               "ensemble": {"seed": 3}}
        cfg = parse_config(json.dumps(doc))
        assert cfg.geometry.scale == 1.0
        assert cfg.geometry.opening_length == 0.1
        assert cfg.geometry.opening_center == pytest.approx(2.0 * math.sqrt(2.0))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_geometry_default_opening_is_the_library_default(self, shape):
        doc = {"command": "simulate", "geometry": {"shape": shape, "scale": 1.5},
               "ensemble": {"seed": 3}}
        cfg = parse_config(json.dumps(doc))
        library = CavityGeometry(shape=shape, scale=1.5)
        assert cfg.geometry.geometry_hash() == library.geometry_hash()
        assert cfg.resolved["geometry"]["opening_center"] == library.opening_center

    @pytest.mark.parametrize("name, digest", [
        ("simulate.json", "c22abc563dc72b5e"),
        ("simulate_circle.json", "9baccbe115d7ef04"),
        ("simulate_stadium.json", "41975f3d949af9ef"),
    ])
    def test_geometry_hash_of_bundled_simulate(self, name, digest):
        # the hash goes into every simulate CSV line; it must not drift
        path, = [p for p in EXAMPLE_CONFIGS + SHAPE_CONFIGS if p.name == name]
        assert parse_config(path.read_text()).geometry.geometry_hash() == digest

    @pytest.mark.parametrize("convention", ["sometimes", 5, ["excluded"]])
    def test_bad_one_leg_convention(self, convention):
        doc = {"command": "quadrature", "params": {"one_leg_convention": convention}}
        with pytest.raises(ValidationError, match="one_leg_convention"):
            parse_config(json.dumps(doc))

    def test_correction_requires_core_times(self):
        doc = {"command": "correction", "params": {"tau_d": 0.1}}
        with pytest.raises(ValidationError, match="dwell_time"):
            parse_config(json.dumps(doc))

    def test_bad_regime(self):
        doc = {"command": "correction",
               "params": {"dwell_time": 0.3, "heisenberg_time": 1.0,
                          "regime": "superfast"}}
        with pytest.raises(ValidationError, match="regime"):
            parse_config(json.dumps(doc))

    def test_resolved_contains_defaults(self):
        cfg = parse_config(MINIMAL_FIG3)
        assert cfg.resolved["params"]["t_max_over_TH"] == 3.0
        assert cfg.resolved["output"] == "out-fig3"  # per-command default dir


class TestCsvValues:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, tmp_path_factory, xs):
        path = str(tmp_path_factory.mktemp("csv") / "x.csv")
        write_csv(path, {"x": np.array(xs)})
        _, header, data = read_csv(path)
        assert header == ["x"]
        assert [row[0] for row in data] == xs

    def test_infinities(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(str(path), {"x": [math.inf, -math.inf]})
        assert path.read_text() == "x\ninf\n-inf\n"

    def test_numpy_scalars(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(str(path), {"f": np.float64(0.1), "i": np.int64(3), "n": np.arange(3)[2:]})
        assert path.read_text() == "f,i,n\n0.1,3,2\n"


class TestCsvManifest:
    def test_csv_round_trip(self, tmp_path):
        path = str(tmp_path / "x.csv")
        line = {"seed": 7, "geometry": {"shape": "circle"}}
        table = {"a": [0.0, 0.5, math.inf], "b": np.array([1.0, 0.25, 1e-300])}
        write_csv(path, table, manifest_line=line)
        manifest, header, data = read_csv(path)
        assert manifest == line
        assert header == ["a", "b"]
        assert data[1] == [0.5, 0.25]
        assert data[2][0] == math.inf and data[2][1] == 1e-300

    def test_csv_without_manifest_line(self, tmp_path):
        path = str(tmp_path / "plain.csv")
        write_csv(path, {"v": 1.25})
        manifest, header, data = read_csv(path)
        assert manifest is None
        assert data == [[1.25]]

    def test_row_width_mismatch(self, tmp_path):
        # columns of unequal length cannot form rows of one width
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(str(tmp_path / "bad.csv"), {"a": [1.0, 2.0], "b": [1.0]})
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(str(tmp_path / "bad.csv"), {"a": np.zeros(2), "b": 1.0})
        assert not (tmp_path / "bad.csv").exists()

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_open(str(path)) as handle:
            handle.write("hello")
        assert path.read_text() == "hello"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_atomic_write_bad_target(self):
        with pytest.raises(InputOutputError):
            with atomic_open("/proc/definitely/not/writable.txt") as handle:
                handle.write("x")

    def test_atomic_write_interrupted(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_open(str(tmp_path / "out.txt")) as handle:
                handle.write("partial")
                raise RuntimeError("interrupted")
        assert os.listdir(tmp_path) == []

    def test_manifest_round_trip(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        write_manifest(path, {"config": {"seed": 5}, "derived": {"area": math.pi}})
        back = read_manifest(path)
        assert back["config"]["seed"] == 5
        assert back["derived"]["area"] == math.pi
        assert "wall_clock_utc" in back

    def test_derived_check_passes(self):
        m = {"derived": {"area": 3.141592653589793, "rate": 0.5}}
        check_manifest_derived(m, {"area": math.pi, "rate": 0.5})

    def test_derived_check_catches_drift(self):
        m = {"derived": {"area": 3.0}}
        with pytest.raises(ValidationError, match="area"):
            check_manifest_derived(m, {"area": math.pi})

    def test_derived_check_infinity(self):
        check_manifest_derived({"derived": {"tau_d": math.inf}},
                               {"tau_d": math.inf})


def run_cli(tmp_path, doc, command=None, extra=()):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command or doc["command"], "--config", str(cfg), "--out", str(out)]
    argv.extend(extra)
    code = main(argv)
    return code, out


class TestCommandLine:
    def test_fig3_end_to_end(self, tmp_path):
        doc = {"command": "fig3",
               "params": {"tauD_over_TH": 0.3,
                          "taud_over_TH": [0.05, 0.1, 0.3, 1.0, "inf"],
                          "n_points": 61}}
        code, out = run_cli(tmp_path, doc)
        assert code == 0
        manifest, header, rows = read_csv(str(out / "fig3.csv"))
        assert header[0] == "t_over_TH"
        assert header[1] == "reference_inf"
        assert len(header) == 2 + 5  # reference plus one column per tau_d
        assert len(rows) == 61
        ref = np.array([r[1] for r in rows])
        for j in range(2, 6):  # finite tau_d columns sit below the reference
            col = np.array([r[j] for r in rows])
            assert np.all(col[1:] < ref[1:])

    def test_pair_decoherence_time_series(self, tmp_path):
        doc = {"command": "pair-decoherence",
               "geometry": {"shape": "cardioid", "opening_length": 0.2},
               "ensemble": {"n_samples": 16, "seed": 5},
               "params": {"alpha": 1e-3},
               "grid": {"t_collisions": 5}}
        code, out = run_cli(tmp_path, doc)
        assert code == 0
        manifest, header, rows = read_csv(str(out / "pair-decoherence.csv"))
        assert header == ["time", "exponent", "std_error"]
        assert rows[0][0] == 0.0 and rows[0][1] == 0.0
        exponent = np.array([r[1] for r in rows])
        # a running integral of a non-negative integrand never decreases
        assert np.all(np.diff(exponent) >= 0.0)
        assert exponent[-1] > 0.0
        results = json.loads((out / "manifest.json").read_text())["results"]
        assert results["mean_exponent"] == pytest.approx(exponent[-1])
        assert results["expected_rate_per_alpha"] > 0.0

    def test_missing_config_file(self, tmp_path):
        code = main(["fig3", "--config", str(tmp_path / "nope.json")])
        assert code == 1

    def test_bad_json_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{nope")
        assert main(["fig3", "--config", str(cfg)]) == 2

    def test_missing_seed_exit_3(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "simulate",
                                   "geometry": {"shape": "cardioid"},
                                   "ensemble": {"n_samples": 10}}))
        assert main(["simulate", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("seed", [2**64, 2**128], ids=["2**64", "2**128"])
    def test_oversized_seed_exit_3(self, tmp_path, capsys, seed):
        # a seed fills 64 bits of the Philox key; a larger one would reach the
        # stream tag above them (or numpy's 128-bit key limit)
        doc = {"command": "simulate", "geometry": {"shape": "circle"},
               "ensemble": {"seed": seed, "n_samples": 10}}
        code, out = run_cli(tmp_path, doc)
        assert code == 3
        assert "config.ensemble.seed: must be <= 18446744073709551615" in capsys.readouterr().err
        assert not out.exists()
        doc["ensemble"]["seed"] = 2**64 - 1
        assert parse_config(json.dumps(doc)).ensemble["seed"] == 2**64 - 1

    def test_command_mismatch_exit_3(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(MINIMAL_FIG3)
        assert main(["peak", "--config", str(cfg)]) == 3

    def test_statistics_failure_exit_5(self, tmp_path, capsys):
        # a window too short for 10 escapes, and one that starts past t_max
        for window in ([0.0, 0.1], [50.0, 70.0]):
            doc = {"command": "simulate",
                   "geometry": {"shape": "cardioid", "opening_length": 0.2},
                   "ensemble": {"seed": 2, "n_samples": 400},
                   "grid": {"t_max": 40.0, "fit_window": window}}
            code, _ = run_cli(tmp_path, doc)
            assert code == 5
            assert "only 0 escapes in fit window" in capsys.readouterr().err

    def test_fit_does_not_depend_on_grid(self, tmp_path):
        # n_points and dense_until set the CSV's sampling, not the fit
        results = []
        for grid in ({"n_points": 16, "dense_until": 1.0}, {"n_points": 400, "dense_until": 9.0}):
            doc = {"command": "simulate",
                   "geometry": {"shape": "cardioid", "opening_length": 0.2},
                   "ensemble": {"seed": 3, "n_samples": 500}, "grid": {"t_max": 60.0, **grid}}
            run_dir = tmp_path / str(grid["n_points"])
            run_dir.mkdir()
            code, out = run_cli(run_dir, doc)
            assert code == 0
            results.append(read_manifest(str(out / "manifest.json"))["results"])
        assert results[0] == results[1]
        assert set(results[0]) == {"fitted_rate", "fitted_rate_stderr", "fit_window",
                                   "fit_escapes", "analytic_rate", "rel_deviation",
                                   "fit_half_rates", "fit_half_gap_sigma"}
        assert results[0]["fit_escapes"] >= 10

    def test_fit_health_halves(self, tmp_path):
        # each half of the fit window fitted on its own; a half with fewer than
        # 10 escapes has no rate, no gap, and the run still succeeds
        def results(window):
            doc = {"command": "simulate",
                   "geometry": {"shape": "cardioid", "opening_length": 0.2},
                   "ensemble": {"seed": 2, "n_samples": 100},
                   "grid": {"t_max": 40.0, "fit_window": window}}
            run_dir = tmp_path / str(window[1])
            run_dir.mkdir()
            code, out = run_cli(run_dir, doc)
            assert code == 0
            return parse_config(json.dumps(doc)), read_manifest(str(out / "manifest.json"))["results"]

        cfg, full = results([5.0, 40.0])
        curve = ensemble.survival_curve(cfg.geometry, ensemble.EnsembleSpec(**cfg.ensemble),
                                        np.linspace(0.0, 40.0, 5))  # the grid plays no part
        early = ensemble.fit_escape_rate(curve, (5.0, 22.5))
        late = ensemble.fit_escape_rate(curve, (22.5, 40.0))
        assert full["fit_half_rates"] == [early.rate, late.rate]
        assert full["fit_half_gap_sigma"] == pytest.approx(
            (late.rate - early.rate) / math.hypot(early.std_error, late.std_error), rel=1e-12)
        _, sparse = results([5.0, 16.0])
        assert sparse["fit_escapes"] >= 10
        assert sparse["fit_half_rates"][0] is None
        assert sparse["fit_half_gap_sigma"] is None

    def test_numeric_failure_exit_4(self, tmp_path):
        # an su_cut that truncates nearly the whole domain cannot converge
        doc = {"command": "quadrature",
               "params": {"lambda_tauD": [10.0], "ehrenfest_fractions": [0.05],
                          "t_over_tauD": [2.0], "su_cut": 0.9}}
        code, _ = run_cli(tmp_path, doc)
        assert code == 4

    def test_bad_threads_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(MINIMAL_FIG3)
        assert main(["fig3", "--config", str(cfg), "--threads", "0"]) == 2

    @pytest.mark.parametrize("config, block, key, value", [
        ("correction.json", "params", "dwell_time", math.nan),
        ("simulate.json", "grid", "t_max", math.nan),
        ("fig3.json", "params", "taud_over_TH", [math.nan]),
        ("quadrature.json", "params", "alpha_tauD_sigma2", math.nan),
        ("correction.json", "grid", "t_max", math.inf),
    ])
    def test_non_finite_number_exit_3(self, tmp_path, capsys, config, block, key, value):
        # json reads NaN and Infinity, which pass every bound check
        doc = json.loads((EXAMPLE_CONFIGS[0].parent / config).read_text())
        doc[block][key] = value
        code, out = run_cli(tmp_path, doc)
        assert code == ValidationError.exit_code
        assert f"config.{block}.{key}" in capsys.readouterr().err
        assert not out.exists()

    def test_peak_reference_value(self, tmp_path):
        doc = {"command": "peak",
               "params": {"dwell_time": 0.3, "heisenberg_time": 1.0,
                          "tau_d": 1e9}}
        code, out = run_cli(tmp_path, doc)
        assert code == 0
        results = read_manifest(str(out / "manifest.json"))["results"]
        assert results["t_star_over_dwell"] == pytest.approx(2.0, rel=1e-5)

    def test_pair_decoherence_one_pair(self, tmp_path):
        # a single pair has no spread: the standard error is inf, not nan
        doc = {"command": "pair-decoherence",
               "geometry": {"shape": "cardioid", "opening_length": 0.2},
               "ensemble": {"n_samples": 1, "seed": 5},
               "params": {"alpha": 1e-3},
               "grid": {"t_collisions": 5}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, doc)
        assert code == 0
        _, _, rows = read_csv(str(out / "pair-decoherence.csv"))
        assert all(r[2] == math.inf for r in rows)
        assert all(math.isfinite(r[1]) for r in rows)

    @pytest.mark.parametrize("key, value", [("oscillatory_method", "filon_2d"),
                                            ("t_grid", [32, 32])])
    def test_quadrature_retired_keys(self, tmp_path, capsys, key, value):
        doc = {"command": "quadrature",
               "params": {"lambda_tauD": [10.0], "ehrenfest_fractions": [0.05],
                          "t_over_tauD": [2.0], key: value}}
        code, _ = run_cli(tmp_path, doc)
        assert code == ValidationError.exit_code
        assert f"config.params.{key}: unknown key" in capsys.readouterr().err

    def test_cavity_size_retired(self, tmp_path, capsys):
        doc = {"command": "correction",
               "params": {"dwell_time": 0.3, "heisenberg_time": 1.0, "cavity_size": 1.0}}
        code, _ = run_cli(tmp_path, doc)
        assert code == ValidationError.exit_code
        assert "config.params.cavity_size: unknown key" in capsys.readouterr().err

    # values that pass the field table but not the library's own checks
    @pytest.mark.parametrize("command, params", [
        ("quadrature", {"lambda_tauD": [20.0, 10.0], "ehrenfest_fractions": [0.05, 0.035]}),
        ("quadrature", {"lambda_tauD": [10.0], "ehrenfest_fractions": [0.2]}),
        ("quadrature", {"lambda_tauD": [10.0, 20.0], "ehrenfest_fractions": [0.05]}),
        ("quadrature", {"su_cut": 2.0}),
        ("correction", {"alpha": 1.0, "sigma2": 1.0, "tau_d": 3.0}),
        ("peak", {"alpha": 1.0, "sigma2": 1.0, "tau_d": 3.0}),
    ], ids=["unordered_ladder", "ehrenfest_fraction", "fraction_count", "su_cut", "correction_tau_d",
            "peak_tau_d"])
    def test_library_rejection_exit_3(self, tmp_path, capsys, command, params):
        base = ({"t_over_tauD": [2.0]} if command == "quadrature"
                else {"dwell_time": 0.3, "heisenberg_time": 1.0})
        code, out = run_cli(tmp_path, {"command": command, "params": {**base, **params}})
        assert code == ValidationError.exit_code
        err = capsys.readouterr().err
        assert "config.params: " in err and "Traceback" not in err
        assert not out.exists()

    def test_library_rejection_names_config_keys(self, tmp_path, capsys):
        doc = {"command": "peak", "params": {"dwell_time": 0.3, "heisenberg_time": 1.0,
                                             "alpha": 1.0, "sigma2": 1.0, "tau_d": 3.0}}
        code, _ = run_cli(tmp_path, doc)
        assert code == ValidationError.exit_code
        err = capsys.readouterr().err
        assert "config.params: tau_d inconsistent with alpha and sigma2" in err
        assert "decoherence_time" not in err

    def test_ensemble_dt_rejected(self, tmp_path, capsys):
        doc = {"command": "simulate",
               "geometry": {"shape": "cardioid", "opening_length": 0.2},
               "ensemble": {"seed": 5, "n_samples": 300, "dt": 123.0},
               "grid": {"t_max": 60.0}}
        code, out = run_cli(tmp_path, doc)
        assert code == ValidationError.exit_code
        assert "config.ensemble.dt: unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("params", [
        {"alpha": 0.0},
        {"bath": {"damping": 0.0, "inverse_temperature": 1.0}},
        {"alpha": 5e-324},  # alpha * t_end rounds to 0
    ], ids=["alpha", "bath", "subnormal_alpha"])
    def test_pair_decoherence_zero_coupling(self, tmp_path, params):
        # no decoherence, but the same exponent per unit alpha as any coupling
        doc = {"command": "pair-decoherence", "geometry": {"shape": "cardioid"},
               "ensemble": {"n_samples": 4, "seed": 5}, "grid": {"t_collisions": 0.01}}
        rates = []
        for i, p in enumerate((params, {"alpha": 1e-3})):
            (tmp_path / str(i)).mkdir()
            code, out = run_cli(tmp_path / str(i), {**doc, "params": p})
            assert code == 0
            _, _, rows = read_csv(str(out / "pair-decoherence.csv"))
            assert all(r[1] == 0.0 for r in rows) == (i == 0)
            rates.append(read_manifest(str(out / "manifest.json"))["results"]
                         ["exponent_rate_per_alpha"])
        assert rates[0] == rates[1] > 0.0

    def test_pair_decoherence_grid_dt(self, tmp_path):
        doc = {"command": "pair-decoherence",
               "geometry": {"shape": "cardioid", "opening_length": 0.2},
               "ensemble": {"n_samples": 4, "seed": 5},
               "params": {"alpha": 1e-3},
               "grid": {"t_collisions": 5, "dt": 0.25}}
        code, out = run_cli(tmp_path, doc)
        assert code == 0
        _, _, rows = read_csv(str(out / "pair-decoherence.csv"))
        times = np.array([r[0] for r in rows])
        np.testing.assert_allclose(np.diff(times), 0.25, rtol=1e-12)
        results = read_manifest(str(out / "manifest.json"))["results"]
        assert results["t_end"] == times[-1] == pytest.approx(0.25 * (len(rows) - 1))

    @pytest.mark.parametrize("dt", [1e-30, 1e-320, 1e-6])
    def test_pair_decoherence_grid_too_large(self, tmp_path, capsys, dt):
        # refused from its size alone: a subnormal dt makes an infinite step
        # count, 1e-6 about 1e8 steps a trajectory
        doc = {"command": "pair-decoherence", "geometry": {"shape": "cardioid"},
               "ensemble": {"n_samples": 2, "seed": 5}, "params": {"alpha": 1e-3},
               "grid": {"dt": dt}}
        code, out = run_cli(tmp_path, doc)
        assert code == ValidationError.exit_code == 3
        assert "config.grid.dt" in capsys.readouterr().err
        assert not out.exists()

    def test_variance_line_records_t_obs(self, tmp_path):
        lines = []
        for t_obs in (50.0, 400.0):
            doc = {"command": "variance", "geometry": {"shape": "cardioid"},
                   "ensemble": {"seed": 31, "n_samples": 200},
                   "grid": {"t_obs": t_obs}}
            code, out = run_cli(tmp_path, doc)
            assert code == 0
            line, _, _ = read_csv(str(out / "variance.csv"))
            assert line["grid"] == {"t_obs": t_obs}
            lines.append(line)
        assert lines[0] != lines[1]

    def test_variance_ergodic_warning(self, tmp_path):
        doc = {"command": "variance", "geometry": {"shape": "circle"},
               "ensemble": {"seed": 31, "n_samples": 200}}
        code, out = run_cli(tmp_path, doc)
        assert code == 0
        _, header, rows = read_csv(str(out / "variance.csv"))
        manifest = read_manifest(str(out / "manifest.json"))
        assert manifest["results"]["ergodic_warning"] is True  # the circle is not ergodic
        assert rows[0][header.index("ergodic_warning")] == 1.0
        assert any("may not be ergodic" in w for w in manifest["warnings"])

    def test_lyapunov_telemetry_in_manifest_only(self, tmp_path):
        doc = {"command": "lyapunov", "geometry": {"shape": "cardioid"},
               "ensemble": {"seed": 21, "n_samples": 16}, "grid": {"t_obs": 40.0}}
        code, out = run_cli(tmp_path, doc)
        assert code == 0
        _, header, _ = read_csv(str(out / "lyapunov.csv"))
        assert header == ["lyapunov", "std_error", "n_pairs", "t_obs",
                          "statistical_error", "stationarity_drift"]
        telemetry = read_manifest(str(out / "manifest.json"))["telemetry"]
        assert set(telemetry) == {"collisions", "cusp_events", "grazing_events"}
        assert telemetry["collisions"] > 16 * 10  # about one per mean free time
        assert telemetry["cusp_events"] >= 0 and telemetry["grazing_events"] >= 0

    def test_simulate_telemetry_in_manifest_only(self, tmp_path, monkeypatch):
        doc = {"command": "simulate",
               "geometry": {"shape": "cardioid", "opening_length": 0.2},
               "ensemble": {"seed": 99, "n_samples": 500}, "grid": {"t_max": 60.0}}
        (tmp_path / "a").mkdir()
        code, out_a = run_cli(tmp_path / "a", doc)
        assert code == 0
        # a different work layout changes the telemetry, not the CSV
        monkeypatch.setattr(ensemble, "_MAX_CHUNK_ROWS", 64)
        monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 2)
        (tmp_path / "b").mkdir()
        code, out_b = run_cli(tmp_path / "b", doc, extra=["--threads", "2"])
        assert code == 0
        csv_a = (out_a / "simulate.csv").read_bytes()
        assert (out_b / "simulate.csv").read_bytes() == csv_a
        _, header, _ = read_csv(str(out_a / "simulate.csv"))
        assert header == ["time", "survival", "std_error"]
        assert b"telemetry" not in csv_a
        fits = [read_manifest(str(out / "manifest.json"))["results"] for out in (out_a, out_b)]
        assert fits[0]["fit_half_rates"] == fits[1]["fit_half_rates"]
        assert fits[0]["fit_half_gap_sigma"] == fits[1]["fit_half_gap_sigma"]
        assert None not in fits[0]["fit_half_rates"]
        one = read_manifest(str(out_a / "manifest.json"))["telemetry"]
        two = read_manifest(str(out_b / "manifest.json"))["telemetry"]
        assert one["collisions"] > 500 * 10  # about one per mean free time
        assert 0.7 < one["sampler_acceptance"] < 0.9  # the cardioid fills 0.81 of its box
        assert one == {"collisions": one["collisions"], "workers": 1, "chunks": 1,
                       "rows_per_chunk": 500, "sampler_acceptance": one["sampler_acceptance"]}
        assert two == {"collisions": one["collisions"], "workers": 2, "chunks": 8,
                       "rows_per_chunk": 63, "sampler_acceptance": one["sampler_acceptance"]}

    def test_quadrature_csv_columns(self, tmp_path):
        doc = {"command": "quadrature",
               "params": {"lambda_tauD": [10.0], "ehrenfest_fractions": [0.05],
                          "t_over_tauD": [2.0]}}
        code, out = run_cli(tmp_path, doc)
        assert code == 0
        _, header, rows = read_csv(str(out / "quadrature.csv"))
        assert header == ["lambda_tauD", "c2_over_hbar", "alpha_over_lambda",
                          "t_over_tauD", "quad_value", "closed_form",
                          "rel_dev", "est_err", "im_part"]
        assert len(rows) == 1


    def test_quadrature_telemetry_in_manifest_only(self, tmp_path):
        doc = {"command": "quadrature",
               "params": {"lambda_tauD": [10.0, 20.0], "ehrenfest_fractions": [0.05, 0.035],
                          "t_over_tauD": [2.0, 3.0]}}
        code, out = run_cli(tmp_path, doc)
        assert code == 0
        telemetry = read_manifest(str(out / "manifest.json"))["telemetry"]
        assert set(telemetry) == {"converged_nodes", "panels", "envelope_calls",
                                  "refinements"}
        assert len(telemetry["converged_nodes"]) == 4
        for nodes in telemetry["converged_nodes"]:
            assert set(nodes) == {"two_leg", "one_leg_head"}
            assert set(nodes.values()) <= {128, 256}  # 2n or 4n of su_grid 64
        assert telemetry["panels"] > 0
        assert telemetry["envelope_calls"] >= 2 * 2 * 2 * 4  # 2 levels x 2 diagrams x 4 rows
        assert telemetry["refinements"] == sum(
            n == 256 for row in telemetry["converged_nodes"] for n in row.values())
        # the CSV is what the library's rows give without telemetry
        csv = (out / "quadrature.csv").read_bytes()
        assert b"telemetry" not in csv
        line, header, _ = read_csv(str(out / "quadrature.csv"))
        ladder = semiclassical_ladder((10.0, 20.0), (0.05, 0.035))
        rows = convergence_study(ladder, [2.0, 3.0])
        write_csv(str(tmp_path / "plain.csv"), {k: [r[k] for r in rows] for k in header},
                  manifest_line=line)
        assert (tmp_path / "plain.csv").read_bytes() == csv

    def test_peak_telemetry_in_manifest_only(self, tmp_path):
        doc = {"command": "peak",
               "params": {"dwell_time": 0.3, "heisenberg_time": 1.0, "tau_d": 0.1}}
        code, out = run_cli(tmp_path, doc)
        assert code == 0
        telemetry = read_manifest(str(out / "manifest.json"))["telemetry"]
        assert set(telemetry) == {"iterations"}
        assert 0 < telemetry["iterations"] <= 6
        # the CSV is what the library's peak gives without telemetry
        csv = (out / "peak.csv").read_bytes()
        assert b"telemetry" not in csv
        line, header, _ = read_csv(str(out / "peak.csv"))
        t_star, value = correction_peak(SemiclassicalParams(
            dwell_time=0.3, heisenberg_time=1.0, decoherence_time=0.1))
        write_csv(str(tmp_path / "plain.csv"),
                  dict(zip(header, (t_star, value, t_star / 0.3))), manifest_line=line)
        assert (tmp_path / "plain.csv").read_bytes() == csv


@pytest.fixture(scope="module")
def bundled_run(tmp_path_factory):
    """Each bundled config's (exit code, CSV path), run once per thread count."""
    runs = {}

    def run(path, threads=1):
        if (path, threads) not in runs:
            runs[path, threads] = run_bundled(path, threads,
                                              tmp_path_factory.mktemp("bundled"))
        return runs[path, threads]
    return run


# keys a command adds to the CSV's embedded line and to its manifest
LINE_EXTRAS = {"simulate": {"geometry_hash"}, "pair-decoherence": {"alpha", "t_end"}}
MANIFEST_EXTRAS = {"simulate": {"geometry_hash", "telemetry"}, "lyapunov": {"telemetry"},
                   "quadrature": {"telemetry"}, "peak": {"telemetry"}}


@pytest.mark.parametrize("path", EXAMPLE_CONFIGS, ids=lambda p: p.name)
def test_bundled_example_runs(bundled_run, path):
    code, csv_path = bundled_run(path)
    assert code == 0
    line, _, _ = read_csv(str(csv_path))
    manifest = read_manifest(str(csv_path.with_name("manifest.json")))
    command = manifest["command"]
    monte_carlo = command in STOCHASTIC_COMMANDS
    # the embedded line holds the config blocks that set the numbers
    blocks = ({"geometry", "ensemble", "grid"} if monte_carlo
              else {"params", "grid"} if manifest["config"]["grid"] else {"params"})
    assert set(line) == {"command", "tool_version", *blocks, *LINE_EXTRAS.get(command, ())}
    assert all(line[name] == manifest["config"][name] for name in blocks)
    assert set(manifest) == {"command", "config", "defaults", "tool_version", "warnings",
                             "derived", "results", "wall_clock_utc",
                             *({"seed"} if monte_carlo else ()),
                             *MANIFEST_EXTRAS.get(command, ())}
    if "geometry_hash" in manifest:
        assert manifest["geometry_hash"] == line["geometry_hash"]


def test_correction_line_records_grid(tmp_path):
    lines = []
    for t_max in (5.0, 9.0):
        doc = {"command": "correction", "params": {"dwell_time": 0.3, "heisenberg_time": 1.0},
               "grid": {"t_max": t_max, "n_points": 21}}
        (tmp_path / str(t_max)).mkdir()
        code, out = run_cli(tmp_path / str(t_max), doc)
        assert code == 0
        lines.append(read_csv(str(out / "correction.csv"))[0])
    assert [line["grid"] for line in lines] == [{"t_max": 5.0, "n_points": 21},
                                                {"t_max": 9.0, "n_points": 21}]


def test_correction_total_is_exact_sum(bundled_run):
    code, csv_path = bundled_run(EXAMPLE_CONFIGS[0].with_name("correction.json"))
    assert code == 0
    _, header, rows = read_csv(str(csv_path))
    assert header == ["time", "classical", "correction", "total"]
    assert all(total == classical + correction for _, classical, correction, total in rows)


def recorded_digests():
    """The digests in the golden file, or a skip where it holds another numpy build's."""
    golden = json.loads(GOLDEN_FILE.read_text())
    if golden["key"] != numpy_key():
        pytest.skip(f"{GOLDEN_FILE.name} holds the bytes of {golden['key']}, "
                    f"not of this build, {numpy_key()}")
    return golden["sha256"]


@pytest.mark.parametrize("path, threads", GOLDEN_CASES,
                         ids=[case_name(p, n) for p, n in GOLDEN_CASES])
def test_golden_output_bytes(bundled_run, path, threads):
    recorded = recorded_digests()
    code, csv_path = bundled_run(path, threads)
    assert code == 0
    name = case_name(path, threads)
    assert csv_sha256(csv_path) == recorded[name], \
        f"{name}: CSV bytes differ from {GOLDEN_FILE.name}"


@pytest.mark.parametrize("shape, scale", KERNEL_CASES,
                         ids=[kernel_name(*case) for case in KERNEL_CASES])
def test_golden_kernel_bytes(shape, scale):
    name = kernel_name(shape, scale)
    assert kernel_sha256(shape, scale) == recorded_digests()[name], \
        f"{name}: batch_collide bytes differ from {GOLDEN_FILE.name}"


# A stand-in for the smallest value of a field that must be strictly positive.
_TINY = 1e-6
_TINY_GEOMETRY = {"shape": "cardioid", "scale": _TINY, "opening_length": _TINY}
_ONE_SAMPLE = {"seed": 0, "n_samples": 1, "speed": _TINY}
_WEAK_COUPLING = {"dwell_time": 1.0, "heisenberg_time": 1.0, "alpha": 1e-300, "sigma2": 1.0}
_UNDERFLOWING = {"dwell_time": 1e-300, "heisenberg_time": 1e-300, "tau_d": 1e-300}
_SHORT_TIME_UNDERFLOWING = {"dwell_time": 1e-100, "heisenberg_time": 1e-100, "tau_d": 1e-250,
                            "regime": "short_time"}
_PAIRS = {"command": "pair-decoherence", "geometry": {"shape": "cardioid"},
          "ensemble": {"seed": 1, "n_samples": 4}, "grid": {"t_collisions": 2}}
_HBAR_UNDERFLOWING = {"bath": {"damping": 1.0, "inverse_temperature": 1.0, "hbar": 1e-200}}
_TINY_SEMICLASSICAL = {
    "dwell_time": _TINY, "heisenberg_time": _TINY, "lyapunov": 0.0, "encounter_scale": _TINY,
    "alpha": 0.0, "sigma2": _TINY, "eta": _TINY, "hbar": _TINY, "ehrenfest_time": 0.0,
    "loop_formation_time": 0.0,
}


@pytest.mark.parametrize("doc, exit_code, message", [
    ({"command": "simulate", "geometry": _TINY_GEOMETRY, "ensemble": _ONE_SAMPLE,
      "grid": {"t_max": _TINY, "n_points": 16, "dense_until": _TINY}},
     3, "config.grid.t_max: 1e-06 ends before the default fit_window starts"),
    ({"command": "simulate", "geometry": _TINY_GEOMETRY, "ensemble": _ONE_SAMPLE,
      "grid": {"t_max": _TINY, "n_points": 16, "dense_until": _TINY,
               "fit_window": [0.0, _TINY]}}, 5, "only 0 escapes"),
    ({"command": "lyapunov", "geometry": _TINY_GEOMETRY, "ensemble": _ONE_SAMPLE,
      "grid": {"t_obs": _TINY}}, 0, ""),
    # one point has no spread to compare the time average with
    ({"command": "variance", "geometry": _TINY_GEOMETRY, "ensemble": _ONE_SAMPLE,
      "grid": {"t_obs": _TINY}}, 5, "the position variance needs at least 2 samples, got 1"),
    ({"command": "pair-decoherence", "geometry": _TINY_GEOMETRY, "ensemble": _ONE_SAMPLE,
      "params": {"alpha": 0.0}, "grid": {"t_collisions": _TINY, "dt": _TINY}}, 0, ""),
    ({"command": "pair-decoherence", "geometry": _TINY_GEOMETRY, "ensemble": _ONE_SAMPLE,
      "params": {"bath": {"damping": 0.0, "inverse_temperature": _TINY, "hbar": _TINY,
                          "characteristic_frequency": _TINY}},
      "grid": {"t_collisions": _TINY, "dt": _TINY}}, 0, ""),
    ({"command": "correction", "params": _TINY_SEMICLASSICAL,
      "grid": {"t_max": _TINY, "n_points": 16}}, 0, ""),
    ({"command": "peak", "params": _TINY_SEMICLASSICAL}, 0, ""),
    ({"command": "fig3", "params": {"tauD_over_TH": _TINY, "taud_over_TH": [_TINY],
                                    "t_max_over_TH": _TINY, "n_points": 16}}, 0, ""),
    ({"command": "quadrature", "params": {
        "lambda_tauD": [_TINY], "ehrenfest_fractions": [_TINY], "alpha_tauD_sigma2": 0.0,
        "t_over_tauD": [_TINY], "eta": _TINY, "su_grid": 16, "su_cut": _TINY}}, 0, ""),
    # weak coupling: tau_d = 5e299 (tau_d^2 overflows) and 5e11 (t/tau_d < 1e-8)
    ({"command": "correction", "params": _WEAK_COUPLING}, 0, ""),
    ({"command": "peak", "params": _WEAK_COUPLING}, 0, ""),
    ({"command": "quadrature", "params": {"alpha_tauD_sigma2": 1e-300}}, 0, ""),
    ({"command": "quadrature", "params": {"alpha_tauD_sigma2": 1e-12}}, 0, ""),
    # values past the float range
    ({"command": "quadrature", "params": {"lambda_tauD": [1e5], "ehrenfest_fractions": [0.05]}},
     3, "config.params: lambda*tau_D = 100000.0 with ehrenfest fraction 0.05 puts c^2/hbar"),
    ({"command": "correction", "params": _UNDERFLOWING}, 3,
     "config.params: dwell_time * heisenberg_time underflows"),
    ({"command": "peak", "params": _UNDERFLOWING}, 3,
     "config.params: dwell_time * heisenberg_time underflows"),
    ({"command": "correction", "params": {**_UNDERFLOWING, "tau_d": None}}, 3,
     "config.params: dwell_time * heisenberg_time underflows"),
    ({**_PAIRS, "params": _HBAR_UNDERFLOWING}, 3,
     "config.params.bath: 2 * damping / (hbar**2 * inverse_temperature) overflows"),
    ({"command": "correction",
      "params": {"dwell_time": 1.0, "heisenberg_time": 1.0, "sigma2": 1.0, **_HBAR_UNDERFLOWING}},
     3, "config.params.bath: 2 * damping / (hbar**2 * inverse_temperature) overflows"),
    # alpha about 2e300 and 1e307: the exponent's spread overflows
    ({**_PAIRS, "params": {"bath": {"damping": 1.0, "inverse_temperature": 1e-300}}}, 4,
     "config.params.alpha: 1.9999999999999998e+300 makes the running exponent or its "
     "standard error overflow"),
    ({**_PAIRS, "params": {"alpha": 1e307}}, 4,
     "config.params.alpha: 1e+307 makes the running exponent or its standard error overflow"),
    # 6 T_H tau_D tau_d underflows, and the bare bracket times 1 - t/(3 tau_d) does not;
    # the peak is at 2 tau_d = 2e-250, where the bracket is 6.7e-301
    ({"command": "correction", "params": _SHORT_TIME_UNDERFLOWING}, 0, ""),
    ({"command": "peak", "params": _SHORT_TIME_UNDERFLOWING}, 0, ""),
    # exp(-2 t_lL/tau_d) = exp(-1e5) underflows: the bracket is 0 at its maximum too
    ({"command": "peak", "params": {"dwell_time": 1.0, "heisenberg_time": 1.0, "tau_d": 1e-6,
                                    "ehrenfest_time": 0.1, "loop_formation_time": 0.05,
                                    "regime": "ehrenfest"}}, 4,
     "the correction bracket is 0.0 at its peak"),
    ({"command": "correction", "params": {"dwell_time": 1.0, "heisenberg_time": 1.0,
                                          "alpha": 1e300, "sigma2": 1e300}},
     3, "config.params: 2 * alpha * sigma2 overflows"),
    # exp((t_E - t)/tau_D) overflows before the gate, where the bracket is 0
    ({"command": "correction", "params": {"dwell_time": 1.0, "heisenberg_time": 10.0,
                                          "ehrenfest_time": 1000.0, "regime": "ehrenfest"}},
     0, ""),
    # t/tau_d up to 3e200: the kernel's series would overflow if it were taken there
    ({"command": "fig3", "params": {"tauD_over_TH": 1e-200, "taud_over_TH": [1e-200]}}, 0, ""),
    # tau_d^2 underflows and overflows, and tau_d^2/(T_H tau_D) does not
    ({"command": "correction", "params": {"dwell_time": 1e-100, "heisenberg_time": 1e-100,
                                          "tau_d": 1e-170}, "grid": {"t_max": 3e-100}}, 0, ""),
    ({"command": "correction", "params": {"dwell_time": 1e194, "heisenberg_time": 1e194,
                                          "tau_d": 1e200}, "grid": {"t_max": 3e193}}, 0, ""),
    # no tau_d: dt^2 and T_H tau_D overflow, and dt^2/(2 T_H tau_D) does not
    ({"command": "correction", "params": {"dwell_time": 1e194, "heisenberg_time": 1e194},
      "grid": {"t_max": 3e193, "n_points": 16}}, 0, ""),
    # tau_d^2/(T_H tau_D) about 1e-540
    ({"command": "correction", "params": {"dwell_time": 1e100, "heisenberg_time": 1e100,
                                          "tau_d": 1e-170}, "grid": {"t_max": 3e100}}, 3,
     "config.params: tau_d**2 / (heisenberg_time * dwell_time) leaves the float range"),
    # the short-time form is the bare bracket times 1 - t/(3 tau_d), at tau_d = inf and not
    ({"command": "correction", "params": {"dwell_time": 1e194, "heisenberg_time": 1e194,
                                          "regime": "short_time"},
      "grid": {"t_max": 3e193, "n_points": 16}}, 0, ""),
    ({"command": "correction", "params": {"dwell_time": 1e194, "heisenberg_time": 1e194,
                                          "tau_d": 1e200, "regime": "short_time"},
      "grid": {"t_max": 3e193, "n_points": 16}}, 0, ""),
    # t/tau_d and t/T_H overflow where exp(-t/tau_D) is 0: those rows are 0
    ({"command": "correction", "params": {"dwell_time": 1.0, "heisenberg_time": 1.0,
                                          "tau_d": 1e-12}, "grid": {"t_max": 1e300}}, 0, ""),
    ({"command": "correction", "params": {"dwell_time": 1.0, "heisenberg_time": 1e-12},
      "grid": {"t_max": 1e300}}, 0, ""),
    # fig3 names its own keys, in units of the Heisenberg time
    ({"command": "fig3", "params": {"tauD_over_TH": 3.0, "taud_over_TH": [1e-200, "inf"],
                                    "t_max_over_TH": 1e-100, "n_points": 16}}, 3,
     "config.params: taud_over_TH**2 / (heisenberg_time * tauD_over_TH) leaves the float range"),
    ({"command": "fig3", "params": {"tauD_over_TH": 3.0, "taud_over_TH": [1e-12, "inf"],
                                    "t_max_over_TH": 1e300, "n_points": 16}}, 0, ""),
], ids=["simulate-default-window", "simulate", "lyapunov", "variance", "pair-decoherence",
        "pair-decoherence-bath", "correction", "peak", "fig3", "quadrature",
        "correction-weak", "peak-weak", "quadrature-weak", "quadrature-weak-1e-12",
        "quadrature-huge-lambda", "correction-underflow", "peak-underflow",
        "correction-underflow-no-tau_d", "pair-decoherence-bath-hbar", "correction-bath-hbar",
        "pair-decoherence-bath-alpha", "pair-decoherence-huge-alpha",
        "correction-short_time-underflow", "peak-short_time-underflow",
        "peak-ehrenfest-underflow",
        "correction-tau_d-overflow", "correction-ehrenfest-late-gate", "fig3-huge-kernel",
        "correction-tau_d-squared-underflow", "correction-tau_d-squared-overflow",
        "correction-bare-squared-overflow", "correction-prefactor-underflow",
        "correction-short_time-squared-overflow", "correction-short_time-tau_d-overflow",
        "correction-kernel-overflow", "correction-bare-overflow",
        "fig3-prefactor-underflow", "fig3-kernel-overflow"])
def test_field_minimums(tmp_path, capsys, doc, exit_code, message):
    # every field at the smallest value its table accepts, and values whose
    # arithmetic leaves the float range: a result or a typed error, never an
    # exception out of main, and no NaN in a result
    code, out = run_cli(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == exit_code, err
    assert message in err
    assert (out / "manifest.json").exists() == (code == 0)
    if code == 0:
        _, header, rows = read_csv(str(out / f"{doc['command']}.csv"))
        assert not np.isnan(rows).any()
        params = doc.get("params", {})
        if doc.get("grid", {}).get("t_max") == 1e300:
            assert np.isfinite(rows).all()
            assert (np.asarray(rows)[1:, header.index("correction")] == 0.0).all()
        if params.get("dwell_time") == 1e194 and (params.get("regime") == "short_time"
                                                  or "tau_d" not in params):
            assert np.isfinite(rows).all()
            # the bare bracket t^2/(2 T_H tau_D) exp(-t/tau_D) at t = 2e192, and in the
            # short-time regime that times 1 - t/(3 tau_d)
            row = dict(zip(header, rows[1]))
            factor = 1.0 - row["time"] / (3.0 * params.get("tau_d", math.inf))
            assert row["correction"] == pytest.approx(
                math.exp(-row["time"] / 1e194) * 2e-4 * factor, rel=1e-12)


@pytest.mark.parametrize("alpha", [1e-300, 1e-12])
def test_weak_coupling_matches_zero_coupling(tmp_path, alpha):
    # t/tau_d < 1e-8 on every row: the decoherence-free forms, to within each
    # quadrature row's error estimate and exactly for the closed form
    def rows(command, params):
        run_dir = tmp_path / str(len(list(tmp_path.iterdir())))
        run_dir.mkdir()
        code, out = run_cli(run_dir, {"command": command, "params": params})
        assert code == 0
        _, header, table = read_csv(str(out / f"{command}.csv"))
        return [dict(zip(header, row)) for row in table]

    weak = rows("quadrature", {"alpha_tauD_sigma2": alpha})
    free = rows("quadrature", {"alpha_tauD_sigma2": 0.0})
    for a, b in zip(weak, free, strict=True):
        assert abs(a["quad_value"] - b["quad_value"]) <= max(a["est_err"], b["est_err"])
        assert a["closed_form"] == b["closed_form"]
    scales = {"dwell_time": 1.0, "heisenberg_time": 1.0}
    assert (rows("correction", {**scales, "alpha": alpha, "sigma2": 1.0})
            == rows("correction", scales))


def test_bath_regime_warning_reaches_manifest_not_stderr(tmp_path):
    doc = {"command": "pair-decoherence", "geometry": {"shape": "cardioid"},
           "ensemble": {"seed": 1, "n_samples": 4},
           "params": {"bath": {"damping": 0.001, "inverse_temperature": 2.0,
                               "characteristic_frequency": 1.0}},
           "grid": {"t_collisions": 2}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(tmp_path, doc)
    assert code == 0
    assert caught == []  # nothing for Python to print on stderr
    (message,) = read_manifest(str(out / "manifest.json"))["warnings"]
    assert message.startswith("bath is not in the high-temperature regime")


def test_bundled_examples_cover_every_command():
    commands = {json.loads(p.read_text())["command"] for p in EXAMPLE_CONFIGS}
    assert commands == set(COMMANDS)


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path):
        doc = {"command": "simulate",
               "geometry": {"shape": "cardioid", "opening_length": 0.2},
               "ensemble": {"seed": 11, "n_samples": 500},
               "grid": {"t_max": 60.0}}
        _, out1 = run_cli(tmp_path, doc)
        csv1 = (out1 / "simulate.csv").read_bytes()
        results1 = read_manifest(str(out1 / "manifest.json"))["results"]
        (out1 / "simulate.csv").unlink()
        code, out2 = run_cli(tmp_path, doc, extra=["--threads", "8"])
        assert code == 0
        assert (out2 / "simulate.csv").read_bytes() == csv1
        assert read_manifest(str(out2 / "manifest.json"))["results"] == results1

    @pytest.mark.parametrize("path", EXAMPLE_CONFIGS, ids=lambda p: p.name)
    def test_manifest_config_round_trip(self, tmp_path, bundled_run, path):
        code, csv_path = bundled_run(path)
        assert code == 0
        manifest = read_manifest(str(csv_path.with_name("manifest.json")))
        rerun_cfg = tmp_path / "rerun.json"
        rerun_cfg.write_text(json.dumps(manifest["config"]))
        out2 = tmp_path / "out2"
        assert main([manifest["command"], "--config", str(rerun_cfg), "--out", str(out2)]) == 0
        assert (out2 / csv_path.name).read_bytes() == csv_path.read_bytes()
        # the resolved config is a fixed point of resolving
        again = read_manifest(str(out2 / "manifest.json"))["config"]
        assert again == {**manifest["config"], "output": str(out2)}

    def test_manifest_derived_recompute(self, tmp_path):
        doc = {"command": "simulate",
               "geometry": {"shape": "cardioid", "opening_length": 0.2},
               "ensemble": {"seed": 7, "n_samples": 300},
               "grid": {"t_max": 50.0}}
        _, out = run_cli(tmp_path, doc)
        manifest = read_manifest(str(out / "manifest.json"))
        g = manifest["config"]["geometry"]
        area = 1.5 * math.pi * g["scale"] ** 2
        perimeter = 8.0 * g["scale"]
        check_manifest_derived(manifest, {
            "area": area,
            "perimeter": perimeter,
            "opening_length": g["opening_length"],
            "dwell_time": math.pi * area / g["opening_length"],
            "mean_free_time": math.pi * area / perimeter,
            "heisenberg_time": area,
        })

    def test_manifest_reports_resolved_time_scales(self, tmp_path):
        # the ehrenfest_time and tau_d the bracket used, not ln(c/hbar)/lambda
        # or a tau_d derived again
        doc = {"command": "correction",
               "params": {"dwell_time": 1.0, "heisenberg_time": 10.0, "lyapunov": 2.0,
                          "encounter_scale": 10.0, "tau_d": 2.0, "ehrenfest_time": 0.1,
                          "regime": "ehrenfest"}}
        _, out = run_cli(tmp_path, doc)
        derived = read_manifest(str(out / "manifest.json"))["derived"]
        assert derived["ehrenfest_time"] == 0.1
        assert derived["tau_d"] == 2.0

    def test_wall_clock_only_in_manifest(self, tmp_path):
        doc = {"command": "fig3",
               "params": {"tauD_over_TH": 0.3, "taud_over_TH": [0.1],
                          "n_points": 21}}
        _, out = run_cli(tmp_path, doc)
        line, _, _ = read_csv(str(out / "fig3.csv"))
        assert "wall_clock_utc" not in json.dumps(line)
        assert "wall_clock_utc" in read_manifest(str(out / "manifest.json"))


def test_escape_worker_failure(tmp_path, monkeypatch, capsys):
    # a particle stuck in a forked escape worker: the error names the chunk's
    # first particle and the seed, simulate exits 4, and no worker process
    # outlives a failing or a passing run
    doc = {"command": "simulate",
           "geometry": {"shape": "cardioid", "opening_length": 0.2},
           "ensemble": {"seed": 17, "n_samples": 500}, "grid": {"t_max": 60.0}}
    cfg = parse_config(json.dumps(doc))
    spec = ensemble.EnsembleSpec(**cfg.ensemble)
    pos, dirs = ensemble.sample_ensemble(cfg.geometry, spec)
    # the second chunk's first flight; a row's flights do not depend on its batch
    first_flight = dynamics.batch_collide(cfg.geometry, pos[250:251], dirs[250:251])[0][0]
    parent, count_stalls = os.getpid(), dynamics._count_stalls

    def stuck_in_second_chunk(stalls, dist, index):
        if os.getpid() != parent and dist[0] == first_flight:
            raise NumericError("particle 0 made no progress")
        return count_stalls(stalls, dist, index)

    monkeypatch.setattr(dynamics, "_count_stalls", stuck_in_second_chunk)
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 2)
    times = ensemble.hybrid_time_grid(60.0, 5.0, 48)
    with pytest.raises(NumericError, match=r"from particle 250; seed 17\)$"):
        ensemble.survival_curve(cfg.geometry, spec, times, threads=2)
    assert multiprocessing.active_children() == []
    capsys.readouterr()
    (tmp_path / "a").mkdir()
    assert run_cli(tmp_path / "a", doc, extra=["--threads", "2"])[0] == 4
    assert "from particle 250; seed 17)" in capsys.readouterr().err
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(dynamics, "_count_stalls", count_stalls)
    (tmp_path / "b").mkdir()
    code, out = run_cli(tmp_path / "b", doc, extra=["--threads", "2"])
    assert code == 0
    assert read_manifest(str(out / "manifest.json"))["telemetry"]["workers"] == 2
    assert multiprocessing.active_children() == []


def _modules_after_cli_import(*names):
    """Which of ``names`` a fresh interpreter holds after ``import chaodecay.cli``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c",
         f"import chaodecay.cli, sys; print(*[n for n in {names!r} if n in sys.modules])"],
        env=env, capture_output=True, text=True, check=True,
    )
    return res.stdout.split()


def test_cli_import_leaves_scipy_out():
    assert _modules_after_cli_import("scipy") == []


def test_cli_import_leaves_process_pool_out():
    # only simulate on more than one worker imports them
    assert _modules_after_cli_import("multiprocessing", "concurrent.futures") == []
