import contextlib
import io
import json
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l2calib import calibrate, cli, kernels, rkhs, testbed
from l2calib.calibrate import fit_response_surface
from l2calib.cli import (CliConfigError, RunConfig, check_report, cmd_calibrate,
                         load_config, main, read_data_csv, simulate)
from l2calib.numerics import (MAX_DESIGN_POINTS, MAX_QUADRATURE_NODES, SCAN_BLOCK_ROWS,
                              OptimizerConfig)


BUNDLED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def write_config(path, **overrides):
    doc = {
        "example": "example2",
        "methods": ["L2", "OLS"],
        "sigma2": [0.01],
        "replications": 2,
        "seed": 7,
        "design": {"kind": "fixed_grid", "n": 51},
        "quadrature_m": 128,
        "optimizer": {"grid_points": 201, "tolerance": 1e-8},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def write_data_csv(path, pts, y):
    lines = ["x1,y"] + [f"{x:.17g},{v:.17g}" for x, v in zip(pts[:, 0], y)]
    path.write_text("\n".join(lines) + "\n")
    return path


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper; return the list of its calls."""
    calls, fn = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def n_by_n(calls, n):
    """How many of the recorded calls took an ``(n, n)`` matrix first."""
    return sum(args[0].shape == (n, n) for args in calls)


def type_bug(*args, **kwargs):
    raise TypeError("bug in a calibrator")


def broadcast_bug(*args, **kwargs):
    return np.ones(3) + np.ones(2)  # ValueError: operands could not be broadcast


def write_noiseless_example1_csv(path):
    system = testbed.make_system("example1", 0.0)
    return write_data_csv(path, *testbed.generate(system, 0, 0))


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        assert cfg.example == "example2"
        assert cfg.methods == ("L2", "OLS")
        assert cfg.sigma2 == (0.01,)
        assert cfg.optimizer.grid_points == 201

    def test_unknown_key_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.json")
        doc = json.loads(p.read_text())
        doc["replicatons"] = 5
        p.write_text(json.dumps(doc))
        with pytest.raises(CliConfigError, match="replicatons"):
            load_config(p)

    def test_unknown_nested_key_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.json",
                         design={"kind": "fixed_grid", "count": 51})
        with pytest.raises(CliConfigError, match="count"):
            load_config(p)

    def test_unknown_method_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.json", methods=["L2", "GLS"])
        with pytest.raises(CliConfigError, match="GLS"):
            load_config(p)

    def test_invalid_json_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(CliConfigError, match="not valid JSON"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CliConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # as an editor's "UTF-8 with BOM" encoding writes it
        p = write_config(tmp_path / "c.json")
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        assert load_config(p) == load_config(write_config(tmp_path / "plain.json"))

    def test_not_utf8_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b'{"example": "example\xff"}')
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(f"error: {cfg}: not UTF-8 text")

    def test_directory_is_one_error_line(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path), "--out", str(tmp_path / "r.csv")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1
        assert lines[0] == f"error: cannot read config file {tmp_path}: Is a directory"

    @pytest.mark.parametrize("path", BUNDLED_CONFIGS, ids=lambda p: p.name)
    def test_bundled_config_loads(self, path):
        assert load_config(path).output == f"{path.stem}.csv"

    def test_integral_numbers_are_integers(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json", replications=1e3, seed=2.0))
        assert (cfg.replications, cfg.seed) == (1000, 2)
        assert type(cfg.replications) is int and type(cfg.seed) is int

    def test_methods_string_is_not_split_into_characters(self, tmp_path):
        with pytest.raises(CliConfigError, match="config key 'methods': cannot use 'OLS' "
                                                 r"\(expected a list of strings"):
            load_config(write_config(tmp_path / "c.json", methods="OLS"))

    def test_readme_config_block_names_every_key(self, tmp_path):
        section = README.split("### Configuration format", 1)[1]
        doc = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        config = load_config(cfg)
        assert (config.kernel.phi_grid, config.optimizer.max_iterations) == (
            tuple(doc["phi_grid"]), doc["optimizer"]["max_iterations"])
        keys = set()
        for k, v in doc.items():
            keys |= {f"{k}.{sub}" for sub in v} if isinstance(v, dict) else {k}
        assert keys == set(cli._FIELDS)

    @pytest.mark.parametrize("override,key", [
        ({"replications": 2.7}, "replications"),
        ({"design": {"kind": "fixed_grid", "n": 50.9}}, "design.n"),
        ({"quadrature_m": "12"}, "quadrature_m"),
        ({"seed": True}, "seed"),
        ({"sigma2": [0.1, True]}, "sigma2"),
        ({"output": 5}, "output"),
    ], ids=["fractional_int", "fractional_nested_int", "string_int", "bool_int",
            "bool_float", "number_string"])
    def test_ill_typed_value_is_one_error_line_naming_the_key(self, tmp_path, capsys,
                                                              override, key):
        cfg = write_config(tmp_path / "c.json", **override)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(f"error: config key {key!r}")


class TestDataCsv:
    def test_missing_y_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,value\n1.0,2.0\n")
        with pytest.raises(CliConfigError, match="column 'y' not found"):
            read_data_csv(p)

    def test_parse_error_names_line_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,y\n1.0,2.0\noops,3.0\n")
        with pytest.raises(CliConfigError, match="line 3, column 'x1'"):
            read_data_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["x1", "y"])
    def test_non_finite_cell_is_one_error_line(self, tmp_path, capsys, cell, column):
        row = f"{cell},3.0" if column == "x1" else f"2.0,{cell}"
        data = tmp_path / "d.csv"
        data.write_text("x1,y\n1.0,2.0\n" + row + "\n2.5,1.0\n")
        with pytest.raises(CliConfigError, match=f"line 3, column '{column}'"):
            read_data_csv(data)
        cfg = write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"])
        code = main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "fit.csv")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert str(data) in lines[0] and f"line 3, column '{column}'" in lines[0]
        assert not (tmp_path / "fit.csv").exists()

    def test_rows_past_the_design_cap_fail_before_any_fit(self, tmp_path, capsys, monkeypatch):
        rows = "".join(f"{0.001 * i},{i % 7}\n" for i in range(MAX_DESIGN_POINTS))
        at_cap = tmp_path / "at_cap.csv"
        at_cap.write_text("x1,y\n" + rows + "\n\n")  # blank lines are not rows
        assert read_data_csv(at_cap)[0].shape == (MAX_DESIGN_POINTS, 1)
        data = tmp_path / "d.csv"
        data.write_text("x1,y\n" + rows + "7.5,1.0\n")
        fits = counting(monkeypatch, calibrate, "fit_response_surface")
        cfg = write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"])
        code = main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "fit.csv")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and not fits
        assert lines == [f"error: {data}: more than {MAX_DESIGN_POINTS} data rows"]
        assert not (tmp_path / "fit.csv").exists()

    def test_good_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,y\n0.5,1.5\n1.5,2.5\n")
        pts, y = read_data_csv(p)
        assert pts.shape == (2, 1)
        assert np.array_equal(y, [1.5, 2.5])

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with one
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbfx1,y\n0.5,1.5\n1.5,2.5\n")
        pts, y = read_data_csv(p)
        assert np.array_equal(pts, [[0.5], [1.5]])
        assert np.array_equal(y, [1.5, 2.5])

    def test_multidimensional_columns(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,x2,y\n0.5,0.1,1.5\n1.5,0.2,2.5\n")
        pts, _ = read_data_csv(p)
        assert pts.shape == (2, 2)

    @pytest.mark.parametrize("content,message", [
        ("x1,x3,y\n0.5,0.1,1.5\n", "column 'x3' breaks the numbering"),
        ("x0,x1,y\n0.5,0.1,1.5\n", "column 'x0' breaks the numbering"),
        ("x1,x1,y\n0.5,0.1,1.5\n", "column 'x1' is repeated"),
        ("x1,y,y\n0.5,0.1,1.5\n", "column 'y' is repeated"),
        ("x1,x2,y\n0.5,0.1,1.5\n1.5,0.2,2.5\n",
         "example2 expects 1 control variable, data has 2"),
        (b"x1,y\n\xff,1.5\n", "not UTF-8 text"),
        (None, "data file not found"),
        (Path.mkdir, "cannot read data file"),
    ], ids=["gap", "x0", "repeated-x", "repeated-y", "two-control-variables",
            "not-utf8", "missing", "directory"])
    def test_bad_file_is_one_error_line(self, tmp_path, capsys, content, message):
        data = tmp_path / "d.csv"
        if content is Path.mkdir:
            data.mkdir()
        elif isinstance(content, bytes):
            data.write_bytes(content)
        elif content is not None:
            data.write_text(content)
        cfg = write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"])
        code = main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "fit.csv")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]
        assert not (tmp_path / "fit.csv").exists()


class TestCalibrateCommand:
    def test_noiseless_example1_and_determinism(self, tmp_path):
        data = write_noiseless_example1_csv(tmp_path / "d.csv")
        cfg = write_config(tmp_path / "c.json", example="example1",
                           methods=["L2", "OLS"])
        out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(out1)]) == 0
        assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = out1.read_text().strip().splitlines()
        assert rows[0].startswith("method,theta_hat")
        l2_row = next(r for r in rows if r.startswith("L2,"))
        assert float(l2_row.split(",")[1]) == pytest.approx(-1.0, abs=1e-3)
        assert l2_row.rstrip().endswith("ok")

    def test_method_failure_isolated_per_row(self, tmp_path):
        # two observations: least squares works, the GP method needs
        # three and must fail in its own row only
        data = tmp_path / "d.csv"
        data.write_text("x1,y\n1.0,0.9\n4.0,-0.6\n")
        cfg = write_config(tmp_path / "c.json", methods=["OLS", "KO"])
        out = tmp_path / "o.csv"
        assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        rows = {r.split(",")[0]: r for r in out.read_text().strip().splitlines()[1:]}
        assert rows["OLS"].rstrip().endswith("ok")
        assert rows["KO"].endswith(",error: FitError: GP calibration needs at least 3 observations")

    @pytest.mark.parametrize("scale,ols_status", [
        (1e150, "ok"),
        (10 ** 152.5, "error: FitError: OLS sandwich covariance is non-finite"),
        (10 ** 153.5, "error: FitError: objective is non-finite on the whole coarse grid"),
        (1e155, "error: FitError: objective is non-finite on the whole coarse grid")],
        ids=["1e150", "1e152.5", "1e153.5", "1e155"])
    def test_huge_responses_give_values_or_error_rows(self, tmp_path, scale, ols_status):
        # finite responses whose squares overflow: first in KO's final
        # profile, then in the sandwich, the leave-one-out mean and the GCV sweep
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(0.0, 6.28, 40))
        y = scale * (np.sin(x) + 0.1 * rng.standard_normal(40))
        data = write_data_csv(tmp_path / "d.csv", x[:, None], y)
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["calibrate", "--data", str(data), "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["L2", "OLS", "KO"]
        for meth, *cells, status in rows:
            if status == "ok":
                assert all(np.isfinite(float(c)) for c in cells if c), meth
            else:
                assert status.startswith("error: FitError: "), meth
        assert rows[1][-1] == ols_status

    def test_standard_errors_emitted_for_smooth_model(self, tmp_path):
        system = testbed.make_system("example2", 0.01)
        data = write_data_csv(tmp_path / "d.csv", *testbed.generate(system, 3, 0))
        cfg = write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"])
        out = tmp_path / "o.csv"
        assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        rows = {r.split(",")[0]: r.split(",") for r in
                out.read_text().strip().splitlines()[1:]}
        assert float(rows["L2"][5]) > 0.0
        assert float(rows["OLS"][5]) > 0.0
        assert rows["KO"][5] == ""

    def test_grid_edge_selection_is_logged(self, tmp_path, capsys):
        # three tied points and one more: phi lands on the bottom of its grid
        data = tmp_path / "d.csv"
        data.write_text("x1,y\n1,0.5\n1,0.7\n1,0.6\n2,1.9\n")
        cfg = load_config(write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"]))
        out = tmp_path / "o.csv"
        assert cmd_calibrate(cfg, data, out, log=sys.stderr) == 0
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines[:-1] == [
            f"[calibrate] {m} tuned on a grid edge: phi=0.01 (smallest of phi_grid)"
            for m in ("L2", "KO")]
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "method,theta_hat,objective,lambda,phi,stderr,status"
        assert [r.split(",")[-1] for r in rows[1:]] == ["ok"] * 3
        assert cmd_calibrate(cfg, data, out, log=None) == 0
        assert capsys.readouterr() == ("", "")

    def test_default_log_follows_redirected_stderr(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        data = write_noiseless_example1_csv(tmp_path / "d.csv")
        cfg = write_config(tmp_path / "c.json", example="example1", methods=["OLS"])
        out, buf = tmp_path / "o.csv", io.StringIO()
        with contextlib.redirect_stderr(buf):
            assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                         "--out", str(out)]) == 0
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 0
        lines = buf.getvalue().splitlines()
        assert lines[0] == f"[calibrate] wrote {out}"
        assert lines[1] == ("[simulate] workers=1 OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset "
                            "blas_threads=1")
        assert lines[2].startswith("[simulate] OLS ")
        assert lines[-1] == f"[simulate] wrote {tmp_path / 'r.csv'}"
        assert capsys.readouterr() == ("", "")

    def test_interior_selection_logs_nothing(self, tmp_path, capsys):
        system = testbed.make_system("example2", 0.01)
        data = write_data_csv(tmp_path / "d.csv", *testbed.generate(system, 3, 0))
        cfg = load_config(write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"]))
        assert cmd_calibrate(cfg, data, tmp_path / "o.csv", log=sys.stderr) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"[calibrate] wrote {tmp_path / 'o.csv'}"]


class TestTuneOnce:
    """phi and lambda are tuned once per dataset and shared by every method."""

    def test_calibrate_tunes_once_for_all_methods(self, tmp_path, monkeypatch):
        system = testbed.make_system("example2", 0.1, "uniform_random", 101)
        data = write_data_csv(tmp_path / "d.csv", *testbed.generate(system, 4, 0))
        cfg = write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"])
        loo = counting(monkeypatch, rkhs, "loo_cv_phi")
        eigh = counting(monkeypatch, np.linalg, "eigh")
        assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "o.csv")]) == 0
        assert len(loo) == 1
        # the two candidates past the rank cap; the factors' r x r Grams are not counted
        assert n_by_n(eigh, 101) == 2
        rows = (tmp_path / "o.csv").read_text().strip().splitlines()[1:]
        assert all(r.endswith(",ok") for r in rows)

    def test_uniform201_sweep_decomposes_few_gram_matrices(self, monkeypatch):
        # every factor stays below the rank cap, so only r x r Grams are
        # decomposed; a silent fall back to one n x n eigh per candidate reads 15
        system = testbed.make_system("example2", 0.1, "uniform_random", 201)
        pts, y = testbed.generate(system, 0, 0)
        grams = counting(monkeypatch, kernels, "gram")
        eigh = counting(monkeypatch, np.linalg, "eigh")
        fit_response_surface(pts, y, rkhs.KernelConfig())
        assert len(grams) == len(rkhs.DEFAULT_PHI_GRID)
        assert n_by_n(eigh, 201) == 0 and len(eigh) == len(rkhs.DEFAULT_PHI_GRID)

    def test_grid51_sweep_scores_candidates_from_a_factor(self, monkeypatch):
        # small designs take the low-rank sweep too; one n x n eigh per candidate reads 15
        pts, y = testbed.generate(testbed.make_system("example2", 0.01), 0, 0)
        eigh = counting(monkeypatch, np.linalg, "eigh")
        fit_response_surface(pts, y, rkhs.KernelConfig())
        assert pts.shape[0] == 51 and n_by_n(eigh, 51) == 5

    def test_replication_tunes_once_for_l2_and_ko(self, monkeypatch):
        loo = counting(monkeypatch, rkhs, "loo_cv_phi")
        cfg = RunConfig(example="example2", methods=("L2", "KO"), sigma2=(0.01,),
                        replications=1, seed=3, quadrature_m=128)
        simulate(cfg, log=None)
        assert len(loo) == 1

    def test_tuning_failure_fails_each_method_that_needs_it(self, tmp_path):
        # a vanishing penalty makes every GCV score 0/0: tuning fails, and
        # the L2 and KO rows carry the error the one surface fit raises
        system = testbed.make_system("example2", 0.01)
        pts, y = testbed.generate(system, 5, 0)
        data = write_data_csv(tmp_path / "d.csv", pts, y)
        cfg = write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"],
                           lambda_grid=[1e-300])
        out = tmp_path / "o.csv"
        assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        rows = {r.split(",")[0]: r for r in out.read_text().strip().splitlines()[1:]}
        assert rows["OLS"].endswith(",ok")
        kcfg = load_config(cfg).kernel
        with pytest.raises(rkhs.FitError) as alone:
            fit_response_surface(pts, y, kcfg)
        for meth in ("L2", "KO"):
            assert rows[meth].endswith(f"error: FitError: {alone.value}")

    def test_failed_tuning_runs_the_sweep_once(self, tmp_path, monkeypatch):
        system = testbed.make_system("example2", 0.01)
        data = write_data_csv(tmp_path / "d.csv", *testbed.generate(system, 5, 0))
        cfg = write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"],
                           lambda_grid=[1e-300])
        loo = counting(monkeypatch, rkhs, "loo_cv_phi")
        assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "o.csv")]) == 0
        assert len(loo) == 1
        rows = {r.split(",")[0]: r for r in
                (tmp_path / "o.csv").read_text().strip().splitlines()[1:]}
        for meth in ("L2", "KO"):
            assert rows[meth].endswith("error: FitError: all GCV scores are non-finite")

    @pytest.mark.parametrize("bug,error,match", [
        (type_bug, TypeError, "bug in a calibrator"),
        (broadcast_bug, ValueError, "could not be broadcast")], ids=["type", "broadcast"])
    def test_programming_error_propagates(self, monkeypatch, bug, error, match):
        monkeypatch.setattr(cli, "ols_calibrate", bug)
        cfg = RunConfig(example="example2", methods=("OLS",), sigma2=(0.01,),
                        replications=2, seed=3, quadrature_m=64)
        with pytest.raises(error, match=match):
            simulate(cfg, log=None)

    def test_programming_error_ends_calibrate(self, tmp_path, monkeypatch):
        # not an "error: ValueError" row with exit 0
        monkeypatch.setattr(cli, "l2_calibrate", broadcast_bug)
        data = write_noiseless_example1_csv(tmp_path / "d.csv")
        cfg = write_config(tmp_path / "c.json", example="example1")
        with pytest.raises(ValueError, match="could not be broadcast"):
            main(["calibrate", "--config", str(cfg), "--data", str(data),
                  "--out", str(tmp_path / "o.csv")])
        assert not (tmp_path / "o.csv").exists()

    def test_programming_error_ends_simulate(self, tmp_path, monkeypatch):
        # not a "numerical failure" with exit 2
        def unfinished(*args, **kwargs):
            raise NotImplementedError("unfinished calibrator")
        monkeypatch.setattr(cli, "ols_calibrate", unfinished)
        cfg = write_config(tmp_path / "c.json", methods=["OLS"])
        with pytest.raises(NotImplementedError, match="unfinished calibrator"):
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])

    def test_non_finite_model_fails_its_row(self):
        cfg = RunConfig(example="example2", methods=("OLS",), sigma2=(0.01,),
                        replications=1, quadrature_m=64)
        plan = cli._Plan.of(cfg)
        pts, y = testbed.generate(plan.systems[0], 5, 0)
        nan = replace(plan.model, eval=lambda p, ths: np.full((len(ths), len(p)), np.nan))
        run = cli._run_methods(replace(plan, model=nan), pts, y)["OLS"]
        assert run.estimate is None
        assert run.error == "FitError: objective is non-finite on the whole coarse grid"

    def test_calibrate_without_log_is_silent(self, tmp_path, capsys):
        # a lambda grid whose GCV scores are all non-finite makes the shared
        # surface fit fail, which is logged
        data = tmp_path / "d.csv"
        data.write_text("x1,y\n1.0,0.9\n2.0,0.5\n4.0,-0.6\n5.0,0.2\n")
        cfg = load_config(write_config(tmp_path / "c.json", methods=["L2", "OLS"],
                                       lambda_grid=[1e-300]))
        assert cmd_calibrate(cfg, data, tmp_path / "o.csv", log=None) == 0
        assert capsys.readouterr() == ("", "")
        assert "error" in (tmp_path / "o.csv").read_text()


class TestSimulateCommand:
    def test_single_replication_identities(self):
        cfg = RunConfig(example="example2", methods=("OLS",), sigma2=(0.01,),
                        replications=1, seed=3, quadrature_m=128)
        report = simulate(cfg, log=None)
        row = report.rows[0]
        assert row.sd == 0.0
        assert row.mse == pytest.approx((row.mean - row.theta_star) ** 2, rel=1e-12)
        assert not check_report(report)

    def test_worker_count_does_not_change_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", replications=4,
                           methods=["L2", "OLS"])
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1),
                     "--workers", "1", "--check"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                     "--workers", "2", "--check"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        headers = [line.split()[1] for line in capsys.readouterr().err.splitlines()
                   if "_NUM_THREADS=" in line]
        assert headers == ["workers=1", "workers=2"]

    @pytest.mark.parametrize("replications,want", [(1, None), (3, 3), (6, 4)])
    def test_pool_has_at_most_one_worker_per_task(self, monkeypatch, replications, want):
        # a recording stand-in for the pool, mapping serially, on 4 pinned
        # CPUs: no process starts, and 6 tasks get one worker per CPU
        import concurrent.futures
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)
                initializer()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = RunConfig(example="example2", methods=("OLS",), sigma2=(0.01,),
                        replications=replications, seed=1, quadrature_m=64)
        log = io.StringIO()
        simulate(cfg, workers=64, log=log)
        assert sizes == ([] if want is None else [want])
        assert log.getvalue().split()[1] == f"workers={want or 1}"

    @pytest.mark.parametrize("out,message", [
        ("missing/r.csv", "no writable directory"), (".", "it is a directory")],
        ids=["missing-directory", "directory"])
    def test_unwritable_output_fails_before_any_replication(self, tmp_path, capsys,
                                                            monkeypatch, out, message):
        calls = counting(monkeypatch, cli, "_replicate")
        cfg = write_config(tmp_path / "c.json", replications=1)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert (code, calls) == (1, [])
        assert err.startswith(f"error: cannot write {tmp_path / out}: {message}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_is_rejected(self, workers):
        cfg = RunConfig(example="example2", methods=("OLS",), sigma2=(0.01,),
                        replications=2, seed=1, quadrature_m=64)
        with pytest.raises(CliConfigError, match="workers must be at least 1"):
            simulate(cfg, workers=workers, log=None)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", methods=["OLS"], replications=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(a),
                     "--seed", "11"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(b),
                     "--seed", "12"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_overflowing_theta_box_prints_no_warning(self, tmp_path, capsys):
        # past |theta| ~ 1e154 the simulators overflow; every estimator
        # scores those parameters +inf, and numpy does not warn
        cfg = write_config(tmp_path / "c.json", methods=["L2", "OLS", "KO"], replications=1,
                           theta_domain=[-1e300, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "r.csv")]) == 0
        assert "Warning" not in capsys.readouterr().err

    def test_every_noise_variance_is_checked(self):
        with pytest.raises(CliConfigError, match="noise variance must be finite and >= 0"):
            RunConfig(sigma2=(0.1, float("nan")))

    def test_list_theta_domain(self):
        cfg = RunConfig(theta_domain=[-2.0, 2.0], replications=1, methods=("OLS",))
        assert cfg.theta_domain == (-2.0, 2.0)
        assert [r.reps for r in simulate(cfg, log=None).rows] == [1, 1]

    def test_report_layout(self, tmp_path):
        cfg = RunConfig(example="example1", methods=("OLS",), sigma2=(0.01,),
                        replications=2, seed=5, quadrature_m=64)
        report = simulate(cfg, log=None)
        text = report.to_csv()
        header, *rows = text.strip().splitlines()
        assert header == "method,sigma2,mean,mse,sd,reps,theta_star"
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert fields[0] == "OLS"
        assert int(fields[5]) == 2


def blas_threads_in_worker():
    return cli._openblas_threads()[0]()


REPLICATE = cli._replicate


def replicate_at_one_blas_thread(plan, task):
    """``cli._replicate``, failing unless the worker runs it at one OpenBLAS thread;
    module-level, so that a spawned worker unpickles it by name."""
    threads = blas_threads_in_worker()
    if threads != 1:
        raise AssertionError(f"a pool task ran at {threads} OpenBLAS threads")
    return REPLICATE(plan, task)


class TestBlasThreads:
    """A run caps numpy's OpenBLAS at one thread and restores the count after."""

    @pytest.fixture
    def blas(self, monkeypatch):
        """The getter the cap uses, with the count at 2 before each test."""
        if cli._openblas_threads() is None:
            pytest.skip("no OpenBLAS thread getter found")
        for v in cli.BLAS_THREAD_VARS:
            monkeypatch.delenv(v, raising=False)
        get, set_ = cli._openblas_threads()
        before = get()
        set_(2)
        yield get
        set_(before)

    @staticmethod
    def record(monkeypatch, owner, name, get):
        """Replace ``owner.name`` by a wrapper; return the counts seen at its calls."""
        seen, fn = [], getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen.append(get())
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)
        return seen

    def test_simulate_runs_at_one_thread_and_restores(self, blas, monkeypatch):
        seen = self.record(monkeypatch, cli, "_replicate", blas)
        log = io.StringIO()
        cfg = RunConfig(example="example2", methods=("OLS",), sigma2=(0.01,),
                        replications=2, seed=1, quadrature_m=64)
        simulate(cfg, log=log)
        assert seen == [1, 1]
        assert blas() == 2
        assert log.getvalue().splitlines()[0].endswith(" blas_threads=1")

    def test_calibrate_runs_at_one_thread_and_restores(self, blas, monkeypatch, tmp_path):
        seen = self.record(monkeypatch, calibrate, "fit_response_surface", blas)
        data = write_noiseless_example1_csv(tmp_path / "d.csv")
        cfg = write_config(tmp_path / "c.json", example="example1")
        assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "o.csv")]) == 0
        assert seen == [1]
        assert blas() == 2

    def test_count_is_restored_when_the_run_raises(self, blas, monkeypatch, tmp_path, capsys):
        seen = self.record(monkeypatch, cli, "_replicate", blas)
        cfg = write_config(tmp_path / "c.json", lambda_grid=[1e-300])
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert "numerical failure: L2 failed in 2/2 replications" in capsys.readouterr().err
        assert seen == [1, 1]
        assert blas() == 2
        with pytest.raises(RuntimeError, match="L2 failed"):
            simulate(load_config(cfg), log=None)
        assert blas() == 2

    # an empty or blank value is unset, as OpenBLAS reads it: the cap applies
    @pytest.mark.parametrize("value,seen,threads", [("3", 2, "3"), ("", 1, "1"), (" ", 1, "1")],
                             ids=["three", "empty", "blank"])
    @pytest.mark.parametrize("var", cli.BLAS_THREAD_VARS)
    def test_environment_count_wins(self, blas, monkeypatch, var, value, seen, threads):
        monkeypatch.setenv(var, value)
        counts = self.record(monkeypatch, cli, "_replicate", blas)
        log = io.StringIO()
        cfg = RunConfig(example="example2", methods=("OLS",), sigma2=(0.01,),
                        replications=1, seed=1, quadrature_m=64)
        simulate(cfg, log=log)
        assert counts == [seen]
        assert log.getvalue().splitlines()[0].endswith(f" blas_threads={threads}")

    def test_fork_pool_worker_inherits_the_cap(self, blas):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        def in_worker():
            with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
                return pool.submit(blas_threads_in_worker).result()
        with cli.one_blas_thread() as threads:
            assert (threads, in_worker()) == (1, 1)
        assert in_worker() == 2

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_without_fork_matches_serial_at_one_thread(self, blas, monkeypatch, method):
        # such a worker inherits no cap: the pool initializer applies it, and the
        # plan comes with each chunk of tasks
        import concurrent.futures
        import multiprocessing
        from functools import partial
        cfg = RunConfig(example="example2", methods=("L2", "OLS"), sigma2=(0.01, 0.1),
                        replications=2, seed=1, quadrature_m=64)
        serial = simulate(cfg, log=None).to_csv()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            partial(concurrent.futures.ProcessPoolExecutor,
                                    mp_context=multiprocessing.get_context(method)))
        monkeypatch.setattr(cli, "_replicate", replicate_at_one_blas_thread)
        assert simulate(cfg, workers=2, log=None).to_csv() == serial

    def test_unknown_without_a_setter(self, monkeypatch):
        for v in cli.BLAS_THREAD_VARS:
            monkeypatch.delenv(v, raising=False)
        monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
        log = io.StringIO()
        cfg = RunConfig(example="example2", methods=("OLS",), sigma2=(0.01,),
                        replications=1, seed=1, quadrature_m=64)
        simulate(cfg, log=log)
        assert log.getvalue().splitlines()[0] == (
            "[simulate] workers=1 OPENBLAS_NUM_THREADS=unset OMP_NUM_THREADS=unset "
            "blas_threads=unknown")


class TestDiscrepancyCommand:
    def test_curve_and_check(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["discrepancy", "--example", "example2", "--steps", "401",
                     "--out", str(out), "--check"]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (401, 3)
        i = int(np.argmin(rows[:, 1]))
        assert rows[i, 0] == pytest.approx(-0.1789, abs=5e-3)

    def test_example1_touches_zero_at_minus_one(self, tmp_path):
        out = tmp_path / "c1.csv"
        assert main(["discrepancy", "--example", "example1", "--steps", "401",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        at = np.isclose(rows[:, 0], -1.0)
        assert at.any()
        assert rows[at, 1][0] == pytest.approx(0.0, abs=1e-12)
        assert rows[at, 2][0] == pytest.approx(0.0, abs=1e-10)

    def test_quadrature_calls_the_testbed_simulator(self, monkeypatch):
        calls = counting(monkeypatch, testbed, "ys_example2")
        rows = cli.discrepancy_curve("example2", -1.0, 1.0, 3, quadrature_m=16)
        # the three thetas go to the simulator as one block
        assert len(calls) == 1 and calls[0][1].ravel().tolist() == [-1.0, 0.0, 1.0]
        assert rows.shape == (3, 3)

    def test_check_fails_where_the_distance_overflows(self, tmp_path):
        # at |theta| = 1e300 both columns are inf, so their agreement is NaN
        out = tmp_path / "big.csv"
        assert main(["discrepancy", "--theta-min", "-1e300", "--theta-max", "1e300",
                     "--steps", "3", "--out", str(out), "--check"]) == 3
        assert out.read_text().splitlines()[1] == "-1.0000000000000001e+300,inf,inf"

    def test_overflowing_range_prints_no_warning(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["discrepancy", "--theta-min", "-1e300", "--theta-max", "1e300",
                         "--steps", "3", "--out", str(tmp_path / "big.csv"),
                         "--check"]) == 3
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "RuntimeWarning" not in capsys.readouterr().err

    def test_rejects_bad_range(self, tmp_path):
        assert main(["discrepancy", "--theta-min", "2.0", "--theta-max", "-2.0",
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("bound", [["--theta-min", "nan"], ["--theta-max", "inf"]],
                             ids=["min-nan", "max-inf"])
    def test_rejects_non_finite_bound(self, tmp_path, capsys, bound):
        out = tmp_path / "x.csv"
        assert main(["discrepancy", *bound, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == ["error: need finite theta_min < theta_max"]
        assert not out.exists()

    @pytest.mark.parametrize("bound,row,value", [
        (["--theta-min", "-1e-3"], 0, -1e-3),
        (["--theta-min=-1e-3"], 0, -1e-3),
        (["--theta-max", "1e3"], -1, 1e3),
    ], ids=["min-spaced", "min-equals", "max-exponent"])
    def test_accepts_bounds_in_exponent_form(self, tmp_path, bound, row, value):
        out = tmp_path / "x.csv"
        assert main(["discrepancy", *bound, "--steps", "3", "--out", str(out)]) == 0
        assert np.loadtxt(out, delimiter=",", skiprows=1)[row, 0] == value


class TestConfigErrors:
    @pytest.mark.parametrize("override", [
        {"theta_domain": [1]},
        {"replications": "abc"},
        {"quadrature_m": 0},
        {"quadrature_m": MAX_QUADRATURE_NODES + 1},
        {"design": {"kind": "uniform_random", "n": 0}},
        {"kernel": "gaussian"},
        {"kernel": {"family": "foo"}},
        {"replications": float("inf")},
        {"theta_domain": [float("nan"), 1.0]},
        {"sigma2": [float("nan")]},
        {"sigma2": [float("inf")]},
        {"phi_grid": [0.5, float("nan")]},
        {"lambda_grid": [float("nan")]},
        {"phi_grid": []},
        {"lambda_grid": [1e-2, 1e-4]},
        {"optimizer": {"tolerance": float("nan")}},
        {"seed": -1},
        {"design": {"kind": "fixed_grid", "n": 7}},
        {"optimizer": {"grid_points": 401 ** 2 + 1}},
        {"methods": ["L2", "L2"]},
        {"methods": "OLS"},
        {"sigma2": []},
        {"replications": cli.MAX_REPLICATIONS + 1},
        {"design": {"kind": "uniform_random", "n": MAX_DESIGN_POINTS + 1}},
        {"replications": 10 ** 12, "design": {"kind": "uniform_random", "n": 10 ** 9}},
    ], ids=["theta_domain", "replications", "quadrature_m", "quadrature_m_over_cap",
            "design_n", "kernel_string", "kernel_family", "replications_infinity",
            "theta_domain_nan", "sigma2_nan", "sigma2_inf", "phi_grid_nan",
            "lambda_grid_nan", "phi_grid_empty", "lambda_grid_unsorted", "tolerance_nan",
            "seed_negative", "fixed_grid_n", "grid_points_over_cap",
            "methods_repeated", "methods_string", "sigma2_empty", "replications_over_cap",
            "design_n_over_cap", "sizes_far_over_cap"])
    def test_bad_value_is_one_error_line(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path / "c.json", **override)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_sizes_at_their_caps_are_accepted(self):
        # building the config allocates nothing of the design's size
        config = RunConfig(design="uniform_random", design_n=MAX_DESIGN_POINTS,
                           replications=cli.MAX_REPLICATIONS)
        assert (config.design_n, config.replications) == (MAX_DESIGN_POINTS,
                                                          cli.MAX_REPLICATIONS)

    @pytest.mark.parametrize("doc", [[], "example2", 3, None],
                             ids=["list", "string", "number", "null"])
    def test_config_not_an_object_is_one_error_line(self, tmp_path, capsys, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert lines == ["error: config must be a JSON object"]


class TestCoarseBlocks:
    """The L2 estimator's coarse block at the quadrature nodes is built once
    per process and config; OLS and KO share one coarse block at the design
    of each dataset.  The estimates are the same bits as without them."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        cli._cached_node_block.cache_clear()
        yield
        cli._cached_node_block.cache_clear()

    @staticmethod
    def simulator_shapes(monkeypatch, example="example2"):
        """The output shape of each simulator call from now on."""
        shapes, fn = [], getattr(testbed, f"ys_{example}")

        def wrapper(x, theta):
            out = fn(x, theta)
            shapes.append(out.shape)
            return out
        monkeypatch.setattr(testbed, f"ys_{example}", wrapper)
        return shapes

    def test_one_node_block_per_process_and_config(self, monkeypatch):
        shapes = self.simulator_shapes(monkeypatch)
        cfg = RunConfig(methods=("L2",), sigma2=(0.01, 0.1), replications=3, quadrature_m=64)
        simulate(cfg, log=None)
        simulate(cfg, log=None)
        assert [s for s in shapes if s[0] == 401] == [(401, 64)]
        simulate(replace(cfg, quadrature_m=32), log=None)
        assert [s for s in shapes if s[0] == 401] == [(401, 64), (401, 32)]

    def test_ols_and_ko_share_one_design_block_per_dataset(self, monkeypatch):
        shapes = self.simulator_shapes(monkeypatch)
        cfg = RunConfig(methods=("OLS", "KO"), sigma2=(0.1,), replications=3, quadrature_m=64)
        simulate(cfg, log=None)
        assert [s for s in shapes if s[0] == 401] == [(401, testbed.FIXED_GRID_N)] * 3

    def test_no_block_past_one_scan_call(self, monkeypatch):
        # a block holds no more rows than the scan call it replaces
        shapes = self.simulator_shapes(monkeypatch)
        cfg = RunConfig(sigma2=(0.1,), replications=1, quadrature_m=64,
                        optimizer=OptimizerConfig(grid_points=SCAN_BLOCK_ROWS + 2))
        simulate(cfg, log=None)
        assert max(s[0] for s in shapes) == SCAN_BLOCK_ROWS

    @pytest.mark.parametrize("example", ["example1", "example2"])
    def test_calibrate_csv_is_the_same_without_blocks(self, tmp_path, monkeypatch, example):
        system = testbed.make_system(example, 0.1, "uniform_random", 60)
        data = write_data_csv(tmp_path / "d.csv", *testbed.generate(system, 3, 0))
        cfg = write_config(tmp_path / "c.json", example=example, methods=["L2", "OLS", "KO"])
        shapes = self.simulator_shapes(monkeypatch, example)
        outs = []
        for blocks in (True, False):
            if not blocks:
                monkeypatch.setattr(cli, "coarse_block", lambda *args: None)
                cli._cached_node_block.cache_clear()
            outs.append(tmp_path / f"blocks-{blocks}.csv")
            assert main(["calibrate", "--config", str(cfg), "--data", str(data),
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        # the grid's rows: two blocks, then one scan per method
        assert [s[0] for s in shapes].count(201) == 2 + 3


class TestExitCodes:
    def test_the_parser_is_built_once_and_keeps_no_state(self, tmp_path):
        assert cli._parser() is cli._parser()
        assert main(["simulate", "--workers", "two"]) == 1
        assert main(["discrepancy", "--steps", "11", "--out", str(tmp_path / "d.csv")]) == 0

    @pytest.mark.parametrize("argv,prefix", [
        (["discrepancy", "--seed", "3"], "error: l2calib"),
        (["calibrate", "--seed", "3", "--data", "d.csv"], "error: l2calib"),
        (["calibrate", "--workers", "2", "--data", "d.csv"], "error: l2calib"),
        (["calibrate", "--check", "--data", "d.csv"], "error: l2calib"),
        (["simulate", "--bogus"], "error: l2calib"),
        (["calibrate"], "error: l2calib"),
        # the override goes through RunConfig's own check
        (["simulate", "--seed", "-1"], "error: seed must be nonnegative"),
        (["simulate", "--workers", "0"], "error: workers must be at least 1"),
        (["simulate", "--workers", "-2"], "error: workers must be at least 1"),
        (["discrepancy", "--steps", "1"], "error: need 2 to 160801 steps, got 1"),
        # rejected before any array of that length is built
        (["discrepancy", "--steps", "160802"], "error: need 2 to 160801 steps, got 160802"),
        # an output that cannot be written is refused before any work
        (["calibrate", "--data", "d.csv", "--out", "."], "error: cannot write .: it is a"),
        (["discrepancy", "--out", f"{os.devnull}/c.csv"],
         f"error: cannot write {os.devnull}/c.csv: no writable directory {os.devnull}"),
    ], ids=["discrepancy-seed", "calibrate-seed", "calibrate-workers", "calibrate-check",
            "unknown", "missing-data", "negative-seed", "zero-workers", "negative-workers",
            "one-step", "steps-over-cap", "calibrate-out-directory",
            "discrepancy-out-not-in-a-directory"])
    def test_usage_error_is_one(self, capsys, argv, prefix):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix)

    def test_check_failure_is_three(self, tmp_path, capsys, monkeypatch):
        # a report whose MSE breaks MSE = SD^2 + bias^2 for one row
        rows = tuple(cli.MethodSummary(method=m, sigma2=0.1, mean=0.5, mse=mse, sd=0.1,
                                       reps=2, theta_star=0.5, wall_time_s=0.0, failures=0)
                     for m, mse in (("L2", 0.01), ("OLS", 0.02)))
        monkeypatch.setattr(cli, "simulate", lambda config, workers=1, log=None:
                            cli.SimulationReport(theta_star=0.5, rows=rows))
        out = tmp_path / "r.csv"
        assert main(["simulate", "--check", "--out", str(out)]) == 3
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("[simulate] check failed:")]
        assert len(failed) == 1
        assert "OLS sigma2=0.1: MSE identity off by" in failed[0]
        assert out.read_text().count("\n") == 3

    def test_failed_write_is_one(self, tmp_path, capsys, monkeypatch):
        def full_disk(path, text):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(Path, "write_text", full_disk)
        out = tmp_path / "c.csv"
        assert main(["discrepancy", "--steps", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: No space left on device\n"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert "--workers" in capsys.readouterr().out

    def test_config_error_is_one(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"example": "example9"}))
        assert main(["simulate", "--config", str(p)]) == 1

    def test_custom_example_needs_api(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"example": "custom"}))
        assert main(["simulate", "--config", str(p),
                     "--out", str(tmp_path / "r.csv")]) == 1

    def test_numerical_failure_is_two(self, tmp_path):
        # GP calibration needs >= 3 observations, so every replication
        # fails and the failure-rate gate aborts the run
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "example": "example2", "methods": ["KO"], "sigma2": [0.01],
            "replications": 2, "seed": 1,
            "design": {"kind": "uniform_random", "n": 2}}))
        assert main(["simulate", "--config", str(p),
                     "--out", str(tmp_path / "r.csv")]) == 2


# Values a JSON config may hold, including the non-standard NaN/Infinity
# that Python's json module reads and writes.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["example1", "L2", "KO", "uniform_random", "matern", "1e3", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "n", "nu", "x"]), inner, max_size=2),
    max_leaves=5)
VALID_DOC = {
    "example": "example2", "methods": ["L2"], "sigma2": [0.01], "replications": 2,
    "seed": 1, "design": {"kind": "fixed_grid", "n": 51},
    "kernel": {"family": "gaussian", "nu": None},
    "optimizer": {"grid_points": 11, "tolerance": 1e-8, "max_iterations": 5},
    "phi_grid": [0.1, 1.0], "lambda_grid": [1e-4, 1e-2], "quadrature_m": 8,
    "theta_domain": [-2.0, 2.0], "output": "r.csv"}
# Every known key, dotted for nested ones, plus unknown ones.
FUZZ_KEYS = sorted(VALID_DOC) + ["bogus", "kernel.bogus"] + [
    f"{k}.{sub}" for k, v in VALID_DOC.items() if isinstance(v, dict) for sub in v]
CSV_CELLS = ["x1", "x2", "y", "", " 1.5", "-2e3", "nan", "inf", "-inf", "1_0",
             "0x1", '"3"', "1e999"]


class TestParserFuzz:
    """Either a parsed value or CliConfigError: never another exception."""

    @settings(max_examples=150, deadline=None)
    @given(changes=st.dictionaries(st.sampled_from(FUZZ_KEYS), json_values, max_size=3))
    def test_load_config(self, tmp_path_factory, changes):
        doc = json.loads(json.dumps(VALID_DOC))
        for key, value in changes.items():
            head, _, sub = key.partition(".")
            if not sub:
                doc[head] = value
            elif isinstance(doc.get(head), dict):
                doc[head][sub] = value
        path = tmp_path_factory.getbasetemp() / "fuzz_config.json"
        path.write_text(json.dumps(doc))
        try:
            config = load_config(path)
        except CliConfigError:
            return
        assert isinstance(config, RunConfig)
        assert config.design_n <= MAX_DESIGN_POINTS
        assert config.replications <= cli.MAX_REPLICATIONS

    @settings(max_examples=150, deadline=None)
    @given(header=st.sampled_from(["x1,y", "y,x1", "x1,x2,y", "x2,y", "x1", "", "y",
                                   "x1,x3,y", "x1,x1,y"]),
           rows=st.lists(st.lists(st.sampled_from(CSV_CELLS), max_size=4), max_size=4),
           noise=st.text(max_size=12))
    def test_read_data_csv(self, tmp_path_factory, header, rows, noise):
        text = "\n".join([header] + [",".join(r) for r in rows]) + noise
        path = tmp_path_factory.getbasetemp() / "fuzz_data.csv"
        path.write_text(text, encoding="utf-8")
        try:
            pts, y = read_data_csv(path)
        except CliConfigError:
            return
        assert pts.ndim == 2 and pts.shape[0] == y.shape[0] > 0
        assert np.all(np.isfinite(pts)) and np.all(np.isfinite(y))
