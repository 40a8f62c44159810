"""CLI: config validation, subcommand behavior, exit codes, determinism."""

import json
import math

import pytest

from nsk import ConfigError, bessel_i
from nsk.bessel import BesselOrder
from nsk.cli import dispatch, parse_config

VALID = {
    "n": 3,
    "gamma": 1,
    "kappa": 0.01,
    "mu": 1,
    "rho_plus": 1,
    "rho_b": -1,
    "u_minus": 0,
}


def write_config(tmp_path, doc, name="c.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_valid_document(self):
        cfg = parse_config(json.dumps(VALID))
        assert cfg.model.regime == "impermeable"
        assert cfg.tol == 1e-10
        assert cfg.max_iter == 200
        assert cfg.points_per_unit_alpha == 10.0

    def test_negative_kappa(self):
        doc = dict(VALID, kappa=-1)
        with pytest.raises(ConfigError, match="kappa must be positive"):
            parse_config(json.dumps(doc))

    def test_empty_document_lists_required_keys(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("{}")
        for key in ("n", "gamma", "kappa", "mu", "rho_plus", "rho_b", "u_minus"):
            assert key in str(exc.value)

    def test_unknown_key_named(self):
        doc = dict(VALID, viscosity=2)
        with pytest.raises(ConfigError, match="unknown config key: viscosity"):
            parse_config(json.dumps(doc))
        doc = dict(VALID, grid={"spacing": 0.1})
        with pytest.raises(ConfigError, match="unknown config key: grid.spacing"):
            parse_config(json.dumps(doc))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config('{"n": 3,,}')

    def test_grid_overrides(self):
        doc = dict(VALID, grid={"points_per_unit_alpha": 24, "R_max": 31.0, "max_nodes": 10000})
        cfg = parse_config(json.dumps(doc))
        assert cfg.points_per_unit_alpha == 24.0
        assert cfg.R_max == 31.0
        assert cfg.max_nodes == 10000

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "key",
        list(VALID)
        + ["tol", "max_iter", "kappas"]
        + ["grid." + k for k in ("points_per_unit_alpha", "R_max", "max_nodes", "growth")],
    )
    def test_non_finite_number_exits_2(self, key, value, tmp_path, capsys):
        # json.loads accepts NaN and +-Infinity; each must end as a config error, not an
        # exception out of dispatch (a traceback) or a solver failure
        doc = dict(VALID)
        if key.startswith("grid."):
            doc["grid"] = {key[5:]: "@"}
        elif key == "kappas":
            doc["kappas"] = [0.1, "@", 0.01, 0.001]
        else:
            doc[key] = "@"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc).replace('"@"', value))
        for argv in (["solve", "impermeable"], ["rate-study", "--mode", "fixed", "--out", str(tmp_path)]):
            assert dispatch(argv + ["--config", str(path)]) == 2
            assert "must be finite" in capsys.readouterr().err

    def test_rate_keys(self):
        doc = dict(VALID, kappas=[0.1, 0.01], norms=["sup"])
        cfg = parse_config(json.dumps(doc))
        assert cfg.kappas == (0.1, 0.01)
        assert cfg.norms == ("sup",)
        with pytest.raises(ConfigError, match="no norms selected"):
            parse_config(json.dumps(dict(VALID, norms=[])))


class TestDispatch:
    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 64
        assert "usage" in capsys.readouterr().err

    def test_bessel_value(self, capsys):
        assert dispatch(["bessel", "--nu", "1/2", "--x", "1.0", "--kind", "k"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-13)

    def test_bessel_scaled_and_integer_order(self, capsys):
        assert dispatch(["bessel", "--nu", "2", "--x", "700", "--kind", "k", "--scaled"]) == 0
        out = float(capsys.readouterr().out)
        # asymptotically K_2(x) e^x ~ sqrt(pi/(2x)) (1 + 15/(8x) + ...)
        lead = math.sqrt(math.pi / 1400.0)
        assert out == pytest.approx(lead * (1.0 + 15.0 / 5600.0), rel=1e-5)
        assert dispatch(["bessel", "--nu", "1", "--x", "2.5"]) == 0
        out = float(capsys.readouterr().out)
        assert out == pytest.approx(bessel_i(BesselOrder(2), 2.5), rel=1e-13)

    def test_bessel_bad_order(self, capsys):
        assert dispatch(["bessel", "--nu", "0.3", "--x", "1.0"]) == 2

    def test_kernel_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(VALID, kappa=1.0))
        assert dispatch(["kernel", "--config", cfg, "--r", "2.0", "--s", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["G"] == pytest.approx(-math.exp(-1.0) / 4.0, rel=1e-12)
        assert doc["dG_dr"] == pytest.approx(3.0 * math.exp(-1.0) / 8.0, rel=1e-12)
        assert dispatch(["kernel", "--config", cfg, "--r", "2.0", "--s", "2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dG_dr_right"] - doc["dG_dr_left"] == pytest.approx(0.25, rel=1e-10)

    def test_solve_impermeable_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VALID)
        out = tmp_path / "sol.csv"
        assert dispatch(["solve", "impermeable", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,rho,rho_r,phi,residual"
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[2]) == pytest.approx(-1.0, abs=1e-9)  # rho_r(1) = rho_b
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged"] is True

    def test_solve_regime_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VALID)
        assert dispatch(["solve", "inflow", "--config", cfg]) == 2
        assert "inflow requires u_minus > 0" in capsys.readouterr().err
        assert dispatch(["solve", "outflow", "--config", cfg]) == 2
        cfg2 = write_config(tmp_path, dict(VALID, u_minus=0.05), "c2.json")
        assert dispatch(["solve", "impermeable", "--config", cfg2]) == 2

    def test_solve_inflow_summary(self, tmp_path, capsys):
        doc = dict(VALID, kappa=1.0, u_minus=0.05, rho_b=0.0)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sol.csv"
        assert dispatch(["solve", "inflow", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "rho_minus" in summary and "weighted_sup_value" in summary
        assert out.read_text().splitlines()[0] == "r,rho,rho_r,u,phi,residual"

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        # boundary slope large enough to drive the density negative
        doc = dict(VALID, kappa=1.0, rho_b=5.0)
        cfg = write_config(tmp_path, doc)
        assert dispatch(["solve", "impermeable", "--config", cfg]) == 3
        assert "solver error" in capsys.readouterr().err

    def test_limit_profile(self, tmp_path, capsys):
        out = tmp_path / "lp.csv"
        rc = dispatch(
            ["limit-profile", "--gamma", "2", "--rho-plus", "1", "--rho-b0", "-0.1",
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rho_minus"] == pytest.approx(1.0 + 0.1 / math.sqrt(2.0), abs=1e-10)
        assert out.read_text().splitlines()[0] == "y,rho_bar,rho_bar_y"

    def test_rate_study_artifacts(self, tmp_path, capsys):
        doc = dict(VALID, kappa=1.0, kappas=[10.0 ** (-1.0 - 0.5 * k) for k in range(4)])
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "study"
        assert dispatch(["rate-study", "--mode", "fixed", "--config", cfg, "--out", str(out)]) == 0
        for name in ("rates.csv", "profiles.csv", "summary.json", "plot.gp"):
            assert (out / name).exists()
        slopes = json.loads(capsys.readouterr().out)
        assert "l2_value" in slopes

    def test_verify_impermeable(self, tmp_path, capsys):
        doc = dict(VALID, kappa=1.0, rho_b=-0.1)
        cfg = write_config(tmp_path, doc)
        assert dispatch(["verify", "impermeable", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True and doc["sup_diff"] <= 1e-6

    def test_csv_outputs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, VALID)
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert dispatch(["solve", "impermeable", "--config", cfg, "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_config_file(self, capsys):
        assert dispatch(["solve", "impermeable", "--config", "/nonexistent.json"]) == 2
