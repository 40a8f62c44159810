"""Rate-study harness: slope fitting, sweeps, and emitted artifacts."""

import json

import numpy as np
import pytest

from nsk.errors import ConfigError
from nsk.kernel import ModelParams
from nsk.rates import FIXED, SINGULAR, RateStudyConfig, emit_outputs, fit_loglog, run_rate_study


def base_params(rho_b):
    return ModelParams(n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=rho_b, u_minus=0.0)


SHORT_KAPPAS = tuple(10.0 ** (-1.0 - 0.5 * k) for k in range(4))


class TestFit:
    def test_exact_power_law(self):
        kappas = np.geomspace(1e-1, 1e-4, 7)
        slope, stderr, _ = fit_loglog(kappas, kappas)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_known_slope_with_noise(self):
        rng = np.random.default_rng(4)
        kappas = np.geomspace(1e-1, 1e-5, 9)
        errs = 3.0 * kappas**0.75 * np.exp(rng.normal(0.0, 0.01, kappas.size))
        slope, stderr, _ = fit_loglog(kappas, errs)
        assert slope == pytest.approx(0.75, abs=0.02)
        assert stderr > 0.0


class TestConfigValidation:
    def test_needs_four_kappas(self):
        with pytest.raises(ConfigError):
            RateStudyConfig(mode=FIXED, kappas=(1e-1, 1e-2, 1e-3), base=base_params(-1.0))

    def test_kappas_decreasing_positive(self):
        with pytest.raises(ConfigError):
            RateStudyConfig(mode=FIXED, kappas=(1e-3, 1e-2, 1e-1, 1.0), base=base_params(-1.0))
        with pytest.raises(ConfigError):
            RateStudyConfig(mode=FIXED, kappas=(1e-1, 1e-2, -1e-3, 1e-4), base=base_params(-1.0))

    def test_norm_keys(self):
        with pytest.raises(ConfigError, match="no norms selected"):
            RateStudyConfig(mode=FIXED, kappas=SHORT_KAPPAS, base=base_params(-1.0), norms=())
        with pytest.raises(ConfigError):
            RateStudyConfig(
                mode=FIXED, kappas=SHORT_KAPPAS, base=base_params(-1.0), norms=("h1",)
            )

    def test_mode(self):
        with pytest.raises(ConfigError):
            RateStudyConfig(mode="both", kappas=SHORT_KAPPAS, base=base_params(-1.0))


class TestRun:
    def test_fixed_short_sweep(self):
        cfg = RateStudyConfig(mode=FIXED, kappas=SHORT_KAPPAS, base=base_params(-1.0))
        res = run_rate_study(cfg)
        assert len(res.rows) == 4
        assert all(row.failed is None for row in res.rows)
        for key in ("l2_value", "l2_derivative", "sup"):
            errs = [row.errors[key] for row in res.rows]
            assert all(e > 0.0 and np.isfinite(e) for e in errs)
            assert all(a > b for a, b in zip(errs, errs[1:]))  # monotone decrease
        assert 0.55 <= res.slopes["l2_value"][0] <= 0.8

    def test_singular_short_sweep_includes_layer_norm(self):
        cfg = RateStudyConfig(mode=SINGULAR, kappas=SHORT_KAPPAS, base=base_params(-0.1))
        res = run_rate_study(cfg)
        for row in res.rows:
            expect = row.errors["l2_value"] * row.kappa**-0.25
            assert row.errors["l2_value_y"] == pytest.approx(expect, rel=1e-12)
        assert res.limit is not None
        assert "l2_value_y" in res.slopes


class TestEmit:
    def test_artifact_files(self, tmp_path):
        cfg = RateStudyConfig(mode=SINGULAR, kappas=SHORT_KAPPAS, base=base_params(-0.1))
        res = run_rate_study(cfg)
        paths = emit_outputs(res, tmp_path / "out")
        names = sorted(p.name for p in paths)
        assert names == ["plot.gp", "profiles.csv", "rates.csv", "summary.json"]
        header = (tmp_path / "out" / "rates.csv").read_text().splitlines()[0]
        assert header.startswith("kappa,l2_derivative,l2_value,l2_value_y,sup")
        payload = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert set(payload) == {"mode", "slopes", "rows"}
        assert payload["mode"] == "singular"
        assert set(payload["slopes"]["sup"]) == {"value", "stderr"}
        prof = (tmp_path / "out" / "profiles.csv").read_text()
        assert "rho_bar,0," in prof
        assert "rho_kappa_y," in prof

    def test_outputs_deterministic(self, tmp_path):
        cfg = RateStudyConfig(mode=FIXED, kappas=SHORT_KAPPAS, base=base_params(-1.0))
        blobs = []
        for tag in ("a", "b"):
            res = run_rate_study(cfg)
            out = tmp_path / tag
            emit_outputs(res, out)
            blobs.append(b"".join((out / n).read_bytes() for n in
                                  ("rates.csv", "profiles.csv", "summary.json", "plot.gp")))
        assert blobs[0] == blobs[1]
