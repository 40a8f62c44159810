"""Rate-study harness: slope fitting, sweeps, and emitted artifacts."""

import io
import json
import tracemalloc

import numpy as np
import pytest

from nsk.cli import RunConfig
from nsk.errors import ConfigError
from nsk.kernel import ModelParams
from nsk.rates import (
    FIXED,
    FLOAT_FORMAT,
    SINGULAR,
    WRITE_BLOCK,
    emit_outputs,
    format_float,
    run_rate_study,
    write_rows,
)
from nsk.stationary import fit_line


def base_params(rho_b):
    return ModelParams(n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=rho_b, u_minus=0.0)


SHORT_KAPPAS = tuple(10.0 ** (-1.0 - 0.5 * k) for k in range(4))


class TestFit:
    def test_exact_power_law(self):
        kappas = np.geomspace(1e-1, 1e-4, 7)
        slope, stderr = fit_line(np.log(kappas), np.log(kappas))
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_known_slope_with_noise(self):
        rng = np.random.default_rng(4)
        kappas = np.geomspace(1e-1, 1e-5, 9)
        errs = 3.0 * kappas**0.75 * np.exp(rng.normal(0.0, 0.01, kappas.size))
        slope, stderr = fit_line(np.log(kappas), np.log(errs))
        assert slope == pytest.approx(0.75, abs=0.02)
        assert stderr > 0.0


def study(rho_b, mode, kappas=SHORT_KAPPAS, **options):
    return run_rate_study(RunConfig(model=base_params(rho_b), kappas=kappas, **options), mode)


class TestConfigValidation:
    def test_needs_four_kappas(self):
        with pytest.raises(ConfigError):
            study(-1.0, FIXED, kappas=(1e-1, 1e-2, 1e-3))

    def test_kappas_decreasing_positive(self):
        with pytest.raises(ConfigError):
            study(-1.0, FIXED, kappas=(1e-3, 1e-2, 1e-1, 1.0))
        with pytest.raises(ConfigError):
            study(-1.0, FIXED, kappas=(1e-1, 1e-2, -1e-3, 1e-4))


class TestRun:
    def test_fixed_short_sweep(self):
        res = study(-1.0, FIXED)
        assert len(res.rows) == 4
        assert all(row.failed is None for row in res.rows)
        for key in ("l2_value", "l2_derivative", "sup"):
            errs = [row.errors[key] for row in res.rows]
            assert all(e > 0.0 and np.isfinite(e) for e in errs)
            assert all(a > b for a, b in zip(errs, errs[1:]))  # monotone decrease
        assert 0.55 <= res.slopes["l2_value"]["value"] <= 0.8

    def test_singular_short_sweep_includes_layer_norm(self):
        res = study(-0.1, SINGULAR)
        for row in res.rows:
            expect = row.errors["l2_value"] * row.kappa**-0.25
            assert row.errors["l2_value_y"] == pytest.approx(expect, rel=1e-12)
        assert res.limit is not None
        assert "l2_value_y" in res.slopes


class TestEmit:
    def test_artifact_files(self, tmp_path):
        res = study(-0.1, SINGULAR)
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
        blobs = []
        for tag in ("a", "b"):
            res = study(-1.0, FIXED)
            out = tmp_path / tag
            emit_outputs(res, out)
            blobs.append(b"".join((out / n).read_bytes() for n in
                                  ("rates.csv", "profiles.csv", "summary.json", "plot.gp")))
        assert blobs[0] == blobs[1]

    def test_csv_rows_are_per_value_format_float(self, tmp_path):
        # the block writers print exactly what formatting each value on its own prints
        res = study(-0.1, SINGULAR)
        out = tmp_path / "out"
        emit_outputs(res, out)
        keys = sorted(res.rows[0].errors)
        rates = ["kappa," + ",".join(keys) + ",nodes,iterations"]
        for row in res.rows:
            cells = [format_float(row.kappa)] + [format_float(row.errors[k]) for k in keys]
            rates.append(",".join(cells + [str(row.nodes), str(row.iterations)]))
        assert (out / "rates.csv").read_text().splitlines() == rates
        profiles = ["series,kappa,x,value"]
        for kappa, nodes, rho in res.profiles:
            for series, xs in (("rho_kappa", nodes), ("rho_kappa_y", (nodes - 1.0) / np.sqrt(kappa))):
                profiles += [f"{series},{format_float(kappa)},{format_float(x)},{format_float(v)}"
                             for x, v in zip(xs, rho)]
        profiles += [f"rho_bar,0,{format_float(y)},{format_float(v)}"
                     for y, v in zip(res.limit.y_nodes, res.limit.rho_bar)]
        assert (out / "profiles.csv").read_text().splitlines() == profiles


def test_write_rows_is_format_float_per_value():
    values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
              -1.7976931348623157e308, 1.0, -3.0, 159.0, 1e16, 2.0**53 + 2.0, 0.1, 1.0 / 3.0, 1e-300]
    columns = [np.array(values), np.array(values[::-1]), np.roll(values, 5)]
    for prefix in ("", "rho_kappa,0.001,", "100%,"):
        fh = io.StringIO()
        write_rows(fh, prefix, columns)
        expect = [prefix + ",".join(format_float(v) for v in row) for row in zip(*columns)]
        assert fh.getvalue() == "".join(line + "\n" for line in expect)
    assert [format_float(v) for v in values] == [format(float(v), ".17g") for v in values]


class _Writes(io.StringIO):
    """A text buffer that keeps the size of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(text.count("\n"))
        return super().write(text)


def test_write_rows_blocks_change_no_byte():
    # 2,500 rows span three blocks; the reference formats every row with one template
    rng = np.random.default_rng(23)
    columns = [rng.standard_normal(2500) * 10.0 ** rng.integers(-300, 300, 2500), np.arange(2500.0)]
    prefix = "rho_kappa,5%s%%,"
    fh = _Writes()
    write_rows(fh, prefix, columns)
    table = np.column_stack(columns)
    line = prefix.replace("%", "%%") + ",".join([FLOAT_FORMAT] * table.shape[1]) + "\n"
    assert fh.getvalue() == line * table.shape[0] % tuple(table.ravel().tolist())
    assert fh.sizes == [WRITE_BLOCK, WRITE_BLOCK, 2500 - 2 * WRITE_BLOCK]


def test_emit_traced_memory(tmp_path):
    # the singular study of the benchmark: its 14,983-sample rho_bar series is written in blocks
    cfg = RunConfig(model=base_params(-0.1))
    res = run_rate_study(cfg, SINGULAR)
    assert res.limit.y_nodes.size == 14_983
    emit_outputs(res, tmp_path / "warm")  # first calls allocate caches of their own
    tracemalloc.start()
    try:
        emit_outputs(res, tmp_path / "out")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20
