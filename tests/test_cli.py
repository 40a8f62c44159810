"""CLI: config validation, subcommand behavior, exit codes, determinism."""

import dataclasses
import json
import math
import re
import signal
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsk.bessel import BesselOrder, bessel_i
import nsk.cli as cli_mod
import nsk.kernel as kernel_mod
from nsk.cli import RunConfig, main, parse_config
from nsk.errors import ConfigError
from nsk.grid import build_grid
from nsk.kernel import ModelParams, PressureLaw
from nsk.rates import RateRow, format_float
from nsk.stationary import solve_stationary

VALID = {
    "n": 3,
    "gamma": 1,
    "kappa": 0.01,
    "mu": 1,
    "rho_plus": 1,
    "rho_b": -1,
    "u_minus": 0,
}
MODEL = ModelParams(**VALID)
# gamma = 3, rho_b = -20: the solves at kappa = 1, 0.5, 0.3 stall and cannot converge in 400 iterations
UNCONVERGED = dict(VALID, gamma=3, kappa=1, rho_b=-20, kappas=[1, 0.5, 0.3, 0.2, 0.1])


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

    def test_unknown_key_named(self, tmp_path, capsys):
        for extra, key in (
            ({"viscosity": 2}, "viscosity"),
            ({"grid": {"spacing": 0.1}}, "grid.spacing"),
            # every rate study measures all three norms, and the node cap is a constant
            ({"norms": ["sup"]}, "norms"),
            ({"grid": {"max_nodes": 10000}}, "grid.max_nodes"),
        ):
            doc = dict(VALID, **extra)
            with pytest.raises(ConfigError, match=f"^unknown config key: {key}$"):
                parse_config(json.dumps(doc))
            assert main(["solve", "impermeable", "--config", write_config(tmp_path, doc)]) == 2
            assert capsys.readouterr().err == f"error: unknown config key: {key}\n"

    def test_config_keys_are_the_type_fields(self):
        # each settable value is a field of RunConfig or of its ModelParams, and no field is unsettable
        options = {f.name for f in dataclasses.fields(RunConfig)} - {"model"}
        assert options == {"tol", "max_iter", "kappas", *cli_mod._GRID_KEYS}
        assert set(cli_mod._MODEL_KEYS) == {f.name for f in dataclasses.fields(ModelParams)}

    def test_malformed_json_reports_position(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config('{"n": 3,,}')

    def test_grid_overrides(self):
        doc = dict(VALID, grid={"points_per_unit_alpha": 24, "R_max": 31.0, "growth": 1.1})
        cfg = parse_config(json.dumps(doc))
        assert cfg.points_per_unit_alpha == 24.0
        assert cfg.R_max == 31.0
        assert cfg.growth == 1.1

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "key",
        list(VALID)
        + ["tol", "max_iter", "kappas"]
        + ["grid." + k for k in ("points_per_unit_alpha", "R_max", "growth")],
    )
    def test_non_finite_number_exits_2(self, key, value, tmp_path, capsys):
        # json.loads accepts NaN and +-Infinity; each must end as a config error, not an
        # exception out of main (a traceback) or a solver failure
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
            assert main(argv + ["--config", str(path)]) == 2
            assert "must be finite" in capsys.readouterr().err

    def test_integer_keys(self):
        doc = dict(VALID, n=3.0, max_iter=7.0)
        cfg = parse_config(json.dumps(doc))
        assert [cfg.model.n, cfg.max_iter] == [3, 7]
        assert all(type(v) is int for v in (cfg.model.n, cfg.max_iter))
        assert dataclasses.replace(MODEL, n=np.int64(3)).n == 3  # a numpy integer is an integer
        for key, doc in (
            ("n", dict(VALID, n=2.5)),
            ("max_iter", dict(VALID, max_iter=1.5)),
        ):
            with pytest.raises(ConfigError, match=f"{key} must be an integer"):
                parse_config(json.dumps(doc))

    def test_rate_keys(self, tmp_path, capsys):
        cfg = parse_config(json.dumps(dict(VALID, kappas=[0.1, 0.01, 0.001, 0.0001])))
        assert cfg.kappas == (0.1, 0.01, 0.001, 0.0001)
        # the kappas rules run when the file is read, not only when a study sweeps them
        with pytest.raises(ConfigError, match="^need at least 4 kappa values for a slope fit$"):
            parse_config(json.dumps(dict(VALID, kappas=[0.1, 0.01])))
        argv = ["rate-study", "--mode", "fixed", "--out", str(tmp_path / "o"), "--config"]
        assert main(argv + [write_config(tmp_path, dict(VALID, kappas=[]))]) == 2
        assert "at least 4 kappa" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(lambda: RunConfig(MODEL, R_max=0.5), "grid.R_max must exceed 1", id="RunConfig-R_max"),
            pytest.param(
                lambda: dataclasses.replace(RunConfig(MODEL), kappas=(0.1, 0.01)),
                "need at least 4 kappa values for a slope fit", id="replace-kappas",
            ),
            pytest.param(
                lambda: build_grid(1.0, 41.0, points_per_unit_alpha=0.0),
                "grid.points_per_unit_alpha must be positive", id="build_grid-points_per_unit_alpha",
            ),
            pytest.param(
                lambda: build_grid(1.0, 41.0, growth=5.0), "grid.growth must be > 1 and < 2", id="build_grid-growth"
            ),
            pytest.param(lambda: build_grid(1.0, 0.5), "grid.R_max must exceed 1", id="build_grid-R_max"),
            pytest.param(lambda: RunConfig(MODEL, tol=math.nan), "tol must be positive", id="RunConfig-tol-nan"),
            *(
                pytest.param(
                    lambda tol=tol: solve_stationary(MODEL, build_grid(MODEL.alpha, 41.0), tol=tol),
                    "tol must be positive", id=f"solve_stationary-tol-{tol}",
                )
                for tol in (math.nan, 0.0, -1.0)
            ),
            pytest.param(
                lambda: solve_stationary(MODEL, build_grid(MODEL.alpha, 41.0), max_iter=0),
                "max_iter must be at least 1", id="solve_stationary-max_iter-0",
            ),
            # max_iter counts sweeps: 2.5, NaN and inf were a TypeError from range(), and an
            # integral float is refused as well, since the CLI turns integral numbers into ints
            *(
                pytest.param(
                    lambda max_iter=max_iter: solve_stationary(MODEL, build_grid(MODEL.alpha, 41.0), max_iter=max_iter),
                    "max_iter must be an integer", id=f"solve_stationary-max_iter-{max_iter}",
                )
                for max_iter in (2.5, math.nan, math.inf, 3.0)
            ),
            # a non-integer n constructed and then failed in the Bessel order; 3.0 is refused too
            *(
                pytest.param(
                    lambda n=n: dataclasses.replace(MODEL, n=n), "n must be an integer", id=f"ModelParams-n-{n}"
                )
                for n in (2.5, 3.0, np.float64(3.0))
            ),
        ],
    )
    def test_the_library_keeps_every_refusal(self, build, message):
        # the rules run where the CLI applies them and also for callers that skip the CLI
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build()


_KEYS = list(VALID) + ["tol", "max_iter", "grid", "kappas", "x"]
_GRID_KEYS = ["points_per_unit_alpha", "R_max", "growth", "x"]
_NUMBERS = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, 2, 3, -1, 0.5, 1e-10, 1e300]),
)
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS + _GRID_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
_VALUE = _NUMBERS | _JSON | st.lists(_NUMBERS, max_size=5) | st.dictionaries(
    st.sampled_from(_GRID_KEYS), _NUMBERS, max_size=4
)


@st.composite
def _config_documents(draw):
    # mostly near-valid objects, so that the checks after the model keys are reached
    kind = draw(st.sampled_from(["any", "model", "valid+option", "valid+option"]))
    if kind == "any":
        return draw(_JSON)
    if kind == "model":
        return {k: draw(_NUMBERS) for k in VALID}
    options = st.sampled_from(["tol", "max_iter", "grid", "kappas"])
    return dict(VALID, **draw(st.dictionaries(options, _VALUE, min_size=1, max_size=2)))


class TestConfigProperty:
    @settings(max_examples=300, deadline=None)
    @given(_config_documents())
    def test_any_json_parses_or_raises_config_error(self, doc):
        try:
            cfg = parse_config(json.dumps(doc))
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)


@pytest.fixture
def deadline():
    """Fail, rather than stall the suite, if the test takes more than 5 s."""

    def expire(signum, frame):
        raise TimeoutError("no answer within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# argv up to the flag under test; "@" is replaced by the path of a VALID config
_FLAG_ARGV = {
    "--x": ["bessel", "--nu", "1/2"],
    "--r": ["kernel", "--config", "@", "--s", "2"],
    "--s": ["kernel", "--config", "@", "--r", "2"],
    "--gamma": ["limit-profile", "--rho-plus", "1", "--rho-b0", "-0.1"],
    "--rho-plus": ["limit-profile", "--gamma", "2", "--rho-b0", "-0.1"],
    "--rho-b0": ["limit-profile", "--gamma", "2", "--rho-plus", "1"],
    "--y-max": ["limit-profile", "--gamma", "2", "--rho-plus", "1", "--rho-b0", "-0.1"],
    "--tol": ["verify", "impermeable", "--config", "@"],
}
_MALFORMED = [
    pytest.param(_FLAG_ARGV[flag] + [f"{flag}={v}"], {}, f"{flag} must be finite", id=f"{flag}={v}")
    for flag in _FLAG_ARGV
    for v in ("nan", "inf", "-inf")
] + [
    pytest.param(_FLAG_ARGV["--y-max"] + ["--y-max=0"], {}, "y_max must be positive", id="--y-max=0"),
    pytest.param(_FLAG_ARGV["--tol"] + ["--tol=0"], {}, "tol must be positive", id="--tol=0"),
    pytest.param(_FLAG_ARGV["--tol"] + ["--tol=-1"], {}, "tol must be positive", id="--tol=-1"),
    pytest.param(["bessel", "--x", "1", "--nu", "abc"], {}, "--nu must be", id="--nu=abc"),
    pytest.param(["bessel", "--x", "1", "--nu", "inf"], {}, "--nu must be", id="--nu=inf"),
    pytest.param(
        ["solve", "impermeable", "--config", "@"], {"max_iter": 1.5}, "max_iter must be an integer",
        id="max_iter=1.5",
    ),
    pytest.param(["solve", "impermeable", "--config", "@"], {"n": 2.5}, "error: n must be an integer\n", id="n=2.5"),
    pytest.param(
        ["solve", "inflow", "--config", "@"], {"u_minus": 1e300}, "source term", id="u_minus=1e300"
    ),
    pytest.param(
        # a Simpson panel's first weight is <= 0 once its spacing ratio reaches 2
        ["solve", "impermeable", "--config", "@"], {"grid": {"growth": 2}}, "growth must be > 1 and < 2",
        id="growth=2",
    ),
] + [
    # the config gate refuses growth for every subcommand that reads a config, whether or
    # not it builds its grid from it
    pytest.param(argv + ["--config", "@"], {"grid": {"growth": growth}}, "growth must be > 1 and < 2",
                 id=f"{argv[0]}-growth={growth}")
    for argv in (
        ["rate-study", "--mode", "fixed", "--out", "o"],
        ["verify", "impermeable"],
        ["kernel", "--r", "2", "--s", "1"],
    )
    for growth in (5, 1)
] + [
    pytest.param(
        ["kernel", "--config", "@", "--r", "1e308", "--s", "1"], {}, "alpha * r is beyond the double range",
        id="--r=1e308",
    ),
    pytest.param(
        ["solve", "impermeable", "--config", "@"], {"n": 1000000, "kappa": 0.1, "rho_b": -0.1},
        "scaled K_nu is not finite", id="n=1e6",
    ),
    pytest.param(
        # K_150(1) scaled is 7.4e305, finite; it is K_151 that overflows
        ["solve", "impermeable", "--config", "@"], {"n": 302, "kappa": 1.0, "rho_plus": 1.0},
        "scaled K_{nu+1} is not finite", id="n=302",
    ),
    pytest.param(
        ["solve", "inflow", "--config", "@"], {"n": 190, "kappa": 0.1, "rho_b": -0.01, "u_minus": 0.01},
        "r**189 (n = 190) is not finite", id="inflow-n=190",
    ),
    pytest.param(
        ["solve", "impermeable", "--config", "@"], {"n": 250, "kappa": 0.1, "rho_b": -0.01},
        "r**249 (n = 250) is not finite", id="impermeable-n=250",
    ),
    pytest.param(
        ["rate-study", "--mode", "both", "--out", "o", "--config", "@"], {}, "invalid choice: 'both'",
        id="--mode=both",
    ),
    pytest.param(
        _FLAG_ARGV["--gamma"] + ["--gamma=1e300"], {}, "within the 1e-13 bisection tolerance",
        id="--gamma=1e300",
    ),
    pytest.param(
        _FLAG_ARGV["--rho-plus"] + ["--rho-plus=1e300"], {}, "rho_plus**gamma is not finite",
        id="--rho-plus=1e300",
    ),
    pytest.param(
        ["limit-profile", "--gamma", "1e3", "--rho-plus", "2", "--rho-b0=-0.1"], {},
        "within the 1e-13 bisection tolerance", id="--gamma=1e3",
    ),
    pytest.param(
        ["limit-profile", "--gamma", "1", "--rho-plus", "1", "--rho-b0=1.5"], {},
        "rho_b0 = 1.5 is not below sqrt(2 rho_plus**gamma) = 1.41421", id="--rho-b0=1.5",
    ),
    pytest.param(
        # rho_- - rho_plus is about 2e-13: doubles next to rho_plus = 2 are 4.4e-16 apart
        ["limit-profile", "--gamma", "1e3", "--rho-plus", "2", "--rho-b0=-1e139"], {},
        "rho_- - rho_plus = 1.936e-13 is not resolved to 1e-05", id="--rho-b0=-1e139",
    ),
    pytest.param(
        # rho_- is about 4e-15, below the bisection tolerance
        ["limit-profile", "--gamma", "1", "--rho-plus", "1", "--rho-b0=1.414213562373"], {},
        "bisection tolerance of the vacuum", id="--rho-b0=1.414213562373",
    ),
    pytest.param(
        ["limit-profile", "--gamma", "1", "--rho-plus", "1", "--rho-b0=-1e300"], {},
        "2 W(rho_-) overflows", id="--rho-b0=-1e300",
    ),
    pytest.param(
        ["solve", "impermeable", "--config", "@"], {"grid": {"points_per_unit_alpha": 0}},
        "grid.points_per_unit_alpha must be positive", id="points_per_unit_alpha=0",
    ),
    pytest.param(
        ["solve", "impermeable", "--config", "@"], {"grid": {"R_max": 1}}, "R_max must exceed 1", id="R_max=1",
    ),
    pytest.param(
        # 3.29e199**2 overflows, 1e-120**5 underflows: no numpy warning precedes the error
        ["limit-profile", "--gamma", "2", "--rho-plus", "3.29e199", "--rho-b0=0.5"], {},
        "rho_plus**gamma is not finite", id="pressure-overflow",
    ),
    pytest.param(
        ["limit-profile", "--gamma", "5", "--rho-plus", "1e-120", "--rho-b0=-0.1"], {},
        "rho_plus**gamma underflows to 0", id="pressure-underflow",
    ),
    pytest.param(
        # 1.5**1745 is finite, but W's Taylor branch overflows next to rho_plus
        ["limit-profile", "--gamma", "1745", "--rho-plus", "1.5", "--rho-b0=-0.1"], {},
        "rho_- lies within the 1e-13 bisection tolerance of rho_plus", id="--gamma=1745",
    ),
    pytest.param(
        # the transport and tail terms divide by rho**4, which is 0 near rho_plus
        ["solve", "outflow", "--config", "@"],
        {"n": 9, "gamma": 2, "kappa": 0.1, "mu": 0, "rho_plus": 1e-120, "rho_b": -0.02, "u_minus": -0.05},
        "rho_plus**4 underflows to 0", id="outflow-rho_plus=1e-120",
    ),
    pytest.param(
        # the kinetic ratio rho(1)**2/rho**2 would be inf/inf
        ["solve", "outflow", "--config", "@"],
        {"gamma": 2, "kappa": 1, "rho_plus": 1e160, "rho_b": -0.02, "u_minus": -0.05},
        "rho_plus**2 overflows", id="outflow-rho_plus=1e160",
    ),
    pytest.param(
        ["solve", "inflow", "--config", "@"],
        {"gamma": 2, "kappa": 1, "rho_plus": 1e250, "rho_b": -0.02, "u_minus": 0.05},
        "rho_plus**2 overflows", id="inflow-rho_plus=1e250",
    ),
    pytest.param(
        # alpha = 1e15: the wall spacing 1e-16 is below half the double spacing at r = 1
        ["solve", "impermeable", "--config", "@"], {"kappa": 1e-30, "rho_b": -0.1},
        "the wall spacing h0 = 1e-16 at alpha = 1e+15 is below half the double spacing", id="impermeable-kappa=1e-30",
    ),
    pytest.param(
        ["solve", "inflow", "--config", "@"], {"kappa": 1e-30, "rho_b": -0.02, "u_minus": 0.05},
        "the wall spacing h0 = 1e-16 at alpha = 1e+15 is below half the double spacing", id="inflow-kappa=1e-30",
    ),
    pytest.param(
        ["rate-study", "--mode", "fixed", "--out", "o", "--config", "@"],
        {"rho_b": -0.1, "kappas": [1, 0.5, 0.1, 1e-300]},
        "the wall spacing h0 = 6.25e-152 at alpha = 1e+150 is below half the double spacing",
        id="rate-study-kappa=1e-300",
    ),
    pytest.param(
        # alpha = 5.5e-108: the kernel grid's span is refused before the oracle starts
        ["verify", "impermeable", "--config", "@"],
        {"n": 150, "kappa": 1e-3, "rho_plus": 3.35e217, "rho_b": -4.78e237},
        "grid would exceed 2000000 nodes", id="verify-span",
    ),
    pytest.param(
        # y(rho_+ + 1e-8) is about 3e17 at rho_- = 6e37: 3.5e9 samples below y_max
        ["limit-profile", "--gamma", "1", "--rho-plus", "2", "--rho-b0=-1e20", "--y-max", "1e7"], {},
        "samples below y_max", id="--y-max=1e7",
    ),
] + [
    # alpha = sqrt(h'(rho_plus)/kappa) beyond the doubles: h' overflows, h' underflows, or kappa is subnormal
    pytest.param(argv + ["--config", "@"], dict(extra, rho_b=-0.02),
                 f"error: alpha = sqrt(h'(rho_plus)/kappa) = {alpha} is outside the double range\n",
                 id=f"{argv[0]}-{tag}")
    for argv in (["solve", "impermeable"], ["verify", "impermeable"], ["kernel", "--r", "2", "--s", "1"])
    for tag, extra, alpha in (
        ("kappa=5e-324", {"kappa": 5e-324}, "inf"),
        ("h'=0", {"gamma": 5, "rho_plus": 1e-120}, "0.0"),
        ("h'=inf", {"gamma": 30, "rho_plus": 1e20}, "inf"),
    )
] + [
    # the limit profile's tail rate sqrt(h'(rho_plus)) has the same root; 1.5**1745 is finite, h' is not
    pytest.param(argv, {"gamma": 5, "rho_plus": 1e-120, "rho_b": 0},
                 f"error: the tail rate sqrt(h'(rho_plus)) = {rate} is outside the double range\n",
                 id=f"{argv[0]}-tail-rate={rate}")
    for argv, rate in (
        (["limit-profile", "--gamma", "5", "--rho-plus", "1e-120", "--rho-b0", "0"], "0.0"),
        (["limit-profile", "--gamma", "1745", "--rho-plus", "1.5", "--rho-b0", "0"], "inf"),
        (["rate-study", "--mode", "singular", "--out", "o", "--config", "@"], "0.0"),
    )
]

# every rule on a config key runs when the file is read, so each subcommand that reads a
# config refuses the same file with the same line, whether or not it uses the key
_CONFIG_READERS = {
    "solve": ["solve", "impermeable"],
    "rate-study": ["rate-study", "--mode", "fixed", "--out", "o"],
    "verify": ["verify", "impermeable"],
    "kernel": ["kernel", "--r", "2", "--s", "1"],
}
_BAD_KEYS = [
    pytest.param(extra, message, id=tag)
    for tag, extra, message in (
        ("R_max=0.5", {"grid": {"R_max": 0.5}}, "grid.R_max must exceed 1"),
        ("R_max=1", {"grid": {"R_max": 1}}, "grid.R_max must exceed 1"),
        ("growth=5", {"grid": {"growth": 5}}, "grid.growth must be > 1 and < 2"),
        ("points_per_unit_alpha=0", {"grid": {"points_per_unit_alpha": 0}}, "grid.points_per_unit_alpha must be positive"),
        ("kappas=[-1]", {"kappas": [-1]}, "need at least 4 kappa values for a slope fit"),
        ("kappas=[0.1,0.01]", {"kappas": [0.1, 0.01]}, "need at least 4 kappa values for a slope fit"),
        ("kappas-rising", {"kappas": [0.1, 0.01, 0.001, 0.01]}, "kappa values must be strictly decreasing"),
        ("kappas-negative", {"kappas": [0.1, 0.01, 0.001, -1]}, "kappa values must be positive"),
    )
]

_LARGE_ARGUMENTS = [
    pytest.param(_FLAG_ARGV["--x"] + ["--x=1e10", "--scaled"], {}, id="--x=1e10"),
    pytest.param(_FLAG_ARGV["--r"] + ["--r=1e9"], {}, id="--r=1e9"),
    pytest.param(["solve", "impermeable", "--config", "@"], {"kappa": 1e-17, "rho_b": -0.1}, id="kappa=1e-17"),
]

# limit profiles whose wall slope is many orders of magnitude beyond the tail rate
_STEEP_PROFILES = [
    pytest.param(gamma, rho_b0, id=f"gamma={gamma}-rho_b0={rho_b0}")
    for gamma, rho_b0 in (("1e3", "-1e150"), ("300", "-1e150"), ("300", "-1e60"), ("1", "-1e20"))
]


class TestDispatch:
    @pytest.mark.parametrize("argv, extra, message", _MALFORMED)
    def test_malformed_input_exits_2(self, argv, extra, message, tmp_path, capsys, deadline):
        # every malformed flag or key ends in exit 2 naming it: no traceback, no hang,
        # no NaN printed with exit 0
        cfg = write_config(tmp_path, dict(VALID, **extra))
        assert main([cfg if a == "@" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", list(_CONFIG_READERS))
    @pytest.mark.parametrize("extra, message", _BAD_KEYS)
    def test_every_config_reader_refuses_the_same_file(self, command, extra, message, tmp_path, capsys):
        argv = [str(tmp_path / "o") if a == "o" else a for a in _CONFIG_READERS[command]]
        assert main(argv + ["--config", write_config(tmp_path, dict(VALID, **extra))]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("flag", list(_FLAG_ARGV))
    def test_float_flag_takes_a_spaced_exponent(self, flag, tmp_path, capsys):
        # argparse's negative-number pattern has no exponent: "--flag -1e-3" must still read
        # -1e-3 as the flag's value, with the result of "--flag=-1e-3"
        cfg = write_config(tmp_path, VALID)
        argv = [cfg if a == "@" else a for a in _FLAG_ARGV[flag]]
        results = []
        for tail in ([flag, "-1e-3"], [f"{flag}=-1e-3"]):
            code = main(argv + tail)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        assert results[0] == results[1]
        assert "expected one argument" not in results[0][2]

    @pytest.mark.parametrize("argv, extra", _LARGE_ARGUMENTS)
    def test_large_arguments_resolve(self, argv, extra, tmp_path, capsys, deadline):
        # Bessel arguments of 1e9 and more (alpha r >= 3.2e8 at kappa = 1e-17) give verified results
        cfg = write_config(tmp_path, dict(VALID, **extra))
        assert main([cfg if a == "@" else a for a in argv]) == 0
        out = capsys.readouterr().out
        if argv[0] == "bessel":
            with mp.workdps(40):  # e^{-x} I_{1/2}(x) at x = 1e10
                expected = float(-mp.expm1(-2 * mp.mpf(10) ** 10) / mp.sqrt(2 * mp.pi * mp.mpf(10) ** 10))
            assert float(out) == pytest.approx(expected, rel=4e-15)
        elif argv[0] == "kernel":
            # G(1e9, 2) at alpha = 10 is about exp(-1e10): zero in doubles
            assert json.loads(out) == {"G": 0.0, "dG_dr": 0.0}
        else:
            alpha = 1e-17**-0.5
            doc = json.loads(out)
            assert doc["converged"] and doc["ode_residual_sup"] <= 1e-15
            assert doc["sup_norm"] == pytest.approx(0.1 / alpha, rel=1e-8)
            assert doc["decay_rate_fit"] == pytest.approx(alpha, rel=1e-8)

    @pytest.mark.parametrize("text", ["3/2", "1.5", " 3/2 ", "6/4", "15e-1"])
    def test_bessel_order_forms(self, text, capsys):
        assert main(["bessel", "--nu", text, "--x", "2.0"]) == 0
        assert float(capsys.readouterr().out) == bessel_i(BesselOrder(3), 2.0)

    @pytest.mark.parametrize("text", ["3/4", "-1/2", "1/0", "1.5/1", "nan", "1e400", "1e308"])
    def test_bessel_order_refused(self, text, capsys):
        assert main(["bessel", f"--nu={text}", "--x", "2.0"]) == 2
        assert "--nu must be" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "argument command: invalid choice: 'frobnicate' (choose from 'bessel'," in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err == "error: the following arguments are required: command\n"

    def test_help_lists_the_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("bessel", "kernel", "solve", "limit-profile", "rate-study", "verify"):
            assert f"    {name} " in out

    def test_float_value_joins_a_unique_prefix(self, capsys):
        argv = ["limit-profile", "--gamma", "1", "--rho-plus", "1"]
        results = []
        for tail in (["--rho-b", "-1e-3"], ["--rho-b0=-1e-3"]):
            results.append((main(argv + tail), capsys.readouterr()))
        assert results[0] == results[1] and results[0][0] == 0
        assert main(argv + ["--rho", "-1e-3"]) == 2
        assert "ambiguous option: --rho=-1e-3" in capsys.readouterr().err

    def test_bessel_value(self, capsys):
        assert main(["bessel", "--nu", "1/2", "--x", "1.0", "--kind", "k"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-13)

    def test_bessel_scaled_and_integer_order(self, capsys):
        assert main(["bessel", "--nu", "2", "--x", "700", "--kind", "k", "--scaled"]) == 0
        out = float(capsys.readouterr().out)
        # asymptotically K_2(x) e^x ~ sqrt(pi/(2x)) (1 + 15/(8x) + ...)
        lead = math.sqrt(math.pi / 1400.0)
        assert out == pytest.approx(lead * (1.0 + 15.0 / 5600.0), rel=1e-5)
        assert main(["bessel", "--nu", "1", "--x", "2.5"]) == 0
        out = float(capsys.readouterr().out)
        assert out == pytest.approx(bessel_i(BesselOrder(2), 2.5), rel=1e-13)

    def test_bessel_bad_order(self, capsys):
        assert main(["bessel", "--nu", "0.3", "--x", "1.0"]) == 2

    def test_kernel_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(VALID, kappa=1.0))
        assert main(["kernel", "--config", cfg, "--r", "2.0", "--s", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["G"] == pytest.approx(-math.exp(-1.0) / 4.0, rel=1e-12)
        assert doc["dG_dr"] == pytest.approx(3.0 * math.exp(-1.0) / 8.0, rel=1e-12)
        assert main(["kernel", "--config", cfg, "--r", "2.0", "--s", "2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dG_dr_right"] - doc["dG_dr_left"] == pytest.approx(0.25, rel=1e-10)

    @pytest.mark.parametrize("r, s", [("2", "1"), ("2", "2"), ("1", "1")])
    def test_kernel_makes_one_bessel_evaluation(self, tmp_path, capsys, monkeypatch, r, s):
        # G and both one-sided derivatives come from one factor table over [1, r, s]
        real = kernel_mod.bessel_ik_scaled
        sizes = []

        def counted(order, x):
            sizes.append(np.size(x))
            return real(order, x)

        monkeypatch.setattr(kernel_mod, "bessel_ik_scaled", counted)
        cfg = write_config(tmp_path, VALID)
        assert cli_mod.main(["kernel", "--config", cfg, "--r", r, "--s", s]) == 0
        assert sizes == [3]

    def test_solve_impermeable_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VALID)
        out = tmp_path / "sol.csv"
        assert main(["solve", "impermeable", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,rho,rho_r,phi,residual"
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[2]) == pytest.approx(-1.0, abs=1e-9)  # rho_r(1) = rho_b
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged"] is True

    def test_solve_impermeable_zero_wall_data(self, tmp_path, capsys):
        # rho_b = 0: phi vanishes, so no decay rate can be fitted and the summary says null
        cfg = write_config(tmp_path, dict(VALID, rho_b=0))
        assert main(["solve", "impermeable", "--config", cfg]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["decay_rate_fit"] is None and summary["sup_norm"] == 0.0

    def test_solve_regime_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VALID)
        assert main(["solve", "inflow", "--config", cfg]) == 2
        assert "inflow requires u_minus > 0" in capsys.readouterr().err
        assert main(["solve", "outflow", "--config", cfg]) == 2
        assert "outflow requires u_minus < 0" in capsys.readouterr().err
        cfg2 = write_config(tmp_path, dict(VALID, u_minus=0.05), "c2.json")
        assert main(["solve", "impermeable", "--config", cfg2]) == 2
        assert "impermeable requires u_minus = 0" in capsys.readouterr().err
        assert main(["verify", "impermeable", "--config", cfg2]) == 2
        assert "requires u_minus = 0" in capsys.readouterr().err
        for mode in ("fixed", "singular"):
            argv = ["rate-study", "--mode", mode, "--config", cfg2, "--out", str(tmp_path / "o")]
            assert main(argv) == 2
            assert "covers the impermeable wall only: it requires u_minus = 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_solve_inflow_summary(self, tmp_path, capsys):
        doc = dict(VALID, kappa=1.0, u_minus=0.05, rho_b=0.0)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sol.csv"
        assert main(["solve", "inflow", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "rho_minus" in summary and "weighted_sup_value" in summary
        lines = out.read_text().splitlines()
        assert lines[0] == "r,rho,rho_r,u,phi,residual"
        # every field is in its 17-digit round-trip form
        for line in lines[1:]:
            assert ",".join(format_float(float(v)) for v in line.split(",")) == line

    def test_flow_summary_with_unrepresentable_weight(self, tmp_path, capsys, deadline):
        # the solve converges; r^298 and r^299 overflow, so the weighted sup-norms are null
        doc = dict(VALID, n=150, kappa=0.1, rho_b=-0.01, u_minus=0.01)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sol.csv"
        assert main(["solve", "inflow", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["weighted_sup_value"] is None and summary["weighted_sup_derivative"] is None
        assert summary["converged"] is True and math.isfinite(summary["rho_minus"])
        lines = out.read_text().splitlines()
        assert lines[0] == "r,rho,rho_r,u,phi,residual" and len(lines) > 3
        assert all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(","))

    @pytest.mark.parametrize("gamma, rho_b0", _STEEP_PROFILES)
    def test_limit_profile_steep_wall(self, gamma, rho_b0, tmp_path, capsys, deadline):
        # wall slopes up to 1e150 at tail rates up to 5e151, and rho_- = 6e37 at gamma = 1:
        # every sample is finite and on the stable manifold, and the wall slope is the requested one
        out = tmp_path / "lp.csv"
        argv = ["limit-profile", "--gamma", gamma, "--rho-plus", "2", f"--rho-b0={rho_b0}", "--out", str(out)]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rho_minus"] > 2.0 and math.isfinite(doc["rho_minus"])
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
        y, rho, rho_y = (np.array(col) for col in zip(*rows))
        assert np.all(np.isfinite(rows)) and np.all(np.diff(y) > 0.0)
        assert rho[0] == doc["rho_minus"] and np.all(np.diff(rho) <= 0.0) and np.all(rho >= 2.0)
        assert rho_y[0] == pytest.approx(float(rho_b0), rel=1e-6)
        energy = 0.5 * rho_y**2 - PressureLaw(float(gamma), 2.0).w(rho)
        assert np.max(np.abs(energy)) <= 1e-12 * float(rho_b0) ** 2

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        # boundary slope large enough to drive the density negative
        doc = dict(VALID, kappa=1.0, rho_b=5.0)
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "impermeable", "--config", cfg]) == 3
        assert "solver error" in capsys.readouterr().err

    def test_unconverged_solve_writes_no_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(VALID, max_iter=1))
        out = tmp_path / "sol.csv"
        assert main(["solve", "impermeable", "--config", cfg, "--out", str(out)]) == 3
        assert "no convergence in 1 iterations" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_iterate_exits_3(self, tmp_path, capsys):
        # the transport and tail terms overflow for this mu: the second update is NaN
        # and must stop the iteration at once, without a warning, instead of running
        # max_iter sweeps on NaN.  At kappa = 0.01 the first iterate already goes
        # negative far out, where alpha h reaches 5 and the grid does not resolve the
        # forcing's e^{-alpha r} part, so the positivity check stops the loop first
        cfg = write_config(tmp_path, dict(VALID, kappa=0.3, mu=1e300, u_minus=0.05))
        assert main(["solve", "inflow", "--config", cfg]) == 3
        assert capsys.readouterr().err == "solver error: non-finite update at iteration 2\n"

    def test_huge_rho_plus_flow_passes_the_vacuum_gate(self, tmp_path, capsys):
        # 1e100**4 overflows, which a float power raises on: the rho_plus**4 gate must not.
        # At gamma = 2 the remainder is 0 to roundoff and alpha does not depend on rho_plus,
        # so the solve converges; the overflowed rho**4 of the residual divides to 0, silently
        doc = dict(VALID, gamma=2.0, kappa=1.0, mu=1.0, rho_plus=1e100, rho_b=-0.02, u_minus=-0.05)
        assert main(["solve", "outflow", "--config", write_config(tmp_path, doc)]) == 0
        out, err = capsys.readouterr()
        summary = json.loads(out)
        assert summary["converged"] and err == ""
        assert summary["mass_flux"] == pytest.approx(summary["rho_minus"] * doc["u_minus"], rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_tiny_kappa_flow_solve_ends_with_a_verdict(self, tmp_path, capsys):
        # alpha ~ 3e4: the flow grid once needed more than 2e6 nodes (exit 2); now it is a
        # few hundred, and the solve either converges or stops with a typed solver error
        cfg = write_config(tmp_path, dict(VALID, kappa=1e-9, rho_b=-0.02, u_minus=0.05))
        start = time.perf_counter()
        code = main(["solve", "inflow", "--config", cfg])
        assert time.perf_counter() - start < 5.0
        out, err = capsys.readouterr()
        if code == 0:
            doc = json.loads(out)
            assert doc["converged"] is True and math.isfinite(doc["ode_residual_sup"])
        else:
            assert code == 3 and err.startswith("solver error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_tiny_kappa_wall_solve_is_warning_free(self, tmp_path, capsys):
        # alpha ~ 3e7: the decay envelope constant leaves the double range quietly
        cfg = write_config(tmp_path, dict(VALID, kappa=1e-15, rho_b=-0.1))
        assert main(["solve", "impermeable", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True

    @pytest.mark.parametrize("rho_b, solved", [(20.0, 3), (60.0, 1)])
    def test_rate_study_too_few_rows_exits_3(self, rho_b, solved, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(VALID, kappa=1.0, rho_b=rho_b))
        argv = ["rate-study", "--mode", "fixed", "--config", cfg, "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"only {solved} of 7 kappa rows solved" in err

    def test_rate_study_reports_failed_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(VALID, kappa=1.0, rho_b=8.0))
        argv = ["rate-study", "--mode", "fixed", "--config", cfg, "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "2 of 7 kappa rows failed" in captured.err
        slopes = json.loads(captured.out)
        assert sorted(slopes) == ["l2_derivative", "l2_value", "sup"]
        # summary.json is the RateStudyResult: rows are RateRow fields, and stdout prints its slopes
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        fields = {f.name for f in dataclasses.fields(RateRow)}
        assert all(set(row) == fields for row in summary["rows"])
        assert sum(row["failed"] is not None for row in summary["rows"]) == 2
        assert summary["slopes"] == slopes

    def test_rate_study_unconverged_rows_fail(self, tmp_path, capsys):
        # the three unconverged rows fail instead of being fitted
        cfg = write_config(tmp_path, UNCONVERGED)
        argv = ["rate-study", "--mode", "fixed", "--config", cfg, "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        assert "only 2 of 5 kappa rows solved" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, rho_b", [("fixed", 0.0), ("singular", 0.0), ("fixed", -1e-300)])
    def test_rate_study_zero_error_exits_2(self, mode, rho_b, tmp_path, capsys):
        # log 0 has no slope: the study stops at the first row whose error is not positive
        cfg = write_config(tmp_path, dict(VALID, kappa=1.0, rho_b=rho_b))
        out = tmp_path / "o"
        assert main(["rate-study", "--mode", mode, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "the l2_value error at kappa = 0.1 is 0.0" in captured.err

    def test_rate_study_resolution_floor(self, tmp_path, capsys):
        # a coarser grid, a lower max_iter and R_max are all overridden by the study;
        # its rows take at most 8 sweeps, so max_iter = 1 is what shows the max_iter floor
        coarse = {"points_per_unit_alpha": 8, "growth": 1.2, "R_max": 30}
        configs = {"default": {}, "coarse": {"max_iter": 50, "grid": coarse}, "one": {"max_iter": 1}}
        blobs = []
        for tag, extra in configs.items():
            cfg = write_config(tmp_path, dict(VALID, kappa=1.0, **extra), f"{tag}.json")
            out = tmp_path / tag
            assert main(["rate-study", "--mode", "fixed", "--config", cfg, "--out", str(out)]) == 0
            names = ("rates.csv", "profiles.csv", "summary.json", "plot.gp")
            blobs.append([capsys.readouterr().out] + [(out / n).read_bytes() for n in names])
        assert blobs[0] == blobs[1] == blobs[2]

    def test_verify_unconverged_solve_exits_3(self, tmp_path, capsys):
        # a solver that ran out of iterations is a solver failure, not a failed comparison
        cfg = write_config(tmp_path, UNCONVERGED)
        assert main(["verify", "impermeable", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot reach 1.0e-12 within 400 iterations" in captured.err

    def test_limit_profile(self, tmp_path, capsys):
        out = tmp_path / "lp.csv"
        rc = main(
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
        assert main(["rate-study", "--mode", "fixed", "--config", cfg, "--out", str(out)]) == 0
        for name in ("rates.csv", "profiles.csv", "summary.json", "plot.gp"):
            assert (out / name).exists()
        slopes = json.loads(capsys.readouterr().out)
        assert "l2_value" in slopes

    def test_rate_study_ignores_unrepresentable_config_kappa(self, tmp_path, capsys):
        # alpha at kappa = 5e-324 is beyond the doubles, but the study solves at its own kappas
        doc = dict(VALID, kappa=5e-324, kappas=[10.0 ** (-1.0 - 0.5 * k) for k in range(4)])
        cfg = write_config(tmp_path, doc)
        assert main(["rate-study", "--mode", "fixed", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "l2_value" in json.loads(capsys.readouterr().out)

    def test_failed_verify_exits_1(self, tmp_path, capsys):
        # the benchmark's n = 2 case measures a difference above 1e-15 and below 1e-8: the
        # same stdout but for "pass", and only --tol decides the exit code
        cfg = write_config(tmp_path, dict(VALID, n=2, gamma=1.4, kappa=0.3, rho_b=-0.05))
        argv = ["verify", "impermeable", "--config", cfg, "--tol"]
        assert main(argv + ["1e-8"]) == 0
        sup_diff = json.loads(capsys.readouterr().out)["sup_diff"]
        assert main(argv + ["1e-15"]) == 1
        assert capsys.readouterr() == (json.dumps({"sup_diff": sup_diff, "pass": False}) + "\n", "")

    def test_verify_impermeable(self, tmp_path, capsys):
        doc = dict(VALID, kappa=1.0, rho_b=-0.1)
        cfg = write_config(tmp_path, doc)
        assert main(["verify", "impermeable", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True and doc["sup_diff"] <= 1e-6

    def test_csv_outputs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, VALID)
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert main(["solve", "impermeable", "--config", cfg, "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_config_file(self, capsys):
        assert main(["solve", "impermeable", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize(
        "content, message",
        [
            pytest.param(b"\xff\xfe{}", "cannot read config file", id="not-utf-8"),
            pytest.param(b"[" * 100_000, "config is not valid JSON", id="nested-100000"),
        ],
    )
    def test_undecodable_config_exits_2(self, content, message, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(content)
        assert main(["solve", "impermeable", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}: ") and captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["solve", "impermeable", "--config", "@"], id="solve"),
            pytest.param(
                ["limit-profile", "--gamma", "2", "--rho-plus", "1", "--rho-b0", "-0.1"], id="limit-profile"
            ),
            pytest.param(["rate-study", "--mode", "fixed", "--config", "@"], id="rate-study"),
        ],
    )
    def test_unwritable_out_exits_2(self, argv, tmp_path, capsys):
        # --out under a regular file: no directory can be made there, nor a file opened
        cfg = write_config(tmp_path, dict(VALID, kappa=1.0))
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "out.csv")
        assert main([cfg if a == "@" else a for a in argv] + ["--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output: ") and out in captured.err


class TestGammaNearOne:
    # the pressure remainder and the oracle's enthalpy difference keep their digits as gamma -> 1,
    # so runs just above the isothermal law converge and land next to the run at gamma = 1
    SOLVES = {
        "impermeable": ({"kappa": 1e-2, "rho_b": -0.1, "u_minus": 0}, "sup_norm"),
        "inflow": ({"kappa": 3e-3, "rho_b": -0.02, "u_minus": 0.05}, "rho_minus"),
        "outflow": ({"kappa": 3e-3, "rho_b": -0.02, "u_minus": -0.05}, "rho_minus"),
    }

    @staticmethod
    def run(argv, doc, tmp_path, capsys):
        code = main(argv + ["--config", write_config(tmp_path, doc)])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        return json.loads(out)

    @pytest.mark.parametrize("k", [3, 6, 9])
    @pytest.mark.parametrize("regime", list(SOLVES))
    def test_solve_tracks_the_isothermal_run(self, regime, k, tmp_path, capsys):
        extra, key = self.SOLVES[regime]
        gamma = 1.0 + 10.0**-k
        at_one = self.run(["solve", regime], dict(VALID, **extra), tmp_path, capsys)
        near = self.run(["solve", regime], dict(VALID, gamma=gamma, **extra), tmp_path, capsys)
        assert abs(near[key] - at_one[key]) <= 1e-2 * (gamma - 1.0) + 1e-9

    @pytest.mark.parametrize("k", [3, 6, 9])
    def test_verify_passes(self, k, tmp_path, capsys):
        doc = dict(VALID, gamma=1.0 + 10.0**-k, **self.SOLVES["impermeable"][0])
        assert self.run(["verify", "impermeable", "--tol", "1e-8"], doc, tmp_path, capsys)["pass"]
