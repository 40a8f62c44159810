"""Run the nsk CLI once with a span around every call into each layer.

    python3 perfbench/traced_cli.py SPANS.json <nsk cli arguments...>

``src/`` must be on ``PYTHONPATH``.  Nothing inside the program changes:
each layer's public functions are wrapped under the names by which their
callers look them up (``from .operators import assemble_operators`` binds
the function into ``nsk.impermeable`` and ``nsk.inflow``, so both bindings
are replaced).  Spans are kept in memory and written to ``SPANS.json``
when the CLI returns; the exit code is the CLI's.

The current span lives in a ``ContextVar``, which makes the span stack
thread-local.  ``nsk.rates`` solves its kappa values on a thread pool, so
its executor is replaced by one that runs each task in a copy of the
submitting context: spans in the workers then name the rate study as
their parent instead of whatever span another thread has open.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time

_t0 = time.perf_counter()
import nsk.cli  # noqa: E402  (the import is itself measured)

IMPORT_S = time.perf_counter() - _t0

_current = contextvars.ContextVar("nsk_bench_span", default=None)
_ids = itertools.count(1)
_lock = threading.Lock()
_spans: list = []


def _arg(fn, name):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def _grid_bytes(fn):
    grid = _arg(fn, "grid")
    # dense A and Adr, float64: computed, not measured
    return lambda args, kwargs, result: 16 * grid(args, kwargs).size ** 2


def _fd_nodes(fn):
    count = _arg(fn, "node_count")
    return lambda args, kwargs, result: count(args, kwargs)


def _grid_nodes(fn):
    return lambda args, kwargs, result: result.size


def _solver_iterations(fn):
    return lambda args, kwargs, result: result[1].iterations


# span name -> (bindings that callers look up, optional count taken from the call)
SPANS = {
    "operators.weights": (["nsk.operators.split_weight_rows"], None),
    "operators.assemble": (
        ["nsk.impermeable.assemble_operators", "nsk.inflow.assemble_operators"],
        _grid_bytes,
    ),
    "inflow.solve": (["nsk.cli.solve_inflow_outflow"], None),
    "inflow.nonlinearity": (["nsk.inflow.nonlinearity_inflow"], None),
    "impermeable.solve": (
        ["nsk.cli.solve_impermeable", "nsk.rates.solve_impermeable", "nsk.oracle.solve_impermeable"],
        _solver_iterations,
    ),
    "impermeable.nonlinearity": (["nsk.impermeable.nonlinearity_impermeable"], None),
    "oracle.solve_fd": (["nsk.oracle.solve_fd"], _fd_nodes),
    "oracle.cross_validate": (["nsk.cli.cross_validate"], None),
    "limit.integrate_profile": (["nsk.cli.integrate_profile", "nsk.rates.integrate_profile"], None),
    "rates.study": (["nsk.rates.run_rate_study"], None),
    "rates.emit": (["nsk.rates.emit_outputs"], None),
    "grid.build_grid": (
        ["nsk.cli.build_grid", "nsk.rates.build_grid", "nsk.oracle.build_grid"],
        _grid_nodes,
    ),
    "kernel.lifting": (["nsk.impermeable.lifting_phi_b", "nsk.inflow.lifting_phi_b"], None),
    "residuals.residual": (
        [
            "nsk.cli.ode_residual_impermeable",
            "nsk.cli.ode_residual_inflow_outflow",
            "nsk.impermeable.ode_residual_impermeable",
            "nsk.inflow.ode_residual_inflow_outflow",
        ],
        None,
    ),
}


def _record(name, start, end, parent, sid, count=None):
    span = {"name": name, "id": sid, "parent": parent, "start": start, "end": end}
    if count is not None:
        span["count"] = count
    with _lock:
        _spans.append(span)


def _traced(name, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = next(_ids)
        parent = _current.get()
        token = _current.set(sid)
        result, returned = None, False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter()
            _current.reset(token)
            counted = count(args, kwargs, result) if count and returned else None
            _record(name, start, end, parent, sid, counted)

    return wrapper


def install() -> list:
    """Wrap every binding in ``SPANS``; returns the bindings not found."""
    missing = []
    for name, (bindings, count) in SPANS.items():
        for path in bindings:
            module_name, attr = path.rsplit(".", 1)
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(path)
                continue
            setattr(module, attr, _traced(name, fn, count(fn) if count else None))
    pool = getattr(nsk.rates, "ThreadPoolExecutor", None)
    if pool is not None:

        class ContextPool(pool):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)

        nsk.rates.ThreadPoolExecutor = ContextPool
    return missing


def main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    missing = install()
    main_span = _traced("cli.main", nsk.cli.main)
    try:
        code = main_span(cli_argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"import_s": IMPORT_S, "missing": missing, "spans": _spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
