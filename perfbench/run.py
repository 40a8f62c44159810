"""End-to-end and per-layer benchmark of the nsk command-line interface.

    python3 perfbench/run.py --workload flow|rate_study|verify \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every invocation is the real CLI,
``python -m nsk.cli ...`` with ``PYTHONPATH=src``, in a fresh child
process; children run one at a time (a closed loop with one client).
Each child is reaped with ``os.wait4``, so its wall time runs from spawn
to exit and its CPU time and peak RSS are that child's own.

Workloads (the seed jitters |rho_b| and |u_-| by at most +-1%):

* ``flow``: ``solve inflow`` and ``solve outflow`` at kappa = 3e-3 on the
  default grid (M = 2567).  The only workload dominated by the dense
  O(M^2) operator assembly and its memory.
* ``rate_study``: ``rate-study --mode fixed`` and ``--mode singular`` over
  the default seven kappa values.  The paper's headline computation; most
  of its time is import and the grids are small (M <= 159), so it is the
  bypass case for operator work, and it exercises the limit profile, the
  kappa thread pool, the rate fits and output emission.
* ``verify``: ``verify impermeable --tol 1e-8`` on six parameter sets.
  The only workload that runs the finite-difference oracle.

Timing on a shared host.  The speed of a virtual CPU drifts by tens of
percent from second to second (other tenants, frequency), and each CPU
drifts on its own, so plain wall or CPU time of the same code spreads by
far more than any regression worth catching.  The benchmark therefore
pins itself and every child to one CPU, runs the children with one BLAS
thread, and keeps a speed probe on that same CPU: a thread that times a
fixed pure-Python loop in its own CPU time (about 1.6 ms of work every
20 ms) while the child runs.  A child's *reference CPU time* is its user
plus system CPU time times ``REF_CHUNK_S / median probe chunk``: the CPU
seconds it would have taken at the reference speed.  CPU time leaves out
the time the child waited for the CPU (the probe, other processes); the
scale removes the drift of the CPU's own speed.

The timed phase lasts ``--seconds``: set-up samples first, then the
workload's invocations in turn, while the next one (judged by its last
duration) still ends in time; every invocation runs at least once.  Every
input of a run is the same, so repeats differ only by timing noise.

``--trace 0`` prints the end-to-end metrics:

* ``cpu_s``: reference CPU time of one pass over the workload, the sum
  over its invocations of each one's median.
* ``setup_s``: median reference CPU time of five fresh
  ``python -c "import nsk.cli"`` (after the environment probe, which
  imports it once untimed).
* ``peak_rss_mb``: largest ``ru_maxrss`` over the workload's children.
* ``result_err``: accuracy distance, lower is better (flow: max
  ``ode_residual_sup``; rate_study: max |slope - target|; verify: max
  ``sup_diff``).
* ``pass_frac``: share of invocations whose exit code and output checks
  passed (``1 - failed/attempted``).

``--trace 1`` runs the same timed phase, then one pass under
``perfbench/traced_cli.py``, and prints the per-layer metrics: self times
(wall clock inside the child) of each layer's spans, counts read from the
program's outputs and calls, and ``trace.overhead_frac``.  Spans inside
the rate study's thread pool are summed over its worker threads, so on
``rate_study`` layer times can add up to more than the wall time.
Details (environment, per-invocation wall, CPU and reference CPU times,
percentiles, failed checks) go to standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# result_err scales with the data amplitude (verify's sup_diff about as
# rho_b^2), so a wider jitter turns seed-to-seed input changes into spread
# of the accuracy metric; every check also holds at +-10%.
JITTER = 0.01
CHILD_TIMEOUT_S = 170.0
SETUP_REPEATS = 5

# speed probe: one chunk is PROBE_ITERS loop steps, then a pause
PROBE_ITERS = 20_000
PROBE_PAUSE_S = 0.02
# median CPU time of one chunk on the host the benchmark was tuned on
# (2 vCPU Intel Xeon, Python 3.11); it only sets the unit of cpu_s and setup_s
REF_CHUNK_S = 1.6e-3
CHILD_THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

FLOW_RESIDUAL_BAR = 1e-4
SLOPE_TOL = 0.05
VERIFY_TOL = 1e-8
RATE_TARGETS = {"l2_value": 0.75, "l2_derivative": 0.25, "sup": 0.5}
SINGULAR_EXTRA = {"l2_value_y": 0.5}
RATE_KAPPA_COUNT = 7

# acceptance-criterion-3 parameter sets (u_- = 0)
VERIFY_CASES = (
    dict(n=3, gamma=1.0, kappa=1.0, mu=1.0, rho_plus=1.0, rho_b=-0.1),
    dict(n=2, gamma=1.4, kappa=0.3, mu=1.0, rho_plus=1.0, rho_b=-0.05),
    dict(n=4, gamma=1.4, kappa=1.0, mu=0.0, rho_plus=0.8, rho_b=-0.05),
    dict(n=3, gamma=2.0, kappa=0.1, mu=1.0, rho_plus=1.0, rho_b=-0.1),
    dict(n=2, gamma=2.0, kappa=1e-2, mu=1.0, rho_plus=1.0, rho_b=-0.05),
    dict(n=3, gamma=1.0, kappa=1e-3, mu=1.0, rho_plus=1.0, rho_b=-0.02),
)

END_TO_END_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "result_err": "1",
    "pass_frac": "1",
}

PER_LAYER_UNITS = {
    "operators.weights_s": "s",
    "operators.entries_s": "s",
    "operators.bytes": "B",
    "inflow.solve_self_s": "s",
    "inflow.iterations": "count",
    "inflow.nonlinearity_s": "s",
    "impermeable.solve_self_s": "s",
    "impermeable.iterations": "count",
    "impermeable.nonlinearity_s": "s",
    "oracle.solve_fd_s": "s",
    "oracle.fd_nodes": "count",
    "oracle.cross_validate_self_s": "s",
    "limit.integrate_profile_s": "s",
    "rates.study_self_s": "s",
    "rates.emit_s": "s",
    "rates.failed_rows": "count",
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "grid.build_grid_s": "s",
    "grid.nodes": "count",
    "kernel.lifting_s": "s",
    "residuals.residual_s": "s",
    "residuals.calls": "count",
    "fail_frac": "1",
    "trace.overhead_frac": "1",
}

# per-layer metric -> (span name, what to sum: self time, number of spans, or the count each span recorded)
SPAN_METRICS = {
    "operators.weights_s": ("operators.weights", "self"),
    "operators.entries_s": ("operators.assemble", "self"),
    "operators.bytes": ("operators.assemble", "count"),
    "inflow.solve_self_s": ("inflow.solve", "self"),
    "inflow.nonlinearity_s": ("inflow.nonlinearity", "self"),
    "impermeable.solve_self_s": ("impermeable.solve", "self"),
    "impermeable.iterations": ("impermeable.solve", "count"),
    "impermeable.nonlinearity_s": ("impermeable.nonlinearity", "self"),
    "oracle.solve_fd_s": ("oracle.solve_fd", "self"),
    "oracle.fd_nodes": ("oracle.solve_fd", "count"),
    "oracle.cross_validate_self_s": ("oracle.cross_validate", "self"),
    "limit.integrate_profile_s": ("limit.integrate_profile", "self"),
    "rates.study_self_s": ("rates.study", "self"),
    "rates.emit_s": ("rates.emit", "self"),
    "cli.main_self_s": ("cli.main", "self"),
    "grid.build_grid_s": ("grid.build_grid", "self"),
    "grid.nodes": ("grid.build_grid", "count"),
    "kernel.lifting_s": ("kernel.lifting", "self"),
    "residuals.residual_s": ("residuals.residual", "self"),
    "residuals.calls": ("residuals.residual", "calls"),
}


class CheckFailed(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    ref_cpu_s: float
    maxrss_kib: int
    stdout: str
    stderr: str


@dataclass
class Call:
    """One CLI invocation and the check of its outputs.

    ``check(child)`` raises ``CheckFailed`` or returns
    ``(result_err, counts)``, the counts being per-layer metrics read from
    the program's own output.
    """

    argv: list
    check: Callable
    outputs: list = field(default_factory=list)


class SpeedProbe:
    """Times a fixed loop in its own CPU time while a child runs.

    The thread inherits the benchmark's one-CPU affinity, so it measures
    the speed of the CPU the child runs on.  ``scale()`` turns that CPU's
    seconds into reference seconds.
    """

    def __init__(self):
        self.chunks: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while True:
            t0 = time.thread_time()
            acc = 0
            for i in range(PROBE_ITERS):
                acc += i * i
            self.chunks.append(time.thread_time() - t0)
            if self._stop.wait(PROBE_PAUSE_S):
                return

    def scale(self) -> float:
        return REF_CHUNK_S / statistics.median(self.chunks)


def spawn(argv: list, workdir: Path) -> Child:
    """Run ``argv`` to completion; wall time, CPU time and rusage of this child only."""
    env = dict(os.environ, **CHILD_THREADS_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err, SpeedProbe() as probe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=workdir)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=cpu,
        ref_cpu_s=cpu * probe.scale(),
        maxrss_kib=usage.ru_maxrss,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def last_json(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    require(bool(lines), "no output on stdout")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc


def jitter(rng: random.Random, value: float) -> float:
    return value * (1.0 + JITTER * (2.0 * rng.random() - 1.0))


def write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------- workloads


def flow_calls(rng: random.Random, workdir: Path) -> list:
    calls = []
    for regime, sign in (("inflow", 1.0), ("outflow", -1.0)):
        u_minus = sign * jitter(rng, 0.05)
        doc = dict(n=3, gamma=1, kappa=3e-3, mu=1, rho_plus=1, rho_b=jitter(rng, -0.02), u_minus=u_minus)
        cfg = write_config(workdir / f"{regime}.json", doc)
        out = workdir / f"{regime}.csv"

        def check(child, out=out, u_minus=u_minus, n=doc["n"]):
            require(child.code == 0, f"exit code {child.code}")
            s = last_json(child.stdout)
            require(s.get("converged") is True, "not converged")
            flux = s["mass_flux"]
            require(math.isclose(flux, s["rho_minus"] * u_minus, rel_tol=1e-12), "mass_flux != rho_minus*u_minus")
            res = s["ode_residual_sup"]
            require(math.isfinite(res) and res < FLOW_RESIDUAL_BAR, f"ode_residual_sup {res!r}")
            check_flow_csv(out, flux, n)
            return res, {"inflow.iterations": s["iterations"]}

        calls.append(Call(["solve", regime, "--config", str(cfg), "--out", str(out)], check, [out]))
    return calls


def check_flow_csv(path: Path, flux: float, n: int) -> None:
    require(path.is_file(), "no CSV written")
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["r", "rho", "rho_r", "u", "phi", "residual"], f"CSV header {rows[0]}")
    require(len(rows) > 3, "CSV has too few rows")
    prev = 0.0
    for i, row in enumerate(rows[1:]):
        r, rho, _, u, _, _ = vals = [float(x) for x in row]
        require(all(math.isfinite(v) for v in vals), f"CSV row {i} not finite")
        require(r > prev and (i > 0 or r == 1.0), f"CSV r not increasing from 1 at row {i}")
        # mass-flux identity r^{n-1} rho u = rho_minus u_minus
        require(math.isclose(r ** (n - 1) * rho * u, flux, rel_tol=1e-12), f"CSV mass flux at row {i}")
        prev = r


def rate_calls(rng: random.Random, workdir: Path) -> list:
    calls = []
    for mode, rho_b in (("fixed", -1.0), ("singular", -0.1)):
        doc = dict(n=3, gamma=1, kappa=1, mu=1, rho_plus=1, rho_b=jitter(rng, rho_b), u_minus=0)
        cfg = write_config(workdir / f"{mode}.json", doc)
        out = workdir / f"rates_{mode}"
        targets = dict(RATE_TARGETS, **(SINGULAR_EXTRA if mode == "singular" else {}))

        def check(child, out=out, targets=targets):
            require(child.code == 0, f"exit code {child.code}")
            slopes = last_json(child.stdout)
            require(sorted(slopes) == sorted(targets), f"slope keys {sorted(slopes)}")
            devs = [abs(slopes[k]["value"] - t) for k, t in targets.items()]
            require(all(d <= SLOPE_TOL for d in devs), f"slope off target by {max(devs):.3g}")
            summary = json.loads((out / "summary.json").read_text())
            failed = sum(1 for row in summary["rows"] if row["failed"] is not None)
            require(len(summary["rows"]) == RATE_KAPPA_COUNT, "wrong number of kappa rows")
            require(failed == 0, f"{failed} failed kappa rows")
            with (out / "rates.csv").open(newline="") as fh:
                iterations = sum(int(row["iterations"]) for row in csv.DictReader(fh))
            return max(devs), {"impermeable.iterations": iterations, "rates.failed_rows": failed}

        calls.append(Call(["rate-study", "--mode", mode, "--config", str(cfg), "--out", str(out)], check, [out]))
    return calls


def verify_calls(rng: random.Random, workdir: Path) -> list:
    calls = []
    for i, case in enumerate(VERIFY_CASES):
        doc = dict(case, rho_b=jitter(rng, case["rho_b"]), u_minus=0)
        cfg = write_config(workdir / f"verify{i}.json", doc)

        def check(child):
            require(child.code == 0, f"exit code {child.code}")
            s = last_json(child.stdout)
            require(s.get("pass") is True, "pass is not true")
            diff = s["sup_diff"]
            require(math.isfinite(diff) and diff <= VERIFY_TOL, f"sup_diff {diff!r}")
            return diff, {}

        calls.append(Call(["verify", "impermeable", "--config", str(cfg), "--tol", repr(VERIFY_TOL)], check))
    return calls


WORKLOADS = {"flow": flow_calls, "rate_study": rate_calls, "verify": verify_calls}


# ---------------------------------------------------------------- running


@dataclass
class Tally:
    maxrss_kib: int = 0
    attempted: int = 0
    failed: int = 0
    errs: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def run_call(call: Call, workdir: Path, argv: list, tally: Tally) -> Child:
    """Run one invocation, check its outputs and add it to ``tally``."""
    for path in call.outputs:
        shutil.rmtree(path) if path.is_dir() else path.unlink(missing_ok=True)
    child = spawn(argv + call.argv, workdir)
    tally.maxrss_kib = max(tally.maxrss_kib, child.maxrss_kib)
    tally.attempted += 1
    try:
        err, counts = call.check(child)
    except (CheckFailed, KeyError, TypeError, ValueError, OSError) as exc:
        tally.failed += 1
        tail = child.stderr.strip().splitlines()[-1:] or [""]
        log({"check_failed": " ".join(call.argv), "reason": str(exc), "stderr": tail[0]})
        return child
    tally.errs.append(err)
    for key, val in counts.items():
        tally.counts[key] = tally.counts.get(key, 0) + val
    return child


def run_timed(calls: list, workdir: Path, deadline: float, tally: Tally) -> list:
    """Invoke the calls in turn until the next would end after ``deadline``.

    Returns the children of each call; every call runs at least once.
    """
    runs: list = [[] for _ in calls]
    k = 0
    while True:
        i = k % len(calls)
        if runs[i] and time.perf_counter() + runs[i][-1].wall_s > deadline:
            return runs
        runs[i].append(run_call(calls[i], workdir, [sys.executable, "-m", "nsk.cli"], tally))
        k += 1


def measure_setup(workdir: Path) -> list:
    argv = [sys.executable, "-c", "import nsk.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        child = spawn(argv, workdir)
        if child.code != 0:
            raise SystemExit(f"import nsk.cli failed: {child.stderr.strip()}")
        times.append(child.ref_cpu_s)
    return times


def self_times(spans: list) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(trace_files: list, output_counts: dict) -> dict:
    sums = {name: 0.0 for name in SPAN_METRICS}
    import_s = 0.0
    for path in trace_files:
        if not path.is_file():  # the child died before writing; counted as failed
            continue
        doc = json.loads(path.read_text())
        if doc["missing"]:
            log({"trace_bindings_missing": doc["missing"]})
        import_s += doc["import_s"]
        spans = doc["spans"]
        own = self_times(spans)
        for metric, (span_name, kind) in SPAN_METRICS.items():
            for s in spans:
                if s["name"] != span_name:
                    continue
                if kind == "self":
                    sums[metric] += own[s["id"]]
                elif kind == "calls":
                    sums[metric] += 1
                else:
                    sums[metric] += s.get("count", 0)
    sums["cli.import_s"] = import_s
    sums.update(output_counts)  # counts printed by the program win over call records
    sums.setdefault("inflow.iterations", 0)
    sums.setdefault("rates.failed_rows", 0)
    return sums


def tail_percentile(values: list):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return {"pct": pct, "value": ordered[rank - 1]}
    return None


def log(obj) -> None:
    sys.stderr.write(json.dumps(obj) + "\n")
    sys.stderr.flush()


def env_info(workdir: Path) -> dict:
    child = spawn([sys.executable, str(HERE / "envinfo.py")], workdir)
    if child.code != 0:
        raise SystemExit(f"environment probe failed: {child.stderr.strip()}")
    return json.loads(child.stdout)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nsk" / "cli.py").is_file():
        sys.stderr.write(f"no nsk sources under {SRC}; run from a checkout of the repository\n")
        return 2

    # the probe thread and every child inherit this affinity
    host_cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {host_cpus[-1]})

    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir, host_cpus)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def run(args, workdir: Path, host_cpus: list) -> int:
    env = env_info(workdir)
    env.update(host_cpus=len(host_cpus), pinned_cpu=host_cpus[-1])
    log({"env": env, "workload": args.workload, "seed": args.seed})
    calls = WORKLOADS[args.workload](random.Random(args.seed), workdir)

    deadline = time.perf_counter() + args.seconds
    setup = measure_setup(workdir)
    tally = Tally()
    runs = run_timed(calls, workdir, deadline, tally)
    for call, children in zip(calls, runs):
        ref = [c.ref_cpu_s for c in children]
        log(
            {
                "call": " ".join(call.argv[:2]),
                "n": len(ref),
                "ref_cpu_s": {"median": statistics.median(ref), "tail": tail_percentile(ref), "samples": ref},
                "cpu_s": [c.cpu_s for c in children],
                "wall_s": [c.wall_s for c in children],
            }
        )
    pass_cpu = sum(statistics.median(c.ref_cpu_s for c in children) for children in runs)

    if args.trace:
        traces: list = []
        traced = Tally()
        traced_cpu = 0.0
        for k, call in enumerate(calls):
            traces.append(workdir / f"spans{k}.json")
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(traces[-1])]
            traced_cpu += run_call(call, workdir, argv, traced).ref_cpu_s
        layers = layer_metrics(traces, traced.counts)
        layers["trace.overhead_frac"] = traced_cpu / pass_cpu - 1.0
        log({"traced_ref_cpu_s": traced_cpu})
        tally.attempted += traced.attempted
        tally.failed += traced.failed

    attempted, failed = tally.attempted, tally.failed
    if args.trace:
        layers["fail_frac"] = failed / attempted
        metrics = {k: metric(layers[k], u) for k, u in PER_LAYER_UNITS.items()}
    else:
        log({"setup_s": {"median": statistics.median(setup), "samples": setup}})
        values = {
            "cpu_s": pass_cpu,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": tally.maxrss_kib / 1024.0,
            # 1.0 when no invocation passed its checks: far above any correct result
            "result_err": max(tally.errs) if tally.errs else 1.0,
            "pass_frac": 1.0 - failed / attempted,
        }
        metrics = {k: metric(values[k], u) for k, u in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
