"""cointssm benchmark: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload long_path --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root. The library is imported from ./src. Each op
starts when the previous one ends. With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced ops
and reports the per-layer metrics. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Run records (and,
traced, the spans) are written to ./.perfbench-out/. See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

#: One BLAS thread, whatever the caller's environment: with one thread per
#: core, a second busy process slowed ops by half or more (NOTES.md). Set
#: before numpy loads; the CLI subprocesses inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("long_path", "fine_grid", "cli_roundtrip")
SETUP_REPS = 3
IMPORT_REPS = 3
LAYERS = ("matops", "model", "modeldoc", "realization", "cointegration", "moments",
          "simulate", "kalman", "ecf", "cli")

#: per-layer metric -> traced function whose outermost calls it times
BUSY = {
    "simulate.exact.busy_s": "simulate.simulate_exact_gaussian",
    "simulate.ensemble.busy_s": "simulate.simulate_gaussian_ensemble",
    "simulate.euler.busy_s": "simulate.simulate_levy_euler",
    "kalman.filter.busy_s": "kalman.filter_innovations",
    "kalman.riccati.busy_s": "kalman.solve_steady_state",
    "moments.discretize.busy_s": "moments.discretize",
    "matops.lyapunov_solve.busy_s": "matops.lyapunov_solve",
    "matops.gramian_integral.busy_s": "matops.gramian_integral",
    "matops.cross_integral.busy_s": "matops.cross_integral",
    "realization.canonicalize.busy_s": "realization.canonicalize",
    "cointegration.check_cointegration.busy_s": "cointegration.check_cointegration",
    "ecf.coeffs.busy_s": "ecf.ma_and_ktilde_coeffs",
    "ecf.residuals.busy_s": "ecf.ecf_residuals",
    "ecf.structural_check.busy_s": "ecf.structural_check",
    "ecf.whiteness.busy_s": "ecf.whiteness_diagnostic",
}
#: work counted by spans.WORK_COUNTERS per second of the function's busy time
RATES = {
    "simulate.exact.steps_per_s": "simulate.simulate_exact_gaussian",
    "simulate.euler.substeps_per_s": "simulate.simulate_levy_euler",
    "kalman.filter.steps_per_s": "kalman.filter_innovations",
    "ecf.residuals.lag_rows_per_s": "ecf.ecf_residuals",
}
#: per traced op: summed work counters, or number of calls
WORK_PER_OP = {"kalman.riccati.iterations": "kalman.solve_steady_state"}
CALLS_PER_OP = {"matops.expm.calls": "matops.expm",
                "matops.numerical_rank.calls": "matops.numerical_rank"}


def import_library() -> float:
    """Import cointssm from ./src and return the seconds it took."""
    if not (SRC / "cointssm" / "__init__.py").is_file():
        raise SystemExit(f"error: no cointssm source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import cointssm
    import cointssm.cli  # the CLI layer is traced too
    elapsed = perf_counter() - t0
    if Path(cointssm.__file__).resolve().parent != (SRC / "cointssm").resolve():
        raise SystemExit(f"error: imported cointssm from {cointssm.__file__}, not {SRC}")
    return elapsed


def nearest_rank(times: list[float], pct: int) -> float:
    xs = sorted(times)
    return xs[max(1, math.ceil(pct * len(xs) / 100)) - 1]


def tail(times: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) at the highest nearest-rank
    percentile with at least ten samples beyond it. Below twenty samples
    that percentile would fall under the median, so it is the maximum."""
    xs, n = sorted(times), len(times)
    if n < 20:
        return xs[-1], 100, 0
    q = 100 * (n - 10) // n
    rank = max(1, math.ceil(q * n / 100))
    return xs[rank - 1], q, n - rank


def blas_threads() -> int | str:
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "cointssm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_cli_import(env: dict) -> float:
    """Median of `python -c "import cointssm"` minus median of `python -c pass`."""
    def run(code):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return perf_counter() - t0

    times = {"import cointssm": [], "pass": []}
    for _ in range(IMPORT_REPS):
        for code in times:
            times[code].append(run(code))
    return statistics.median(times["import cointssm"]) - statistics.median(times["pass"])


def op_cycle(w, trace: bool, cli: bool) -> list[str]:
    """Kinds of op in one cycle; the loop ends only at a cycle boundary, so
    every model of the rotation runs equally often."""
    if not trace:
        return ["plain"] * w.n_models
    if cli:
        # subprocess ops time the commands; the tracer sees in-process ops,
        # and untraced in-process ops give the tracing overhead
        return ["plain", "inproc", "inproc_traced"]
    return ["plain"] * w.n_models + ["traced"] * w.n_models


def run_loop(w, cycle: list[str], seconds: float, tracer) -> tuple[list[dict], float]:
    records, i = [], 0
    start = perf_counter()
    deadline = start + seconds
    while i % len(cycle) or perf_counter() < deadline:
        kind = cycle[i % len(cycle)]
        op = w.op_in_process if kind.startswith("inproc") else w.op
        traced = kind.endswith("traced")
        if traced:
            tracer.op = i
            tracer.install()
        t0 = perf_counter()
        try:
            res, ok = op(i), True
        except Exception as exc:  # a failed op is counted, and the loop goes on
            res, ok = {}, False
            print(f"op {i} ({kind}) failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        dt = perf_counter() - t0
        if traced:
            tracer.uninstall()
        records.append({"kind": kind, "dt": dt, "ok": ok, **res})
        i += 1
    return records, perf_counter() - start


def peak_rss_mb(cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(cls, records, loop_s, setup_s, rss_mb) -> tuple[dict, list[str]]:
    done = [r["dt"] for r in records if r["ok"]]
    lat = done or [r["dt"] for r in records]
    value, q, beyond = tail(lat)
    errs = [r["rel_err"] for r in records if "rel_err" in r]
    white = [r["white"] for r in records if "white" in r]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p95_s": (nearest_rank(lat, 95), "s"),
        "op_tail_s": (value, "s"),
        "ok_frac": (len(done) / len(records), "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
        "max_rel_err": (max(errs) if errs else 1.0, "ratio"),
    }
    notes = [
        f"op_p50_s {statistics.median(lat):.6g} s and steps_per_s "
        f"{cls.T * len(done) / loop_s:.6g} 1/s (T={cls.T} steps per completed op "
        f"over {loop_s:.3f} s) are reported, not bounded: NOTES.md",
        f"op_tail_s is p{q} of n={len(lat)} ops ({beyond} beyond it)",
        f"fail_frac {1 - len(done) / len(records):.4g} ({len(records) - len(done)} of {len(records)})",
    ]
    if white:
        notes.append(f"whiteness passed on {sum(white)} of {len(white)} ops (recorded, not a failure)")
    return metrics, notes


def per_layer(w, records, tracer, import_s: float, cli: bool) -> tuple[dict, list[str]]:
    import models
    import spans

    def median(xs):
        return statistics.median(xs) if xs else 0.0

    traced = [r for r in records if r["kind"].endswith("traced")]
    base_kind = "inproc" if cli else "plain"
    base = [r["dt"] for r in records if r["kind"] == base_kind]
    n = max(1, len(traced))
    stats = spans.LayerStats(tracer.spans, tracer.self_times())
    metrics = {}
    for metric, fn in BUSY.items():
        metrics[metric] = (stats.busy.get(fn, 0.0) / n, "s")
    for metric, fn in RATES.items():
        busy = stats.busy.get(fn, 0.0)
        metrics[metric] = (stats.work.get(fn, 0) / busy if busy else 0.0, "1/s")
    for metric, fn in WORK_PER_OP.items():
        metrics[metric] = (stats.work.get(fn, 0) / n, "count")
    for metric, fn in CALLS_PER_OP.items():
        metrics[metric] = (stats.calls.get(fn, 0) / n, "count")
    metrics["cli.import_s"] = (import_s, "s")
    for command in ("simulate", "filter", "ecf"):
        times = [r["parts"][command] for r in records if "parts" in r]
        metrics[f"cli.{command}_s"] = (median(times), "s")
    metrics.update({
        "cli.self_s": (stats.cli_self / n, "s"),
        "cli.csv_bytes_written": (tracer.csv_bytes["written"] / n, "count"),
        "cli.csv_bytes_read": (tracer.csv_bytes["read"] / n, "count"),
    })
    for layer in LAYERS:
        metrics[f"{layer}.fail"] = (stats.fail.get(layer, 0), "count")
    t_traced = [r["dt"] for r in traced]
    overhead = median(t_traced) / median(base) - 1.0 if t_traced and base else 0.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    probe = models.false_reject_probe()
    metrics["realization.false_reject_frac"] = (probe["false_reject_frac"], "frac")
    notes = [
        f"{len(traced)} traced ops; busy_s and counts are per traced op",
        f"trace.overhead_frac compares {len(traced)} traced with {len(base)} untraced {base_kind} ops",
        "false rejects by (d,c,n2): " + json.dumps(probe["by_shape"], sort_keys=True),
    ]
    return metrics, notes


def set_up(cls, seed: int, workdir: str):
    """One set-up: the workload's inputs and one warm-up op. Returns the
    workload and the seconds it took."""
    t0 = perf_counter()
    w = cls(seed, workdir)
    w.op(0)
    return w, perf_counter() - t0


def fresh_setup_s(name: str, seed: int) -> float:
    """Import and one set-up, timed inside a fresh interpreter."""
    proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                           "--setup-only"], stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout.split()[-1])


def setup_only(name: str, seed: int) -> int:
    import_s = import_library()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-setup-", dir=OUT)
    try:
        _, seconds = set_up(workloads.WORKLOADS[name], seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(import_s + seconds)
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_s = import_library()
    import spans
    import workloads

    cls = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        w, first = set_up(cls, seed, workdir)
        cli = hasattr(w, "op_in_process")
        cli_import = measure_cli_import(workloads.cli_env()) if trace else 0.0
        tracer = spans.Tracer() if trace else None
        records, loop_s = run_loop(w, op_cycle(w, trace, cli), seconds, tracer)
        if trace:
            metrics, notes = per_layer(w, records, tracer, cli_import, cli)
        else:
            rss_mb = peak_rss_mb(cli)
            # The other set-ups, each with its own import, run in fresh
            # interpreters after the loop, so they meet the machine in
            # another state than the first one (NOTES.md).
            setups = [import_s + first] + [fresh_setup_s(name, seed)
                                           for _ in range(SETUP_REPS - 1)]
            setup_s = statistics.median(setups)
            metrics, notes = end_to_end(cls, records, loop_s, setup_s, rss_mb)
            notes.insert(0, f"setup_s is the median of {len(setups)} imports and set-ups "
                            f"{[round(s, 4) for s in setups]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    prov = provenance(seed)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seconds": seconds, "trace": int(trace),
                   "metrics": reported, "notes": notes, "provenance": prov,
                   "ops": [{k: v for k, v in r.items() if k != "parts"} for r in records]},
                  fh, indent=1)
    if trace:
        tracer.dump(str(OUT / f"spans-{tag}.json"), {"workload": name, "seed": seed})

    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
          f"ops {len(records)} in {loop_s:.3f} s")
    width = max(map(len, metrics))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<{width}}  {value:.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": reported,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *report, last = proc.stdout.splitlines()
        print("\n".join(report))
        results[name] = json.loads(last)
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one import and set-up and print the seconds (a run does "
                             "this in fresh interpreters for setup_s)")
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
