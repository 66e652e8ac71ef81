"""Benchmark nmcollide end to end (``--trace 0``) or per module (``--trace 1``).

    python3 bench/run.py --workload closed_form_grid --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/``, and nothing is installed. The seed generates the workload's
configs (see ``workloads.py``); each iteration sends them one after the
other through ``nmcollide.cli.main`` in this process, a closed loop with
one client. Iterations repeat until ``--seconds`` have passed. Every
output is checked after its iteration (see ``checks.py``). A calibration
kernel runs before the first invocation and after each; the end-to-end
times are rescaled by it to the reference host (see ``calibration.py``).

Standard output carries a table of the metrics with quartiles and sample
counts, a JSON line with the environment, and as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs each workload in its own process and
prefixes the metric names with the workload.

Generated configs and outputs live under ``bench/.work/`` and are removed
at exit; the traced run writes its last iteration's spans to
``bench/.out/``.
"""

from __future__ import annotations

import argparse
import gc
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
import time
from pathlib import Path

import calibration
import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
OUT = BENCH / ".out"

SETUP_MIN_SAMPLES = 5
REF_ERR_FLOOR = 1e-17  # an exact match with the reference counts as 17 digits

# metric names and units, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def load_program():
    """Import nmcollide from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "nmcollide" / "__init__.py").is_file():
        print(f"error: no nmcollide package under {SRC}; run from a source checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import nmcollide
    import nmcollide.cli

    if Path(nmcollide.__file__).resolve().parent != SRC / "nmcollide":
        print(f"error: imported nmcollide from {nmcollide.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return nmcollide


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment(seed: int) -> dict:
    import mpmath
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "NMCOLLIDE_THREADS": os.environ.get("NMCOLLIDE_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "seed": seed,
    }


def measure_setup() -> float:
    """Wall time for a fresh interpreter to import nmcollide.cli."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import nmcollide.cli"], env=_child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import of nmcollide.cli failed:\n{proc.stderr}")
    return elapsed


def clear_caches(modules) -> None:
    """Empty the package's function caches, as a fresh CLI process has them."""
    for mod in modules:
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _digest(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def run_iteration(cli, invocations, config_paths, out_root: Path):
    """Send every invocation through cli.main, each followed by a calibration run.

    Returns the wall and CPU time summed over the invocations, the mean
    time of the calibration runs (one before the first invocation and one
    after each), the exit codes and the output directories.
    """
    if out_root.exists():
        shutil.rmtree(out_root)
    out_dirs = [out_root / inv.label for inv in invocations]
    codes = []
    gc.collect()
    kernel_times = [calibration.kernel()]
    wall = cpu = 0.0
    for inv, cfg_path, out_dir in zip(invocations, config_paths, out_dirs):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            codes.append(cli.main([inv.subcommand, str(cfg_path), "--output-dir", str(out_dir)]))
        except (Exception, SystemExit) as exc:  # a traceback is a failed invocation
            codes.append(f"raised {type(exc).__name__}: {exc}")
        wall += time.perf_counter() - wall0
        cpu += time.process_time() - cpu0
        kernel_times.append(calibration.kernel())
    return wall, cpu, statistics.fmean(kernel_times), codes, out_dirs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def layer_values(summary, rows: int, closed_form_rows: int, hit_ratio: float) -> dict:
    """Per-layer metrics of one traced iteration (trace.overhead_s is added by the caller)."""
    calls = lambda n: summary.calls.get(n, 0.0)
    own = lambda n: summary.self_s.get(n, 0.0)
    incl = lambda n: summary.inclusive_s.get(n, 0.0)
    work = lambda n, k: summary.work.get((n, k), 0.0)
    layer = lambda n: summary.layer_self_s.get(n, 0.0)
    per = lambda t, n, scale: t * scale / n if n else 0.0
    return {
        "cli.self_s": own("cli.main"),
        "cli.rows": rows,
        "cli.thread_overlap_s": summary.overlap_s,
        "jaynes_cummings.self_s": layer("jaynes_cummings"),
        "jaynes_cummings.us_per_point": per(
            summary.layer_outer_s.get("jaynes_cummings", 0.0), closed_form_rows, 1e6),
        "jaynes_cummings.beta_pair.calls": calls("jaynes_cummings.beta_pair"),
        "jaynes_cummings.beta1.self_s": own("jaynes_cummings.beta1"),
        "jaynes_cummings.beta2.self_s": own("jaynes_cummings.beta2"),
        "jaynes_cummings.lambda_jc_channel.calls": calls("jaynes_cummings.lambda_jc_channel"),
        "jaynes_cummings.lambda_jc.calls": calls("jaynes_cummings.lambda_jc"),
        "jaynes_cummings.cubic_spectrum.hit_ratio": hit_ratio,
        "quantum.self_s": layer("quantum"),
        "quantum.KrausChannel.calls": calls("quantum.KrausChannel"),
        "quantum.KrausChannel.self_s": own("quantum.KrausChannel"),
        "quantum.kraus_from_choi.calls": calls("quantum.kraus_from_choi"),
        "quantum.choi_of.calls": calls("quantum.choi_of"),
        "quantum.ChoiMatrix.calls": calls("quantum.ChoiMatrix"),
        "quantum.ChoiMatrix.self_s": own("quantum.ChoiMatrix"),
        "quantum.min_eigenvalue.calls": calls("quantum.min_eigenvalue"),
        "quantum.DensityOperator.calls": calls("quantum.DensityOperator"),
        "quantum.DensityOperator.self_s": own("quantum.DensityOperator"),
        "quantum.trace_distance.calls": calls("quantum.trace_distance"),
        "continuum.self_s": layer("continuum"),
        "continuum.choi.calls": calls("continuum.choi"),
        "continuum.series.calls": calls("continuum.series"),
        "continuum.series.orders": work("continuum.series", "orders"),
        "continuum.series.ns_per_point_order": per(
            incl("continuum.series"), work("continuum.series", "point_orders"), 1e9),
        "collisions.self_s": layer("collisions"),
        "collisions.pure.steps": work("collisions.pure", "steps"),
        "collisions.pure.us_per_step": per(
            incl("collisions.pure"), work("collisions.pure", "steps"), 1e6),
        "collisions.thermal.steps": work("collisions.thermal", "steps"),
        "collisions.thermal.us_per_step": per(
            incl("collisions.thermal"), work("collisions.thermal", "steps"), 1e6),
        "verify.self_s": layer("verify"),
        "verify.certify_cpt.maps": work("verify.certify_cpt", "maps"),
        "verify.certify_cpt.us_per_map": per(
            incl("verify.certify_cpt"), work("verify.certify_cpt", "maps"), 1e6),
        "verify.convergence_study.calls": calls("verify.convergence_study"),
        "trace.spans": summary.spans,
    }


def _hit_ratio(package) -> float:
    cached = getattr(getattr(package, "jaynes_cummings", None), "cubic_spectrum", None)
    if not callable(getattr(cached, "cache_info", None)):
        return 0.0
    info = cached.cache_info()
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


def run_workload(package, workload: str, seed: int, seconds: float, trace: bool,
                 work_dir: Path) -> dict:
    import nmcollide.cli as cli

    invocations = workloads.build(workload, seed)
    config_dir = work_dir / "configs"
    config_dir.mkdir(parents=True)
    config_paths = []
    for inv in invocations:
        path = config_dir / f"{inv.label}.json"
        path.write_text(json.dumps(inv.config, indent=2), encoding="utf-8")
        config_paths.append(path)
    closed_form = sum(inv.rows for inv in invocations if inv.label in checks.CLOSED_FORM_LABELS)
    rows = sum(inv.rows for inv in invocations)

    recorder = spans.Recorder()
    modules = spans.package_modules(package)
    undo = spans.install(recorder, package) if trace else []
    walls = {False: [], True: []}
    cpus, kernels, setups, layer_runs = [], [], [], []
    first_dirs, first_digests = None, None
    attempted = 0
    failed = set()  # (iteration, label) of every invocation that failed a check
    failures = []
    started = time.perf_counter()
    try:
        iteration = 0
        while iteration < 2 or time.perf_counter() - started < seconds:
            traced = trace and iteration % 2 == 1
            if not trace:
                setups.append(measure_setup())
            clear_caches(modules)
            recorder.spans, recorder.run_id, recorder.active = [], iteration, traced
            out_root = work_dir / ("first" if iteration == 0 else "iter")
            wall, cpu, kernel_s, codes, out_dirs = run_iteration(
                cli, invocations, config_paths, out_root)
            recorder.active = False
            walls[traced].append(wall)
            if not traced:
                cpus.append(cpu)
                kernels.append(kernel_s)
            digests = [_digest(d / "results.csv") for d in out_dirs]
            for k, (inv, code, out_dir) in enumerate(zip(invocations, codes, out_dirs)):
                problems = checks.check_invocation(inv, code, out_dir)
                if first_digests is not None and digests[k] != first_digests[k]:
                    problems.append(f"{inv.label}: results.csv differs from the first iteration")
                attempted += 1
                if problems:
                    failed.add((iteration, inv.label))
                    failures += problems
            if iteration == 0:
                first_dirs, first_digests = out_dirs, digests
            if traced:
                summary = spans.summarize(recorder.spans)
                layer_runs.append(layer_values(summary, rows, closed_form, _hit_ratio(package)))
                last_spans = recorder.spans
            iteration += 1
    finally:
        recorder.active = False
        spans.uninstall(undo)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not trace and len(setups) < SETUP_MIN_SAMPLES:
        setups.append(measure_setup())
    max_ref_err, ref_failures = checks.reference_errors(invocations, first_dirs, seed)
    for label, message in ref_failures:
        failed.add((0, label))
        failures.append(f"{label}: {message}")

    result = {
        "workload": workload,
        "seed": seed,
        "iterations": iteration,
        "attempted": attempted,
        "failed": len(failed),
        "failures": failures,
        "max_ref_err": max_ref_err,
        "wall_s": walls[False],
        "cpu_s": cpus,
        "kernel_s": kernels,
        "wall_ref_s": rescale(walls[False], kernels),
        "cpu_ref_s": rescale(cpus, kernels),
        "setup_s": setups,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        metrics = {}
        for name in LAYER_UNITS:
            if name == "trace.overhead_s":
                continue
            values = [run[name] for run in layer_runs]
            # counts repeat exactly between iterations; times take the median
            metrics[name] = values[0] if LAYER_UNITS[name] == "count" else statistics.median(values)
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        result["layers"] = metrics
        OUT.mkdir(exist_ok=True)
        spans.write_spans(OUT / f"spans_{workload}.csv", last_spans)
    return result


def rescale(times, kernel_times) -> list:
    """Times of each iteration in seconds of the reference host (see calibration.py)."""
    return [t * calibration.REF_KERNEL_S / k for t, k in zip(times, kernel_times)]


def end_to_end(result: dict) -> dict:
    err = result["max_ref_err"]
    return {
        "wall_ref_s": statistics.median(result["wall_ref_s"]),
        "setup_s": statistics.median(result["setup_s"]),
        "cpu_ref_s": statistics.median(result["cpu_ref_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "ref_digits": -math.log10(max(err, REF_ERR_FLOOR)),
    }


def print_table(result: dict, trace: bool) -> None:
    print(f"# workload {result['workload']}  seed {result['seed']}  "
          f"iterations {result['iterations']}  trace {int(trace)}")
    for message in result["failures"]:
        print(f"# FAILED {message}")
    if trace:
        for name, value in result["layers"].items():
            print(f"  {name:42s} {LAYER_UNITS[name]:6s} {value:.6g}")
        return
    print(f"  {'metric':12s} {'unit':7s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>4s}")
    for name in ("wall_ref_s", "cpu_ref_s", "wall_s", "cpu_s", "kernel_s", "setup_s"):
        q1, med, q3 = _quartiles(result[name])
        print(f"  {name:12s} {'s':7s} {med:12.6g} {q1:12.6g} {q3:12.6g} {len(result[name]):4d}")
    single = (
        ("peak_rss_mb", "MB", result["peak_rss_mb"], 1),
        ("failed_frac", "ratio", result["failed"] / result["attempted"], result["attempted"]),
        ("max_ref_err", "abs", result["max_ref_err"], 1),
    )
    for name, unit, value, n in single:
        print(f"  {name:12s} {unit:7s} {value:12.6g} {value:12.6g} {value:12.6g} {n:4d}")


def final_line(result: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": result["layers"][k], "unit": unit} for k, unit in LAYER_UNITS.items()}
    else:
        values = end_to_end(result)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in E2E_UNITS.items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    package = load_program()
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run_workload(package, args.workload, args.seed, args.seconds,
                              bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print_table(result, bool(args.trace))
    print(json.dumps({"environment": environment(args.seed)}))
    print(json.dumps(final_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
