"""Tests of the benchmark itself: seeded configs, output checks, span recorder.

    python -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from nmcollide.cli import main as cli_main  # noqa: E402
from nmcollide.continuum import SeriesPolicy, TimeGrid, build_kernel_map, lambda_series  # noqa: E402
from nmcollide.jaynes_cummings import jc_hamiltonian  # noqa: E402


WORK_KEYS = ("mode", "tau_points", "count", "n_steps", "probe_states", "k_max", "tail_tol",
             "compare_discrete", "kind")


def _work(config: dict) -> dict:
    """The values of a config that set the amount of work, at any depth; lists by length."""
    out = {}
    for key, value in config.items():
        if isinstance(value, dict):
            out.update({f"{key}.{k}": v for k, v in _work(value).items()})
        elif isinstance(value, list):
            out[key] = len(value)
        elif key in WORK_KEYS:
            out[key] = value
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_identical_configs(workload):
    assert workloads.build(workload, 11) == workloads.build(workload, 11)
    assert workloads.build(workload, 11) != workloads.build(workload, 12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_seeds_do_the_same_work(workload):
    a, b = workloads.build(workload, 1), workloads.build(workload, 2)
    assert [(i.label, i.subcommand, i.rows) for i in a] == [(i.label, i.subcommand, i.rows) for i in b]
    assert [_work(i.config) for i in a] == [_work(i.config) for i in b]


def _series_orders(seed):
    series = next(i for i in workloads.build("continuum_series", seed) if i.label == "series")
    cfg = series.config
    kernel = build_kernel_map(jc_hamiltonian())
    grid = TimeGrid(t_max=cfg["tau_max"], n_points=cfg["tau_points"])
    policy = SeriesPolicy(k_max=cfg["k_max"], tail_tol=cfg["tail_tol"])
    orders = []
    for g in cfg["gamma_bar"]:
        assert g * cfg["tau_max"] == pytest.approx(workloads.SERIES_GAMMA_TAU[len(orders)])
        orders.append(lambda_series(kernel, g, grid, policy).truncation_order)
    return orders


def test_series_orders_stay_in_a_small_band():
    for x, y in zip(_series_orders(1), _series_orders(2)):
        assert abs(x - y) <= 2


# --- output checks ------------------------------------------------------------


def _run_certify(tmp_path):
    inv = workloads.build("closed_form_grid", 3)[0]
    config = dict(inv.config, tau_points=40, gamma_bar=inv.config["gamma_bar"][:3])
    inv = workloads.Invocation("certify", "certify", config, 3 * 40)
    cfg_path = tmp_path / "certify.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = cli_main(["certify", str(cfg_path), "--output-dir", str(out)])
    return inv, code, out


def _inflate_beta1(csv_path, factor):
    lines = csv_path.read_text().splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[2] = f"{float(cells[2]) * factor:.17g}"
        rows.append(",".join(cells))
    csv_path.write_text("\n".join(rows) + "\n")


def test_checks_accept_real_output(tmp_path):
    inv, code, out = _run_certify(tmp_path)
    assert checks.check_invocation(inv, code, out) == []
    worst, failures = checks.reference_errors([inv], [out], seed=0)
    assert failures == [] and 0 < worst < checks.TALBOT_TOL


def test_checks_reject_inflated_beta1(tmp_path):
    inv, code, out = _run_certify(tmp_path)
    _inflate_beta1(out / "results.csv", 1.05)
    assert any("beta1^2" in m for m in checks.check_invocation(inv, code, out))
    _, failures = checks.reference_errors([inv], [out], seed=0)
    assert failures and failures[0][0] == "certify" and "Talbot" in failures[0][1]


def test_checks_reject_wrong_exit_code_and_row_count(tmp_path):
    inv, code, out = _run_certify(tmp_path)
    assert checks.check_invocation(inv, 3, out) == ["certify: exit code 3"]
    short = workloads.Invocation(inv.label, inv.subcommand, inv.config, inv.rows + 1)
    assert "rows, expected" in checks.check_invocation(short, code, out)[0]


# --- span recorder ---------------------------------------------------------------


def test_pool_spans_take_cli_main_as_parent_and_overlap_is_measured():
    rec = spans.Recorder()
    leaf = rec.wrap("quantum.leaf", lambda: time.sleep(0.05))

    def fake_main():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: leaf(), range(2)))

    root = rec.wrap("cli.main", fake_main)
    rec.active = True
    root()
    main_span = next(s for s in rec.spans if s.name == "cli.main")
    leaves = [s for s in rec.spans if s.name == "quantum.leaf"]
    assert len(leaves) == 2 and all(s.parent == main_span.id for s in leaves)
    summary = spans.summarize(rec.spans)
    union = spans.union_length([(s.start, s.end) for s in leaves])
    assert summary.self_s["cli.main"] == pytest.approx(
        main_span.end - main_span.start - union, abs=1e-9)
    assert summary.overlap_s == pytest.approx(sum(s.end - s.start for s in leaves) - union)
    assert summary.overlap_s > 0.02


def test_union_length():
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.union_length([]) == 0


# --- the command ------------------------------------------------------------------


def _run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_traced_counts_repeat_and_nothing_lands_outside_bench():
    before = {p: sorted(p.iterdir()) for p in (ROOT, ROOT / "configs")}
    runs = [_run_bench("--workload", "discrete_chain", "--seed", "5", "--seconds", "0",
                       "--trace", "1") for _ in range(2)]
    assert {p: sorted(p.iterdir()) for p in (ROOT, ROOT / "configs")} == before
    assert not (BENCH / ".work").exists()
    results = []
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0
        results.append(last["metrics"])
    counts = {k for k, v in results[0].items() if v["unit"] == "count"}
    assert {k: results[0][k] for k in counts} == {k: results[1][k] for k in counts}
    assert results[0]["continuum.series.calls"]["value"] == 0
    assert results[0]["collisions.pure.steps"]["value"] > 0
    assert results[0]["cli.thread_overlap_s"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    proc = _run_bench("--workload", "discrete_chain", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_declared_metric_is_computed():
    import run

    result = {"wall_ref_s": [1.0], "cpu_ref_s": [1.0], "setup_s": [1.0], "peak_rss_mb": 1.0,
              "max_ref_err": 1e-9}
    assert set(run.end_to_end(result)) == set(run.E2E_UNITS)
    layers = run.layer_values(spans.summarize([]), rows=0, closed_form_rows=0, hit_ratio=0.0)
    assert set(layers) | {"trace.overhead_s"} == set(run.LAYER_UNITS)
    assert [w["name"] for w in run.SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_rescaling_follows_the_program_and_cancels_the_host():
    import calibration
    import run

    ref = calibration.REF_KERNEL_S
    # a host twice as slow doubles both the program and the kernel
    assert run.rescale([2.0, 4.0], [ref, 2 * ref]) == pytest.approx([2.0, 2.0])
    # at the reference host's speed the figures are the raw times
    assert run.rescale([1.0, 0.5], [ref, ref]) == pytest.approx([1.0, 0.5])
    assert calibration.kernel() > 0
