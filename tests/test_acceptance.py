"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
as they complete). Tolerances are pinned here, not configurable.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from nmcollide import (
    BathSpec,
    CollisionConfig,
    DensityOperator,
    TimeGrid,
    beta1,
    beta2,
    beta_laplace,
    brute_force_chain,
    certify_cpt,
    choi_of,
    convergence_study,
    discrete_maps,
    inverse_laplace,
    jc_hamiltonian,
    jc_maps,
    kraus_from_choi,
    lambda_embedding,
    trace_distance,
)
from nmcollide.continuum import adc_decay_kernel, build_kernel_map, lambda_series, lindblad_limit
from nmcollide.verify import corrupted_beta_maps

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GAMMAS_CERT = (0.0, 0.5, 1.0, 2.0, 5.0, 50.0)
TAUS_CERT = np.round(np.arange(0.0, 20.0 + 1e-9, 0.01), 10)

PROBE = DensityOperator(np.array([[0.4, 0.25 + 0.2j], [0.25 - 0.2j, 0.6]]))


def report(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {status}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def test_criterion_01_cpt_certification_sweep():
    started = time.perf_counter()
    worst_eig = 0.0
    worst_defect = 0.0
    for gamma in GAMMAS_CERT:
        for choi in jc_maps(TAUS_CERT, gamma).choi():
            ch = kraus_from_choi(choi)
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(choi_of(ch))[0]))
            worst_defect = max(worst_defect, ch.trace_defect())
    elapsed = time.perf_counter() - started
    ok = worst_eig >= -1e-9 and worst_defect <= 1e-10 and elapsed < 30.0
    report(
        1,
        "closed-form channel family is CPT on the full (tau, gamma) grid",
        ok,
        f"min eig {worst_eig:.2e}, defect {worst_defect:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_beta_inequality_sweep():
    started = time.perf_counter()
    ok = True
    worst_upper = 0.0
    worst_pair = 0.0
    for gamma in GAMMAS_CERT:
        b1 = beta1(TAUS_CERT, gamma)
        b2 = beta2(TAUS_CERT, gamma)
        worst_upper = max(worst_upper, float(np.max(b2 - 1.0)), float(np.max(-b2)))
        worst_pair = max(worst_pair, float(np.max(b1 * b1 - b2)))
        ok = ok and np.all(b2 <= 1.0 + 1e-9) and np.all(b2 >= -1e-9)
        ok = ok and np.all(b1 * b1 <= b2 + 1e-9)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    report(
        2,
        "0 <= beta2 <= 1 and beta1^2 <= beta2 across the full grid",
        ok,
        f"max(beta2-1) {worst_upper:.2e}, max(beta1^2-beta2) {worst_pair:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_closed_form_vs_inverse_laplace():
    taus = np.round(np.arange(0.1, 10.0 + 1e-9, 0.1), 10)
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0, 5.0):
        for tau in taus:
            o1 = inverse_laplace(lambda s: beta_laplace(1, s, gamma), float(tau))
            o2 = inverse_laplace(lambda s: beta_laplace(2, s, gamma), float(tau))
            worst = max(worst, abs(o1 - beta1(float(tau), gamma)))
            worst = max(worst, abs(o2 - beta2(float(tau), gamma)))
    report(
        3,
        "closed forms match the Talbot inversion of their Laplace transforms",
        worst <= 1e-8,
        f"max |diff| {worst:.2e}",
    )


def test_criterion_04_series_vs_closed_form():
    started = time.perf_counter()
    kernel = build_kernel_map(jc_hamiltonian())
    grid = TimeGrid(t_max=5.0, n_points=5001)  # dt = 1e-3
    worst = 0.0
    for gamma in (0.0, 1.0, 2.0):
        maps = lambda_series(kernel, gamma, grid).maps
        target = jc_maps(maps.times, gamma).superops
        worst = max(worst, float(np.max(np.abs(maps.superops - target))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-4 and elapsed < 120.0
    report(
        4,
        "auto-convolution series reproduces the closed-form matrix elements",
        ok,
        f"max |diff| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_discrete_continuum_convergence():
    result = convergence_study(1.0, 5.0, [0.1, 0.05, 0.025])
    errors = result.errors
    monotone = errors[0] > errors[1] > errors[2]
    ok = monotone and result.estimated_order is not None and result.estimated_order >= 0.8
    report(
        5,
        "discrete trajectories converge to the closed-form map with order >= 0.8",
        ok,
        f"errors {[f'{e:.2e}' for e in errors]}, order {result.estimated_order:.2f}",
    )


def _slope(t_c_values, errors) -> float:
    return float(np.polyfit(np.log(t_c_values), np.log(errors), 1)[0])


def test_splitting_is_second_order_on_the_convergence_grid():
    # the protocol is the Lie-Trotter splitting of L = -i[H, .] + gamma (R - 1), and its
    # reduced states are those of the symmetric (Strang) splitting: order 2, not 1
    config = json.loads((CONFIG_DIR / "convergence.json").read_text(encoding="utf-8"))
    result = convergence_study(config["gamma_bar"], config["tau_max"], config["t_c_list"])
    assert abs(result.estimated_order - 2.0) <= 0.05, result.estimated_order


def test_thermal_discrete_maps_converge_at_second_order():
    # the superoperators themselves, for a thermal bath, against the generator's exact maps
    h, gamma, weights = jc_hamiltonian(), 1.0, (0.7, 0.3)
    t_c_values = [0.1, 0.05, 0.025, 0.0125]
    errors = []
    for t_c in t_c_values:
        n_steps = round(5.0 / t_c)
        cfg = CollisionConfig(
            system_dim=2, ancilla_dim=2, hamiltonian=h, t_c=t_c, p_s=float(np.exp(-gamma * t_c)),
            n_steps=n_steps, bath=BathSpec(kind="thermal", weights=weights),
        )
        exact = lambda_embedding(h, weights, gamma, TimeGrid(t_max=5.0, n_points=n_steps + 1))
        errors.append(float(np.max(np.abs(discrete_maps(cfg).superops - exact.superops))))
    assert abs(_slope(t_c_values, errors) - 2.0) <= 0.05, errors


def test_criterion_06_zero_rate_exactness():
    h = jc_hamiltonian()
    t_c = 1e-3
    n_steps = int(2 * np.pi / t_c)
    cfg = CollisionConfig(
        system_dim=2, ancilla_dim=2, hamiltonian=h, t_c=t_c, p_s=1.0,
        n_steps=n_steps, bath=BathSpec(kind="pure_ground"),
    )
    stack = discrete_maps(cfg)
    excited = stack.apply(DensityOperator.basis(2, 1))
    plus = stack.apply(DensityOperator(np.full((2, 2), 0.5)))
    taus = stack.times
    err_b2 = float(np.max(np.abs(excited[:, 1, 1].real - np.cos(taus) ** 2)))
    err_b1 = float(np.max(np.abs(2.0 * plus[:, 0, 1].real - np.cos(taus))))
    ok = err_b1 <= 5e-3 and err_b2 <= 5e-3
    report(
        6,
        "perfect-swap protocol reproduces beta1 = cos, beta2 = cos^2",
        ok,
        f"beta1 err {err_b1:.2e}, beta2 err {err_b2:.2e}",
    )


def test_criterion_07_sliding_window_oracle():
    h = jc_hamiltonian()
    worst = 0.0
    for bath in (
        BathSpec(kind="pure_ground"),
        BathSpec(kind="thermal", energies=(0.0, 1.0), inverse_temperature=0.7),
    ):
        for p_s in (0.0, 0.3, 1.0):
            cfg = CollisionConfig(
                system_dim=2, ancilla_dim=2, hamiltonian=h, t_c=0.4, p_s=p_s,
                n_steps=4, bath=bath,
            )
            fast = discrete_maps(cfg).apply(PROBE)
            slow = brute_force_chain(cfg, PROBE)
            for a, b in zip(fast, slow.states):
                worst = max(worst, trace_distance(a, b))
    report(
        7,
        "sliding-window engine equals the brute-force chain per step",
        worst <= 1e-12,
        f"max distance {worst:.2e}",
    )


def test_criterion_08_thermal_reduction():
    h = jc_hamiltonian()
    cfg_thermal = CollisionConfig(
        system_dim=2, ancilla_dim=2, hamiltonian=h, t_c=0.3, p_s=0.4,
        n_steps=12, bath=BathSpec(kind="thermal", weights=(1.0, 0.0)),
    )
    cfg_pure = CollisionConfig(
        system_dim=2, ancilla_dim=2, hamiltonian=h, t_c=0.3, p_s=0.4,
        n_steps=12, bath=BathSpec(kind="pure_ground"),
    )
    traj_t = discrete_maps(cfg_thermal).apply(PROBE)
    traj_p = discrete_maps(cfg_pure).apply(PROBE)
    worst_run = max(trace_distance(a, b) for a, b in zip(traj_t, traj_p))

    times = np.linspace(0.0, 6.0, 25)
    pure_states = build_kernel_map(h).maps(times).apply(PROBE)
    zero_t_states = build_kernel_map(h, (1.0, 0.0)).maps(times).apply(PROBE)
    worst_kernel = max(trace_distance(a, b) for a, b in zip(zero_t_states, pure_states))

    mixed = DensityOperator.maximally_mixed(2)
    hot_states = build_kernel_map(h, (0.5, 0.5)).maps(times).apply(mixed)
    worst_fixed = max(trace_distance(state, mixed) for state in hot_states)
    ok = worst_run <= 1e-12 and worst_kernel <= 1e-12 and worst_fixed <= 1e-10
    report(
        8,
        "thermal machinery reduces to the pure bath at weights (1,0); "
        "maximally mixed state is a fixed point at infinite temperature",
        ok,
        f"run {worst_run:.2e}, kernel {worst_kernel:.2e}, fixed point {worst_fixed:.2e}",
    )


def test_criterion_09_negative_control():
    maps = corrupted_beta_maps(1.0, np.linspace(0.0, 5.0, 21))
    verdict = certify_cpt(maps, 1e-9).verdict
    report(
        9,
        "certifier flags the 5%-inflated coherence map as non-CP",
        verdict is False,
        "verdict false as required",
    )


def test_criterion_10_markovian_limit_structure():
    rate = 0.7
    kernel = adc_decay_kernel(rate)
    excited = DensityOperator.basis(2, 1)
    errs = {}
    for h in (1e-3, 5e-4):
        gen = lindblad_limit(kernel, h, order=1)
        errs[h] = max(
            abs(gen.semigroup(t).apply(excited)[0, 1, 1].real - np.exp(-2.0 * rate * t))
            for t in (0.5, 1.0, 2.0)
        )
    halving = errs[1e-3] / errs[5e-4]
    first_order = 1.5 < halving < 2.6 and errs[1e-3] < 5e-3

    jc_kernel = build_kernel_map(jc_hamiltonian())
    n1 = lindblad_limit(jc_kernel, 1e-3, order=1).norm()
    n2 = lindblad_limit(jc_kernel, 5e-4, order=1).norm()
    slope = float(np.log2(n1 / n2))
    vanishing = abs(slope - 1.0) < 0.1 and n2 < n1

    report(
        10,
        "memoryless limit: damping semigroup error is O(h); exchange-kernel "
        "generator vanishes with unit log-log slope",
        first_order and vanishing,
        f"halving ratio {halving:.2f}, slope {slope:.3f}",
    )
