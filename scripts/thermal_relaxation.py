#!/usr/bin/env python3
"""Excited-state relaxation against bath temperature.

Runs the memoryless protocol (p_s = 0) with every ancilla starting in
the mixed thermal state, for a range of inverse temperatures, and prints
the stationary excited population next to the Boltzmann value of the
bath ancillas. ``discrete_maps`` runs either bath; the bath enters only
through the fresh ancilla state rho_A.

Usage: python scripts/thermal_relaxation.py
"""

from nmcollide import (
    BathSpec,
    CollisionConfig,
    DensityOperator,
    discrete_maps,
    jc_hamiltonian,
    thermal_weights,
)

BETAS = [0.0, 0.5, 1.0, 2.0, 5.0]
ENERGIES = (0.0, 1.0)


def main() -> int:
    h = jc_hamiltonian()
    print(f"{'beta':>6} | {'bath excited weight':>20} | {'stationary population':>22}")
    print("-" * 56)
    for beta in BETAS:
        cfg = CollisionConfig(
            system_dim=2, ancilla_dim=2, hamiltonian=h, t_c=0.5, p_s=0.0,
            n_steps=150,
            bath=BathSpec(kind="thermal", energies=ENERGIES, inverse_temperature=beta),
        )
        final = discrete_maps(cfg)[-1].apply(DensityOperator.basis(2, 1))
        bath_weight = thermal_weights(ENERGIES, beta)[1]
        print(f"{beta:>6g} | {bath_weight:>20.6f} | {final[1, 1].real:>22.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
