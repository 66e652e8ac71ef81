"""Numerical tolerances used by type validation and certification.

A single profile, ``DEFAULT_TOLERANCES``, keeps every threshold that type
validation and certification apply in one auditable place instead of
scattering magic numbers. No config field changes it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceProfile:
    # max |A - A^dagger| entry for anything declared Hermitian
    hermiticity: float = 1e-12
    # |tr(rho) - 1| for density operators
    unit_trace: float = 1e-12
    # density-operator eigenvalues may dip to -positivity before rejection
    positivity: float = 1e-10
    # max |sum K^dagger K - 1| entry for Kraus channels
    kraus_completeness: float = 1e-10
    # Choi eigenvalues may dip to -choi_positivity in certification
    choi_positivity: float = 1e-10
    # residual imaginary part allowed when a result is provably real
    imaginary_residue: float = 1e-10
    # max |E(0) - 1| entry for a memory kernel, whose series starts at the identity map
    kernel_identity: float = 1e-12


DEFAULT_TOLERANCES = ToleranceProfile()
