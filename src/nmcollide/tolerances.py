"""Numerical tolerances used by type validation and certification.

Every threshold that type validation and certification apply is one
module-level constant here, so that each is written once and can be
audited in one place. No config field changes them.
"""

# max |A - A^dagger| entry for anything declared Hermitian
HERMITICITY = 1e-12
# |tr(rho) - 1| for density operators
UNIT_TRACE = 1e-12
# density-operator eigenvalues may dip to -POSITIVITY before rejection
POSITIVITY = 1e-10
# max |sum K^dagger K - 1| entry for Kraus channels
KRAUS_COMPLETENESS = 1e-10
# Choi eigenvalues may dip to -CHOI_POSITIVITY before kraus_from_choi refuses a map
CHOI_POSITIVITY = 1e-10
# residual imaginary part allowed when a result is provably real
IMAGINARY_RESIDUE = 1e-10
# max |E(0) - 1| entry for a memory kernel, whose series starts at the identity map
KERNEL_IDENTITY = 1e-12
# the default tolerance of certify_cpt and of the certify mode, and the tolerance of every other
# mode's CPT verdict: a Choi eigenvalue below -CPT_TOLERANCE, or a trace defect above it, fails
# certification; the closed form's beta1^2 <= beta2 and 0 <= beta2 <= 1 hold within it too
CPT_TOLERANCE = 1e-9
