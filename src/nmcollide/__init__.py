"""Collision-model simulator for non-Markovian qubit dynamics.

Discrete system-ancilla collision protocol with incoherent partial-swap
intra-bath collisions and its continuous-limit dynamical maps (the reset
generator on system and one ancilla), both from one engine in
``collisions``, the closed-form solution for a resonant excitation-exchange
coupling, finite-temperature baths whose ancillas start in a mixed thermal
state, and CPT certification of every produced map. Every route returns
its maps as one ``MapStack``, the form that ``certify_cpt`` takes; the
Kraus layer (``KrausChannel``, ``choi_of``, ``kraus_from_choi``) is exported
as an independent reference. The paper's convolution series and its
memoryless limit are :mod:`nmcollide.continuum`, which the package root
does not import.
"""

from .collisions import (
    BathSpec,
    CollisionConfig,
    MapStack,
    TimeGrid,
    discrete_maps,
    lambda_embedding,
    thermal_weights,
)
from .errors import (
    ConfigurationError,
    InternalConsistencyError,
    NmcollideError,
    ValidationError,
)
from .jaynes_cummings import (
    beta1,
    beta2,
    beta_arrays,
    beta_laplace,
    jc_hamiltonian,
    jc_maps,
)
from .quantum import (
    DensityOperator,
    HermitianOperator,
    KrausChannel,
    choi_of,
    density_stack,
    hermitian_spectra,
    kraus_from_choi,
    trace_distance,
    trace_distances,
    unitary_evolution,
)
from .verify import (
    ConvergenceReport,
    CptReport,
    TrajectoryRecord,
    brute_force_chain,
    calibrated_swap_probability,
    certify_cpt,
    convergence_study,
    inverse_laplace,
)

__version__ = "0.1.0"
