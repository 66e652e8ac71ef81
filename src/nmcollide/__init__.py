"""Collision-model simulator for non-Markovian qubit dynamics.

Discrete system-ancilla collision protocol with incoherent partial-swap
intra-bath collisions, its continuous-limit dynamical maps (convolution
series and the reset generator on system and one ancilla), the closed-form
solution for a resonant excitation-exchange coupling, finite-temperature
baths whose ancillas start in a mixed thermal state, and CPT
certification of every produced map.
"""

from .collisions import (
    BathSpec,
    CollisionConfig,
    thermal_weights,
)
from .continuum import (
    LambdaSeriesResult,
    LindbladGenerator,
    MapStack,
    MemoryKernelMap,
    SeriesPolicy,
    TimeGrid,
    adc_decay_kernel,
    build_kernel_map,
    discrete_maps,
    lambda_embedding,
    lambda_series,
    lindblad_limit,
)
from .errors import (
    ConfigurationError,
    DivergenceError,
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
from .tolerances import DEFAULT_TOLERANCES, ToleranceProfile
from .verify import (
    ConvergenceReport,
    CptReport,
    TrajectoryRecord,
    brute_force_chain,
    calibrated_swap_probability,
    certify_cpt,
    convergence_study,
    inverse_laplace,
    random_density_operator,
)

__version__ = "0.1.0"
