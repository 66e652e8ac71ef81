"""Closed-form dynamical map for a resonant exchange (Jaynes-Cummings) coupling.

For a qubit exchanging a single excitation with each fresh ancilla, the
dynamical map at rescaled time tau = Omega*t is fully specified by two
scalars: beta1(tau) scales the coherence and beta2(tau) the excited
population, with memory-loss rate gamma_bar = Gamma/Omega,

    rho(tau) = [[1 - beta2*p, beta1*r], [beta1*conj(r), beta2*p]].

beta1 has a closed two-pole form with a trigonometric branch below
gamma_bar = 2, a hyperbolic branch above, and the degenerate limit
e^{-tau}(1 + tau) at the boundary; all three are evaluated here through
one analytic function of w = (gamma_bar^2/4 - 1) * tau^2, so the branch
switch is seamless.

beta2 is a three-pole inverse Laplace transform. The authoritative route
finds the cubic's roots numerically and takes residues (partial
fractions); an independent Cardano evaluation of the same roots is kept
as a cross-check. Physical validity requires 0 <= beta2 <= 1 and
beta1^2 <= beta2; violations raise instead of clipping.

``jc_maps`` is the one place the map is assembled: a continuum MapStack
with S[0,0] = 1, S[0,3] = 1 - beta2, S[1,1] = S[2,2] = beta1 and
S[3,3] = beta2 on row-major vectorized qubit states. The single-point
state, superoperator, Choi matrix and Kraus channel all read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .continuum import MapStack
from .errors import ConfigurationError, InternalConsistencyError
from .quantum import ChoiMatrix, DensityOperator, HermitianOperator, KrausChannel, kraus_from_choi
from .tolerances import DEFAULT_TOLERANCES

__all__ = [
    "jc_hamiltonian",
    "adc_channel",
    "BetaPair",
    "CubicSpectrum",
    "QubitStateParams",
    "beta1",
    "beta2",
    "beta_pair",
    "beta_arrays",
    "jc_maps",
    "cubic_spectrum",
    "cubic_spectrum_cardano",
    "cosine_power_laplace",
    "beta_laplace",
    "lambda_jc",
    "lambda_jc_superop",
    "lambda_jc_choi",
    "lambda_jc_channel",
]

BETA_SLACK = 1e-9  # allowed numerical excursion on the CPT inequalities


def jc_hamiltonian(omega: float = 1.0) -> HermitianOperator:
    """Resonant excitation-exchange coupling omega * (s+ a- + s- a+) on qubit (x) qubit."""
    h = np.zeros((4, 4), dtype=np.complex128)
    h[2, 1] = omega  # |0,1> -> |1,0|
    h[1, 2] = omega
    return HermitianOperator(h)


def adc_channel(eta: float) -> KrausChannel:
    """Amplitude damping channel: coherence scaled by eta, excited population by eta^2."""
    if not 0.0 <= eta <= 1.0:
        raise ConfigurationError(f"amplitude transmission {eta} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, eta]], dtype=np.complex128)
    k1 = np.array([[0.0, math.sqrt(max(0.0, 1.0 - eta * eta))], [0.0, 0.0]], dtype=np.complex128)
    return KrausChannel((k0, k1), dim_in=2, dim_out=2)


# --- beta1: two-pole closed form ------------------------------------------

_SERIES_SWITCH = 1e-6  # |w| below this uses the Taylor forms (error ~ w^4/4e5)


def _cosh_sqrt(w: np.ndarray) -> np.ndarray:
    """cosh(sqrt(w)) continued through w < 0, where it equals cos(sqrt(-w))."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < _SERIES_SWITCH
    ws = w[small]
    out[small] = 1.0 + ws / 2.0 + ws * ws / 24.0 + ws * ws * ws / 720.0
    pos = ~small & (w > 0)
    out[pos] = np.cosh(np.sqrt(w[pos]))
    neg = ~small & (w < 0)
    out[neg] = np.cos(np.sqrt(-w[neg]))
    return out


def _sinhc_sqrt(w: np.ndarray) -> np.ndarray:
    """sinh(sqrt(w))/sqrt(w) continued through w < 0 as sin(sqrt(-w))/sqrt(-w)."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < _SERIES_SWITCH
    ws = w[small]
    out[small] = 1.0 + ws / 6.0 + ws * ws / 120.0 + ws * ws * ws / 5040.0
    pos = ~small & (w > 0)
    x = np.sqrt(w[pos])
    out[pos] = np.sinh(x) / x
    neg = ~small & (w < 0)
    x = np.sqrt(-w[neg])
    out[neg] = np.sin(x) / x
    return out


# gamma_bar, tau and gamma_bar * tau up to this bound keep every intermediate
# finite: gamma_bar^2 and 3 gamma_bar^2 (the cubic and its derivative),
# w = (gamma_bar^2/4 - 1) tau^2 and tau^2 (beta1), alpha * tau (beta2)
DOMAIN_BOUND = math.sqrt(np.finfo(float).max) / 2.0  # ~6.7e153


def _domain(tau, gamma_bar: float) -> np.ndarray:
    """tau as a 1-d array, once (tau, gamma_bar) is checked to lie in the closed form's domain."""
    if gamma_bar < 0:
        raise ConfigurationError("memory-loss rate must be nonnegative")
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    if np.any(tau_arr < 0):
        raise ConfigurationError("tau must be nonnegative")
    t = float(tau_arr.max(initial=0.0))
    if max(gamma_bar, t, gamma_bar * t) > DOMAIN_BOUND:
        raise ConfigurationError(
            f"gamma_bar = {gamma_bar:g}, tau = {t:g}: gamma_bar, tau and gamma_bar * tau must not "
            f"exceed {DOMAIN_BOUND:.4g}, beyond which the closed form overflows"
        )
    return tau_arr


def beta1(tau, gamma_bar: float):
    """Coherence factor of the dynamical map.

    Below gamma_bar = 2 this is a damped oscillation, above it a
    biexponential decay; the degenerate boundary value is
    e^{-tau} (1 + tau). Stable for any magnitude of gamma_bar * tau:
    the hyperbolic branch is assembled from decaying exponentials only,
    with the slow rate written as tau^2 / (sqrt(w) + gamma_bar*tau/2)
    (equal to gamma_bar*tau/2 - sqrt(w), since w - (gamma_bar*tau/2)^2 =
    -tau^2) so that it does not cancel at large gamma_bar.
    """
    scalar = np.ndim(tau) == 0
    tau_arr = _domain(tau, gamma_bar)
    half = 0.5 * gamma_bar * tau_arr
    w = (0.25 * gamma_bar * gamma_bar - 1.0) * tau_arr * tau_arr

    out = np.empty_like(tau_arr)
    # split-exponential form for strongly hyperbolic w, immune to overflow
    big = w > 50.0
    if np.any(big):
        g = np.sqrt(w[big])
        hb = half[big]
        ratio = hb / g
        slow = np.exp(-tau_arr[big] ** 2 / (g + hb))
        out[big] = 0.5 * (1.0 + ratio) * slow + 0.5 * (1.0 - ratio) * np.exp(-(g + hb))
    rest = ~big
    out[rest] = np.exp(-half[rest]) * (
        half[rest] * _sinhc_sqrt(w[rest]) + _cosh_sqrt(w[rest])
    )
    return float(out[0]) if scalar else out


def beta1_degenerate_series(tau, gamma_bar: float):
    """Taylor-in-w evaluation around the gamma_bar = 2 degeneracy.

    Used to verify branch continuity; at gamma_bar = 2 exactly it reduces
    to e^{-tau} (1 + tau).
    """
    tau_arr = np.asarray(tau, dtype=float)
    half = 0.5 * gamma_bar * tau_arr
    w = (0.25 * gamma_bar * gamma_bar - 1.0) * tau_arr * tau_arr
    sinhc = 1.0 + w / 6.0 + w * w / 120.0 + w * w * w / 5040.0
    cosh = 1.0 + w / 2.0 + w * w / 24.0 + w * w * w / 720.0
    return np.exp(-half) * (half * sinhc + cosh)


# --- beta2: three-pole spectrum --------------------------------------------


@dataclass(frozen=True)
class CubicSpectrum:
    """Poles and residues of the population factor: beta2(tau) = sum A_i e^{alpha_i tau}.

    alphas[0] is the real pole; alphas[1] and alphas[2] are a conjugate
    pair (the cubic's discriminant is negative for every gamma_bar >= 0).
    """

    alphas: tuple
    residues: tuple

    def __post_init__(self):
        total = sum(self.residues)
        if abs(total - 1.0) > 1e-10:
            raise InternalConsistencyError(
                f"residues must sum to 1 (beta2(0) = 1), got {total}"
            )

    def evaluate(self, tau) -> np.ndarray:
        tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
        acc = np.zeros(tau_arr.shape, dtype=np.complex128)
        for a, r in zip(self.alphas, self.residues):
            acc += r * np.exp(a * tau_arr)
        imag = float(np.max(np.abs(acc.imag))) if acc.size else 0.0
        if imag > DEFAULT_TOLERANCES.imaginary_residue:
            raise InternalConsistencyError(f"beta2 imaginary residue {imag:.3e}")
        return acc.real


def _beta2_cubic_coeffs(gamma_bar: float) -> np.ndarray:
    # denominator of the Laplace transform of beta2, as a cubic in s
    g = gamma_bar
    return np.array([1.0, 2.0 * g, g * g + 4.0, 2.0 * g])


@lru_cache(maxsize=256)
def cubic_spectrum(gamma_bar: float) -> CubicSpectrum:
    """Pole/residue data for beta2 via numerical roots and partial fractions.

    The real pole r is the root of smallest magnitude (about -2/gamma_bar at
    large rates), tightened by one Newton step. The conjugate pair follows
    from Vieta's relations, Re = -(2 gamma_bar + r)/2 and
    Im^2 = 4 + gamma_bar r + 3 r^2 / 4, which do not cancel: above
    gamma_bar ~ 1e8 the root finder alone can return the pair as two
    nearby reals.
    """
    if gamma_bar < 0:
        raise ConfigurationError("memory-loss rate must be nonnegative")
    g = float(gamma_bar)
    coeffs = _beta2_cubic_coeffs(g)
    roots = np.roots(coeffs)
    if roots.shape != (3,):
        raise InternalConsistencyError(f"cubic root finding failed at gamma_bar={g}")
    dcoeffs = np.array([3.0, 4.0 * g, g * g + 4.0])
    r = float(roots[np.argmin(np.abs(roots))].real)
    r -= float(np.polyval(coeffs, r) / np.polyval(dcoeffs, r))
    pair = complex(-(2.0 * g + r) / 2.0, math.sqrt(4.0 + g * r + 0.75 * r * r))
    real_res, pair_res = (
        complex(((s + g) ** 2 + 2.0) / np.polyval(dcoeffs, s)) for s in (r, pair)
    )
    return CubicSpectrum(
        alphas=(complex(r), pair, pair.conjugate()),
        residues=(complex(real_res.real), pair_res, pair_res.conjugate()),
    )


def cubic_spectrum_cardano(gamma_bar: float) -> CubicSpectrum:
    """The same spectrum from explicit Cardano radicals (cross-check route).

    The radicals use the principal real cube root; the pole parameters are
    the exponential rates themselves, so beta2(tau) = sum A_i e^{alpha_i tau}
    with no extra factor of i in the exponent.
    """
    g = float(gamma_bar)
    if g < 0:
        raise ConfigurationError("memory-loss rate must be nonnegative")
    delta = math.sqrt(6.0 * g**4 - 39.0 * g**2 + 192.0)
    c = (g**3 + 3.0 * delta + 9.0 * g) ** (1.0 / 3.0)
    alpha1 = complex(((g - c) ** 2 - 12.0) / (3.0 * c))
    alpha2 = (
        1j * (math.sqrt(3.0) + 1j) * c
        - (1.0 + 1j * math.sqrt(3.0)) * (g * g - 12.0) / c
        - 4.0 * g
    ) / 6.0
    alpha3 = alpha2.conjugate()
    a1 = (2.0 * g * alpha1 + alpha1**2 + g * g + 2.0) / (
        abs(alpha1) ** 2 + abs(alpha2) ** 2 - 2.0 * alpha1.real * alpha2.real
    )
    a2 = (
        1j
        * (2.0 * g * alpha2 + alpha2**2 + g * g + 2.0)
        / (2.0 * (alpha1 - alpha2) * alpha2.imag)
    )
    return CubicSpectrum(
        alphas=(alpha1, alpha2, alpha3),
        residues=(complex(a1.real), a2, a2.conjugate()),
    )


def beta2(tau, gamma_bar: float):
    """Excited-population factor of the dynamical map."""
    scalar = np.ndim(tau) == 0
    vals = cubic_spectrum(float(gamma_bar)).evaluate(_domain(tau, gamma_bar))
    return float(vals[0]) if scalar else vals


@dataclass(frozen=True)
class BetaPair:
    """The (beta1, beta2) pair specifying the map at one (tau, gamma_bar) point."""

    tau: float
    beta1: float
    beta2: float
    gamma_bar: float

    def __post_init__(self):
        if not -BETA_SLACK <= self.beta2 <= 1.0 + BETA_SLACK:
            raise InternalConsistencyError(
                f"beta2 = {self.beta2} outside [0, 1] at tau={self.tau}, gamma_bar={self.gamma_bar}"
            )
        if self.beta1 * self.beta1 > self.beta2 + BETA_SLACK:
            raise InternalConsistencyError(
                f"beta1^2 = {self.beta1**2} exceeds beta2 = {self.beta2} "
                f"at tau={self.tau}, gamma_bar={self.gamma_bar}"
            )


def beta_pair(tau: float, gamma_bar: float) -> BetaPair:
    return BetaPair(
        tau=float(tau),
        beta1=float(beta1(tau, gamma_bar)),
        beta2=float(beta2(tau, gamma_bar)),
        gamma_bar=float(gamma_bar),
    )


def beta_arrays(taus, gamma_bar: float):
    """(beta1, beta2) over a whole tau array, held to BetaPair's inequalities.

    Raises InternalConsistencyError naming the first (tau, gamma_bar) that
    violates them (a NaN counts as a violation); values are never clipped.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    b1 = beta1(taus, gamma_bar)
    b2 = beta2(taus, gamma_bar)
    ok = (b2 >= -BETA_SLACK) & (b2 <= 1.0 + BETA_SLACK) & (b1 * b1 <= b2 + BETA_SLACK)
    if not np.all(ok):
        j = int(np.argmin(ok))
        raise InternalConsistencyError(
            f"beta1 = {b1[j]}, beta2 = {b2[j]} violate 0 <= beta1^2 <= beta2 <= 1 "
            f"at tau={taus[j]}, gamma_bar={gamma_bar}"
        )
    return b1, b2


# --- Laplace-domain forms (consumed by the inverse-transform oracle) -------


def cosine_power_laplace(ell: int, s):
    """Laplace transform of cos(tau)^ell for ell in {1, 2}; generic arithmetic."""
    if ell == 1:
        return s / (s * s + 1)
    if ell == 2:
        return (s * s + 2) / (s * (s * s + 4))
    raise ConfigurationError(f"cosine power {ell} not supported")


def beta_laplace(ell: int, s, gamma_bar: float):
    """Laplace transform of beta_ell: shifted cosine transform through the resolvent."""
    c = cosine_power_laplace(ell, s + gamma_bar)
    return c / (1 - gamma_bar * c)


# --- assembled map ----------------------------------------------------------


@dataclass(frozen=True)
class QubitStateParams:
    """Qubit state as excited population p and coherence r, with |r|^2 <= p(1-p)."""

    p: float
    r: complex

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"population {self.p} outside [0, 1]")
        if abs(self.r) ** 2 > self.p * (1.0 - self.p) + 1e-12:
            raise ConfigurationError("coherence too large for a positive state")

    def to_density(self) -> DensityOperator:
        return DensityOperator(
            np.array(
                [[1.0 - self.p, self.r], [np.conj(self.r), self.p]], dtype=np.complex128
            )
        )


def jc_maps(taus, gamma_bar: float) -> MapStack:
    """The map at each tau as one MapStack, its betas held to beta_arrays' inequalities."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    b1, b2 = beta_arrays(taus, gamma_bar)
    s = np.zeros((len(taus), 4, 4), dtype=np.complex128)
    s[:, 0, 0] = 1.0
    s[:, 0, 3] = 1.0 - b2
    s[:, 1, 1] = b1
    s[:, 2, 2] = b1
    s[:, 3, 3] = b2
    return MapStack(taus, s, 2)


def lambda_jc(tau: float, gamma_bar: float, rho0: QubitStateParams) -> DensityOperator:
    """Evolved state: population scaled by beta2, coherence by beta1."""
    return DensityOperator(jc_maps(tau, gamma_bar).apply(rho0.to_density())[0])


def lambda_jc_superop(tau: float, gamma_bar: float) -> np.ndarray:
    """The map as a 4x4 matrix on row-major vectorized qubit density matrices."""
    return jc_maps(tau, gamma_bar).superops[0]


def lambda_jc_choi(tau: float, gamma_bar: float) -> ChoiMatrix:
    return jc_maps(tau, gamma_bar)[0].choi()


def lambda_jc_channel(tau: float, gamma_bar: float) -> KrausChannel:
    """Kraus form of the map, obtained from its Choi eigendecomposition.

    Raises InternalConsistencyError if the (beta1, beta2) inequalities fail,
    which would make the Choi matrix indefinite; values are never clipped.
    """
    return kraus_from_choi(lambda_jc_choi(tau, gamma_bar))
