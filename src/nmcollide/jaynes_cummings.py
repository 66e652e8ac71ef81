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
fractions), in one batched solve over the distinct gamma_bar of a call,
with no cache; an independent Cardano evaluation of the same roots is kept
as a cross-check. Physical validity requires 0 <= beta2 <= 1 and
beta1^2 <= beta2; violations raise instead of clipping.

gamma_bar is an array axis like tau: every function here that takes both
broadcasts them and treats each (tau, gamma_bar) pair as one point.
``jc_maps`` is the one map constructor: a continuum MapStack with
S[0,0] = 1, S[0,3] = 1 - beta2, S[1,1] = S[2,2] = beta1 and S[3,3] = beta2
on row-major vectorized qubit states, one map per pair. One point,
``jc_maps(tau, g)[0]``, gives the evolved state, Choi matrix and Kraus
channel by ``apply``, ``choi`` and ``to_kraus``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuum import MapStack
from .errors import ConfigurationError, InternalConsistencyError
from .quantum import HermitianOperator, KrausChannel
from .tolerances import DEFAULT_TOLERANCES

__all__ = [
    "jc_hamiltonian",
    "adc_channel",
    "CubicSpectrum",
    "beta1",
    "beta2",
    "beta_arrays",
    "jc_maps",
    "cubic_spectrum",
    "cubic_spectrum_cardano",
    "cosine_power_laplace",
    "beta_laplace",
]

BETA_SLACK = 1e-9  # allowed numerical excursion on the CPT inequalities


def jc_hamiltonian() -> HermitianOperator:
    """Resonant excitation-exchange coupling Omega (s+ a- + s- a+) on qubit (x) qubit at
    Omega = 1: times are in units of 1/Omega, (Omega, t) being the run (1, Omega t)."""
    h = np.zeros((4, 4), dtype=np.complex128)
    h[2, 1] = 1.0  # |0,1> -> |1,0|
    h[1, 2] = 1.0
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


def _domain(tau, gamma_bar):
    """tau (at least 1-d) and gamma_bar as float arrays, once every (tau, gamma_bar) pair of
    their broadcast is checked to lie in the closed form's domain."""
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    g = np.asarray(gamma_bar, dtype=float)
    if np.isnan(g).any() or np.isnan(tau_arr).any():
        raise ConfigurationError("gamma_bar and tau must be numbers, not NaN")
    if (g < 0).any():
        raise ConfigurationError("memory-loss rate must be nonnegative")
    if (tau_arr < 0).any():
        raise ConfigurationError("tau must be nonnegative")
    beyond = (g > DOMAIN_BOUND) | (tau_arr > DOMAIN_BOUND)
    if not beyond.any():  # both factors at most DOMAIN_BOUND: the product cannot overflow
        beyond = g * tau_arr > DOMAIN_BOUND
    if beyond.any():
        j = np.argmax(beyond)
        t, gj = (np.broadcast_to(v, beyond.shape).flat[j] for v in (tau_arr, g))
        raise ConfigurationError(
            f"gamma_bar = {gj:g}, tau = {t:g}: gamma_bar, tau and gamma_bar * tau "
            f"must not exceed {DOMAIN_BOUND:.4g}, beyond which the closed form overflows"
        )
    return tau_arr, g


def beta1(tau, gamma_bar):
    """Coherence factor of the dynamical map at each (tau, gamma_bar) pair, the two broadcast.

    Below gamma_bar = 2 this is a damped oscillation, above it a
    biexponential decay; the degenerate boundary value is
    e^{-tau} (1 + tau). Stable for any magnitude of gamma_bar * tau:
    the hyperbolic branch is assembled from decaying exponentials only,
    with the slow rate written as tau^2 / (sqrt(w) + gamma_bar*tau/2)
    (equal to gamma_bar*tau/2 - sqrt(w), since w - (gamma_bar*tau/2)^2 =
    -tau^2) so that it does not cancel at large gamma_bar.
    """
    scalar = np.ndim(tau) == 0 and np.ndim(gamma_bar) == 0
    tau_arr, g = _domain(tau, gamma_bar)
    half = 0.5 * g * tau_arr
    w = (0.25 * g * g - 1.0) * tau_arr * tau_arr
    tau_arr = np.broadcast_to(tau_arr, w.shape)

    out = np.empty_like(tau_arr)
    # split-exponential form for strongly hyperbolic w, immune to overflow
    big = w > 50.0
    if np.any(big):
        root = np.sqrt(w[big])
        hb = half[big]
        ratio = hb / root
        slow = np.exp(-tau_arr[big] ** 2 / (root + hb))
        out[big] = 0.5 * (1.0 + ratio) * slow + 0.5 * (1.0 - ratio) * np.exp(-(root + hb))
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


def _residue_check(residues: np.ndarray, rates=None) -> None:
    """beta2(0) = 1: every row of residues sums to 1 (a NaN sum fails)."""
    total = residues.sum(axis=-1)
    ok = np.abs(total - 1.0) <= 1e-10
    if not ok.all():
        j = int(np.argmin(ok))
        where = "" if rates is None else f" at gamma_bar={rates[j]}"
        raise InternalConsistencyError(
            f"residues must sum to 1 (beta2(0) = 1), got {total[j]}{where}"
        )


def _evaluate(alphas: np.ndarray, residues: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """beta2 = sum_i A_i e^{alpha_i tau}, with alphas and residues (..., 3) broadcast against
    tau; raises if the sum is not real."""
    acc = np.zeros(np.broadcast_shapes(alphas.shape[:-1], tau.shape), dtype=np.complex128)
    for k in range(3):
        acc += residues[..., k] * np.exp(alphas[..., k] * tau)
    imag = float(np.max(np.abs(acc.imag))) if acc.size else 0.0
    if imag > DEFAULT_TOLERANCES.imaginary_residue:
        raise InternalConsistencyError(f"beta2 imaginary residue {imag:.3e}")
    return acc.real


@dataclass(frozen=True)
class CubicSpectrum:
    """Poles and residues of the population factor: beta2(tau) = sum A_i e^{alpha_i tau}.

    alphas[0] is the real pole; alphas[1] and alphas[2] are a conjugate
    pair (the cubic's discriminant is negative for every gamma_bar >= 0).
    """

    alphas: tuple
    residues: tuple

    def __post_init__(self):
        _residue_check(np.array([self.residues]))

    def evaluate(self, tau) -> np.ndarray:
        return _evaluate(np.array(self.alphas), np.array(self.residues),
                         np.atleast_1d(np.asarray(tau, dtype=float)))


def _spectra(rates: np.ndarray):
    """Poles and residues of beta2, two (G, 3) complex arrays, for a 1-d array of rates
    inside the domain; each row is laid out as in CubicSpectrum.

    The real pole r is the eigenvalue of smallest magnitude (about -2/gamma_bar
    at large rates) of the cubic's companion matrix, the matrix np.roots
    builds, tightened by one Newton step. The conjugate pair follows from
    Vieta's relations, Re = -(2 gamma_bar + r)/2 and
    Im^2 = 4 + gamma_bar r + 3 r^2 / 4, which do not cancel: above
    gamma_bar ~ 1e8 the eigensolver alone can return the pair as two
    nearby reals. The residues are the partial fractions
    ((s + gamma_bar)^2 + 2) / p'(s) of the Laplace transform's
    denominator p(s) = s^3 + 2 gamma_bar s^2 + (gamma_bar^2 + 4) s + 2 gamma_bar.
    """
    g = rates
    c1, c2 = 2.0 * g, g * g + 4.0
    companion = np.zeros((len(g), 3, 3))
    companion[:, 0, 0] = companion[:, 0, 2] = -c1
    companion[:, 0, 1] = -c2
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    r = roots[np.arange(len(g)), np.argmin(np.abs(roots), axis=1)].real

    def dp(s):  # p'(s) by Horner's rule, as np.polyval evaluates it
        return (3.0 * s + 4.0 * g) * s + c2

    r = r - (((r + c1) * r + c2) * r + c1) / dp(r)
    x, y = -(2.0 * g + r) / 2.0, np.sqrt(4.0 + g * r + 0.75 * r * r)
    pair = x + 1j * y
    # (r + g)^2 through libm's pow, as Python's float ** 2 computes it: (r + g) * (r + g)
    # rounds differently for about 1 rate in 2000, and the tests hold every pole and residue
    # to the scalar np.roots route bit for bit
    real_res = (np.array([v ** 2 for v in (r + g).tolist()]) + 2.0) / dp(r)
    # the pair's (s + g)^2 + 2 written out component by component, each part rounded like
    # the real arithmetic above, with no complex-multiply kernel in between
    xs = x + g
    pair_res = ((xs * xs - y * y + 2.0) + 1j * (xs * y + y * xs)) / dp(pair)
    alphas = np.stack([r.astype(np.complex128), pair, pair.conj()], axis=1)
    residues = np.stack([real_res.astype(np.complex128), pair_res, pair_res.conj()], axis=1)
    _residue_check(residues, g)
    return alphas, residues


def cubic_spectrum(gamma_bar: float) -> CubicSpectrum:
    """Pole/residue data for beta2: the one-row view of the batched spectrum solve."""
    _, g = _domain(0.0, gamma_bar)
    alphas, residues = _spectra(g.reshape(1))
    return CubicSpectrum(alphas=tuple(map(complex, alphas[0])),
                         residues=tuple(map(complex, residues[0])))


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


def beta2(tau, gamma_bar):
    """Excited-population factor of the dynamical map at each (tau, gamma_bar) pair, the two
    broadcast; one spectrum solve covers every distinct gamma_bar."""
    scalar = np.ndim(tau) == 0 and np.ndim(gamma_bar) == 0
    tau_arr, g = _domain(tau, gamma_bar)
    rates, row = np.unique(g, return_inverse=True)
    alphas, residues = _spectra(rates)
    row = row.reshape(g.shape)  # a scalar gamma_bar picks one row, broadcast against tau
    vals = _evaluate(alphas[row], residues[row], tau_arr)
    return float(vals[0]) if scalar else vals


def beta_arrays(taus, gamma_bar):
    """(beta1, beta2) at each (tau, gamma_bar) pair, taus and gamma_bar broadcast to one 1-d
    array, held to 0 <= beta1^2 <= beta2 <= 1 (BETA_SLACK).

    Raises InternalConsistencyError naming the first (tau, gamma_bar) that
    violates them (a NaN counts as a violation); values are never clipped.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    b1 = beta1(taus, gamma_bar)
    b2 = beta2(taus, gamma_bar)
    ok = (b2 >= -BETA_SLACK) & (b2 <= 1.0 + BETA_SLACK) & (b1 * b1 <= b2 + BETA_SLACK)
    if not np.all(ok):
        j = int(np.argmin(ok))
        tau_j = np.broadcast_to(taus, ok.shape)[j]
        gamma_j = np.broadcast_to(np.asarray(gamma_bar, dtype=float), ok.shape)[j]
        raise InternalConsistencyError(
            f"beta1 = {b1[j]}, beta2 = {b2[j]} violate 0 <= beta1^2 <= beta2 <= 1 "
            f"at tau={tau_j}, gamma_bar={gamma_j}"
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


def jc_maps(taus, gamma_bar) -> MapStack:
    """The map at each (tau, gamma_bar) pair as one MapStack, taus and gamma_bar broadcast to
    one 1-d array (one map for a scalar pair), its betas held to beta_arrays' inequalities."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    b1, b2 = beta_arrays(taus, gamma_bar)
    s = np.zeros((len(b1), 4, 4), dtype=np.complex128)
    s[:, 0, 0] = 1.0
    s[:, 0, 3] = 1.0 - b2
    s[:, 1, 1] = b1
    s[:, 2, 2] = b1
    s[:, 3, 3] = b2
    return MapStack(np.broadcast_to(taus, b1.shape), s, 2)
