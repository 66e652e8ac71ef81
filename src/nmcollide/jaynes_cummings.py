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

beta2 is a three-pole inverse Laplace transform. Its one pole/residue
solve, ``_spectra``, finds the cubic's roots numerically and takes
residues (partial fractions) in one batched solve over the distinct
gamma_bar of a call, with no cache; the tests cross-check its rows against
an independent Cardano evaluation of the same roots. ``beta_laplace``
gives either factor's Laplace transform, for the inverse-transform oracle.
Physical validity requires 0 <= beta2 <= 1 and beta1^2 <= beta2;
violations raise instead of clipping.

gamma_bar is an array axis like tau: every function here that takes both
broadcasts them and treats each (tau, gamma_bar) pair as one point.
``jc_maps`` is the one map constructor: a ``collisions.MapStack`` with
S[0,0] = 1, S[0,3] = 1 - beta2, S[1,1] = S[2,2] = beta1 and S[3,3] = beta2
on row-major vectorized qubit states, one map per pair. One point,
``jc_maps(tau, g)``, is a one-map stack: ``apply(rho)[0]`` is the evolved
state, ``choi()[0]`` the Choi matrix, and ``quantum.kraus_from_choi`` of
that the Kraus channel.
"""

from __future__ import annotations

import math

import numpy as np

from .collisions import MapStack
from .errors import ConfigurationError, InternalConsistencyError
from .quantum import HermitianOperator
from .tolerances import CPT_TOLERANCE, IMAGINARY_RESIDUE

__all__ = [
    "jc_hamiltonian",
    "beta1",
    "beta2",
    "beta_arrays",
    "jc_maps",
    "beta_laplace",
]


def jc_hamiltonian() -> HermitianOperator:
    """Resonant excitation-exchange coupling Omega (s+ a- + s- a+) on qubit (x) qubit at
    Omega = 1: times are in units of 1/Omega, (Omega, t) being the run (1, Omega t)."""
    h = np.zeros((4, 4), dtype=np.complex128)
    h[2, 1] = 1.0  # |0,1> -> |1,0|
    h[1, 2] = 1.0
    return HermitianOperator(h)


# --- beta1: two-pole closed form ------------------------------------------

_SERIES_SWITCH = 1e-6  # |w| below this uses the Taylor forms (error ~ w^4/4e5)


def _cosh_sinhc_sqrt(w: np.ndarray):
    """(cosh(sqrt(w)), sinh(sqrt(w))/sqrt(w)) continued through w < 0, where they are
    cos(sqrt(-w)) and sin(sqrt(-w))/sqrt(-w)."""
    cosh, sinhc = np.empty_like(w), np.empty_like(w)
    small = np.abs(w) < _SERIES_SWITCH
    ws = w[small]
    cosh[small] = 1.0 + ws / 2.0 + ws * ws / 24.0 + ws * ws * ws / 720.0
    sinhc[small] = 1.0 + ws / 6.0 + ws * ws / 120.0 + ws * ws * ws / 5040.0
    for branch, even, odd in ((w > 0, np.cosh, np.sinh), (w < 0, np.cos, np.sin)):
        mask = ~small & branch
        x = np.sqrt(np.abs(w[mask]))
        cosh[mask], sinhc[mask] = even(x), odd(x) / x
    return cosh, sinhc


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
    # the pair named is the first of the broadcast past the bound in any of the three, so that a
    # gamma_bar-major grid names the pair that its first failing one-gamma_bar call would
    beyond = (g > DOMAIN_BOUND) | (tau_arr > DOMAIN_BOUND)
    if beyond.any():  # each factor clipped to DOMAIN_BOUND, so that the product cannot overflow
        beyond |= np.minimum(g, DOMAIN_BOUND) * np.minimum(tau_arr, DOMAIN_BOUND) > DOMAIN_BOUND
    else:
        beyond = g * tau_arr > DOMAIN_BOUND
    if beyond.any():
        j = np.argmax(beyond)
        t, gj = (np.broadcast_to(v, beyond.shape).flat[j] for v in (tau_arr, g))
        raise ConfigurationError(
            f"gamma_bar = {gj:g}, tau = {t:g}: gamma_bar, tau and gamma_bar * tau "
            f"must not exceed {DOMAIN_BOUND:.4g}, beyond which the closed form overflows"
        )
    return tau_arr, g


def _on_domain(factor, tau, gamma_bar):
    """factor (``_beta1`` or ``_beta2``) on the arrays ``_domain`` checks, as a float for a
    scalar pair."""
    out = factor(*_domain(tau, gamma_bar))
    return float(out[0]) if np.ndim(tau) == 0 and np.ndim(gamma_bar) == 0 else out


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
    return _on_domain(_beta1, tau, gamma_bar)


def _beta1(tau_arr: np.ndarray, g: np.ndarray) -> np.ndarray:
    """beta1 on arrays ``_domain`` has checked."""
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
    cosh, sinhc = _cosh_sinhc_sqrt(w[rest])
    out[rest] = np.exp(-half[rest]) * (half[rest] * sinhc + cosh)
    return out


# --- beta2: three-pole spectrum --------------------------------------------


def _spectra(rates: np.ndarray):
    """Poles and residues of beta2(tau) = sum_i A_i e^{alpha_i tau}, two (G, 3) complex arrays
    for a 1-d array of rates inside the domain: the one pole/residue solve. Column 0 holds
    the real pole and its residue, columns 1 and 2 the conjugate pair (the cubic's
    discriminant is negative for every gamma_bar >= 0) and theirs.

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
    total = residues.sum(axis=-1)  # beta2(0) = 1; a NaN sum fails
    ok = np.abs(total - 1.0) <= 1e-10
    if not ok.all():
        j = int(np.argmin(ok))
        raise InternalConsistencyError(
            f"residues must sum to 1 (beta2(0) = 1), got {total[j]} at gamma_bar={g[j]}")
    return alphas, residues


def beta2(tau, gamma_bar):
    """Excited-population factor of the dynamical map at each (tau, gamma_bar) pair, the two
    broadcast; one spectrum solve covers every distinct gamma_bar."""
    return _on_domain(_beta2, tau, gamma_bar)


def _beta2(tau_arr: np.ndarray, g: np.ndarray) -> np.ndarray:
    """beta2 on arrays ``_domain`` has checked."""
    rates, row = np.unique(g, return_inverse=True)
    alphas, residues = _spectra(rates)
    row = row.reshape(g.shape)  # a scalar gamma_bar picks one row, broadcast against tau
    vals = sum(residues[row, k] * np.exp(alphas[row, k] * tau_arr) for k in range(3))
    imag = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
    if imag > IMAGINARY_RESIDUE:
        raise InternalConsistencyError(f"beta2 imaginary residue {imag:.3e}")
    return vals.real


def beta_arrays(taus, gamma_bar):
    """(beta1, beta2) at each (tau, gamma_bar) pair, taus and gamma_bar broadcast to one 1-d
    array, held to 0 <= beta1^2 <= beta2 <= 1 within CPT_TOLERANCE.

    Raises InternalConsistencyError naming the first (tau, gamma_bar) that
    violates them (a NaN counts as a violation); values are never clipped. The domain is
    checked once for both factors.
    """
    tau_arr, g = _domain(taus, gamma_bar)
    b1, b2 = _beta1(tau_arr, g), _beta2(tau_arr, g)
    ok = (b2 >= -CPT_TOLERANCE) & (b2 <= 1.0 + CPT_TOLERANCE) & (b1 * b1 <= b2 + CPT_TOLERANCE)
    if not np.all(ok):
        j = int(np.argmin(ok))
        tau_j = np.broadcast_to(tau_arr, ok.shape)[j]
        gamma_j = np.broadcast_to(g, ok.shape)[j]
        raise InternalConsistencyError(
            f"beta1 = {b1[j]}, beta2 = {b2[j]} violate 0 <= beta1^2 <= beta2 <= 1 "
            f"at tau={tau_j}, gamma_bar={gamma_j}"
        )
    return b1, b2


# --- Laplace-domain forms (consumed by the inverse-transform oracle) -------


def beta_laplace(ell: int, s, gamma_bar: float):
    """Laplace transform of beta_ell for ell in {1, 2}: the transform c of cos(tau)^ell at
    s + gamma_bar, through the resolvent c / (1 - gamma_bar c); generic arithmetic."""
    z = s + gamma_bar
    if ell == 1:
        c = z / (z * z + 1)
    elif ell == 2:
        c = (z * z + 2) / (z * (z * z + 4))
    else:
        raise ConfigurationError(f"cosine power {ell} not supported")
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
    return MapStack(np.broadcast_to(taus, b1.shape), s)
