"""Regularized scalar propagators and collapse-strength integrals.

The regulated two-point kernel is the Pauli-Villars pair D = D^{m_b} − D^Λ.

Every evaluator works in position space, with no momentum cutoff; the
sharp-cutoff momentum integrals whose limit they are serve as an oracle in
tests/test_propagators.py. With s = √|r² − τ²|, the free massive Wightman
function is closed form (Bogoliubov & Shirkov 1959, appendix on singular
functions; DLMF ch. 10):

  Re D^m = m·K₁(ms)/(4π²s) spacelike,  m·Y₁(ms)/(8πs) timelike,
  Im D^m = sgn(τ)·m·J₁(ms)/(8πs) timelike, 0 spacelike

(the sign matches e^{−iωΔt}). The mass-independent 1/s² pole and light-cone
δ cancel in the PV difference, which `_pv_position` evaluates as
m_b²·φ(m_b s) − Λ²·φ(Λ s) with φ_K(x) = (x·K₁(x) − 1)/x² and
φ_Y(x) = (x·Y₁(x) + 2/π)/x² (power series below x = 0.5), so no pole is
subtracted in floating point; once m_b·s ≥ 1 the Bessel terms are
differenced directly. What remains is log-singular at τ = ±r (and at τ = 0
when r = 0), and those points are panel ends.

- Spacetime lattice kernels are averaged over time cells:
  K(Δ, r) = ∫_{−dt}^{dt} (dt − |u|)/dt²·D(Δ + u, r) du, the Fourier pair of
  sinc²(ω dt/2). Cell averaging makes the kernel diagonal finite (the raw
  PV propagator is log-divergent at coincident times) and makes dt²·Σ over
  lattice cells equal the continuum double-time integral exactly, so
  lattice exponents can be compared to the closed forms below without
  discretization bias. A lattice kernel needs D(Δt, r) only at the n_t lags
  Δt = t_k − t_0 for each distinct separation r; `pv_kernel_matrix`
  integrates those (all lags of one r in one vectorized pass) and gathers
  every block by |k − l|, conjugating the blocks with k < l.
- G_T(r) = 2∫₀^T (T − τ)·Re D(τ, r) dτ is that τ-integral for T ≤ r. For
  T > r it is G_∞(r) + (1/4π)∫_{s_T}^∞ (1 − T/√(s² + r²))·[m_b·Y₁(m_b s) −
  Λ·Y₁(Λ s)] ds, s_T = √(T² − r²): each mass term is summed over
  half-periods of π in x = m·s (24-node Gauss-Legendre each) and the
  partial sums are extrapolated with Wynn's ε-algorithm (MTAC 10, 1956).
  `g_t_quadrature` is memoized on (spec, r, horizon), since Ω_T(r) needs
  G_T(0) again for every r.
- τ-integrals use tanh-sinh on panels over which s moves by at most π/Λ,
  split at ±r and 0. Each evaluator checks itself: the tanh-sinh sums at
  steps h and 2h (or the tail extrapolated from fewer half-periods) must
  agree within _POSITION_RTOL, or `_refined` raises QuadratureFailureError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import j1 as _j1, k0 as _scipy_k0, k1 as _scipy_k1, psi as _psi, y1 as _y1

from .errors import InvalidParameterError, QuadratureFailureError

FOUR_PI_SQ = (2.0 * np.pi) ** 2
_POSITION_RTOL = 1e-9             # allowed relative change, coarse vs fine rule
_TS_STEP = 1.0 / 32               # tanh-sinh step on [−1, 1]
_TS_EDGE = 1e-20                  # nodes stop this close to a panel end, relative
_SERIES_BELOW = 0.5               # φ_K, φ_Y by their power series below this x
_SERIES_TERMS = 12                # terms of those series (the last is below 1e-29)
_TAIL_HALF_PERIODS = 30           # half-periods of Y₁ summed in a G_T tail
_TAIL_CHECK_HALF_PERIODS = 26     # ... and in its coarse estimate
_TAIL_GAUSS_ORDER = 24            # Gauss-Legendre nodes per half-period


@dataclass(frozen=True)
class PropagatorSpec:
    """Boson mass, PV cutoff and coupling; every field must be finite.

    Every evaluator is position-space, so there is no momentum cutoff; the
    momentum-cutoff oracle lives in tests/test_propagators.py.
    """

    boson_mass: float
    cutoff: float
    coupling: float = 1.0

    def __post_init__(self):
        for name in ("boson_mass", "cutoff", "coupling"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite")
        if not (self.cutoff > self.boson_mass > 0.0):
            raise InvalidParameterError("require cutoff > boson_mass > 0")
        if self.coupling < 0.0:
            raise InvalidParameterError("coupling must be non-negative")


def bessel_k0(x: float) -> float:
    """Modified Bessel function K₀ (relative accuracy better than 1e-10)."""
    if x <= 0.0:
        raise InvalidParameterError("bessel_k0 requires x > 0")
    return float(_scipy_k0(x))


def bessel_k1(x: float) -> float:
    """Modified Bessel function K₁, same domain contract as bessel_k0."""
    if x <= 0.0:
        raise InvalidParameterError("bessel_k1 requires x > 0")
    return float(_scipy_k1(x))


def _refined(coarse, fine, rtol: float, what: str):
    """`fine`, unless it differs from `coarse` by more than rtol·max|fine|."""
    scale = max(np.max(np.abs(fine)), 1e-300)
    if np.max(np.abs(fine - coarse)) > rtol * scale:
        raise QuadratureFailureError(
            f"{what}: refinement changed result beyond rtol={rtol}",
            estimates=(coarse, fine))
    return fine


# ------------------------------------------------------------ position space

@functools.cache
def _tanh_sinh_rule():
    """Tanh-sinh rule on [−1, 1]: (node nearer +1, 1 − |x|, fine weights,
    coarse weights).

    1 − |x| is kept exactly, so a node a hair from a log-singular panel end
    is not rounded onto it. The coarse rule is every other node at step 2h.
    """
    n = math.ceil(math.asinh(math.log(2.0 / _TS_EDGE) / math.pi) / _TS_STEP)
    j = np.arange(-n, n + 1)
    t = j * _TS_STEP
    u = 0.5 * np.pi * np.sinh(np.abs(t))
    w = _TS_STEP * 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    return j > 0, 2.0 / (np.exp(2.0 * u) + 1.0), w, np.where(j % 2 == 0, 2.0 * w, 0.0)


@functools.cache
def _tail_gauss_rule():
    """Gauss-Legendre nodes and weights for one half-period of a G_T tail."""
    return leggauss(_TAIL_GAUSS_ORDER)


@functools.cache
def _series_coefficients():
    """(1/(k!(k+1)!), (ψ(k+1) + ψ(k+2))/4) for k < _SERIES_TERMS, the
    coefficients of the φ series (A&S 9.6.11, 9.1.11)
    Σ_k q^k/(k!(k+1)!)·(½ln(x/2) − (ψ(k+1) + ψ(k+2))/4)."""
    k = np.arange(_SERIES_TERMS)
    return (np.array([1.0 / (math.factorial(i) * math.factorial(i + 1)) for i in k]),
            0.25 * (_psi(k + 1.0) + _psi(k + 2.0)))


def _bessel_x1(x: np.ndarray, timelike: np.ndarray) -> np.ndarray:
    """x·Y₁(x) where timelike, x·K₁(x) elsewhere."""
    out = np.empty_like(x)
    out[timelike] = x[timelike] * _y1(x[timelike])
    out[~timelike] = x[~timelike] * _scipy_k1(x[~timelike])
    return out


def _phi(x: np.ndarray, timelike: np.ndarray) -> np.ndarray:
    """φ_Y(x) = (x·Y₁(x) + 2/π)/x² where timelike, φ_K(x) = (x·K₁(x) − 1)/x²
    elsewhere; by power series (q = ∓x²/4) below _SERIES_BELOW."""
    out = np.empty_like(x)
    small = x < _SERIES_BELOW
    xl, tl = x[~small], timelike[~small]
    out[~small] = (_bessel_x1(xl, tl) - np.where(tl, -2.0 / np.pi, 1.0)) / (xl * xl)
    xs, ts = x[small], timelike[small]
    q = np.where(ts, -0.25, 0.25) * xs * xs
    log_half = 0.5 * np.log(0.5 * xs)
    acc, qk = np.zeros_like(xs), np.ones_like(xs)
    for a, c in zip(*_series_coefficients()):
        acc += a * qk * (log_half - c)
        qk *= q
    out[small] = np.where(ts, 2.0 / np.pi, 1.0) * acc
    return out


def _pv_position(spec: PropagatorSpec, anchor: np.ndarray, offset: np.ndarray,
                 r: float) -> np.ndarray:
    """Closed-form D_PV(τ, r) at τ = anchor + offset (module docstring).

    s² is formed from (r ∓ anchor) first, so a node `offset` away from a
    light-cone anchor keeps its distance to the cone.
    """
    mb, lam = spec.boson_mass, spec.cutoff
    prod = ((r - anchor) - offset) * ((r + anchor) + offset)
    timelike = prod < 0.0
    s = np.maximum(np.sqrt(np.abs(prod)), 1e-300)
    near = mb * s < 1.0
    re = np.empty(s.shape)
    sn, tn = s[near], timelike[near]
    re[near] = mb * mb * _phi(mb * sn, tn) - lam * lam * _phi(lam * sn, tn)
    sf, tf = s[~near], timelike[~near]
    re[~near] = (_bessel_x1(mb * sf, tf) - _bessel_x1(lam * sf, tf)) / (sf * sf)
    re *= np.where(timelike, 1.0 / (8.0 * np.pi), 1.0 / FOUR_PI_SQ)
    im = np.zeros(s.shape)
    st = s[timelike]
    im[timelike] = (np.sign((anchor + offset)[timelike]) / (8.0 * np.pi * st)
                    * (mb * _j1(mb * st) - lam * _j1(lam * st)))
    return re + 1j * im


def _panel_ends(lo: float, hi: float, r: float, lam: float) -> list:
    """Panel ends on [lo, hi]: cut at ±r and 0, where s = √|r² − τ²| turns,
    then so that s moves by at most π/Λ across a panel."""
    cuts = sorted({lo, hi, *(p for p in (-r, 0.0, r) if lo < p < hi)})
    ends = [lo]
    for a, b in zip(cuts[:-1], cuts[1:]):
        sign = 1.0 if a + b > 0.0 else -1.0
        timelike = abs(a + b) > 2.0 * r
        sa, sb = (math.sqrt(abs(r * r - x * x)) for x in (a, b))
        n = max(1, math.ceil(abs(sb - sa) * lam / math.pi))
        inner = np.linspace(sa, sb, n + 1)[1:-1] ** 2
        ends.extend(sign * np.sqrt(r * r + inner if timelike else r * r - inner))
        ends.append(b)
    return ends


def _panel_sums(spec: PropagatorSpec, lo: np.ndarray, hi: np.ndarray, r: float,
                weight):
    """Fine and coarse tanh-sinh sums of weight(anchor, offset)·D_PV on each
    panel [lo, hi], nodes at anchor + offset."""
    right, gap, w, w_coarse = _tanh_sinh_rule()
    half = 0.5 * (hi - lo)[:, None]
    anchor = np.where(right, hi[:, None], lo[:, None])
    offset = np.where(right, -half, half) * gap
    f = _pv_position(spec, anchor, offset, r) * weight(anchor, offset) * half
    return f @ w, f @ w_coarse


def _cell_averaged(spec: PropagatorSpec, lags, r: float, cell_dt: float) -> np.ndarray:
    """K(Δ, r) = ∫ (dt − |u|)/dt²·D_PV(Δ + u, r) du at every lag Δ, one pass."""
    if not 0.0 < cell_dt < math.inf:
        raise InvalidParameterError("cell_dt must be positive and finite")
    lags = np.asarray(lags, dtype=float)
    lo, hi, owner = [], [], []
    for k, lag in enumerate(lags):
        for a, b in ((lag - cell_dt, lag), (lag, lag + cell_dt)):
            ends = _panel_ends(a, b, r, spec.cutoff)
            lo += ends[:-1]
            hi += ends[1:]
            owner += [k] * (len(ends) - 1)
    owner = np.array(owner)
    own_lag = lags[owner][:, None]

    def triangle(anchor, offset):
        return (cell_dt - np.abs((anchor - own_lag) + offset)) / cell_dt ** 2

    sums = _panel_sums(spec, np.array(lo), np.array(hi), r, triangle)
    fine, coarse = (np.bincount(owner, v.real, len(lags))
                    + 1j * np.bincount(owner, v.imag, len(lags)) for v in sums)
    return _refined(coarse, fine, _POSITION_RTOL, "pv_propagator")


def _g_t_direct(spec: PropagatorSpec, r: float, horizon: float) -> float:
    """G_T(r) = 2∫₀^T (T − τ)·Re D_PV(τ, r) dτ."""
    ends = np.array(_panel_ends(0.0, horizon, r, spec.cutoff))
    fine, coarse = _panel_sums(spec, ends[:-1], ends[1:], r,
                               lambda anchor, offset: 2.0 * ((horizon - anchor) - offset))
    return float(_refined(coarse.real.sum(), fine.real.sum(), _POSITION_RTOL,
                          "g_t_quadrature"))


def _wynn(partial_sums: np.ndarray) -> float:
    """Limit of `partial_sums` by Wynn's ε-algorithm: the last entry of the
    highest even column reached."""
    prev, cur = np.zeros(len(partial_sums) + 1), np.asarray(partial_sums, dtype=float)
    best = cur[-1]
    for k in range(1, len(partial_sums)):
        diff = np.diff(cur)
        if not np.all(diff):            # converged exactly
            break
        prev, cur = cur, prev[1:len(cur)] + 1.0 / diff
        if k % 2 == 0:
            best = cur[-1]
    return float(best)


def _y1_tail_sums(mass: float, r: float, horizon: float) -> np.ndarray:
    """Partial sums of ∫_{x₀}^{x₀ + jπ} (1 − T/√((x/m)² + r²))·Y₁(x) dx for
    j = 1.._TAIL_HALF_PERIODS, x₀ = m·√(T² − r²). Below x₀ = π the first
    half-period is cut at x₀ + π/2^k, so no panel is wider than its distance
    to Y₁'s pole at 0."""
    x0 = mass * math.sqrt((horizon - r) * (horizon + r))
    graded = x0 + math.pi * 2.0 ** -np.arange(max(0, math.ceil(math.log2(math.pi / x0))), 0, -1)
    ends = np.concatenate([[x0], graded, x0 + math.pi * np.arange(1, _TAIL_HALF_PERIODS + 1)])
    xg, wg = _tail_gauss_rule()
    half = 0.5 * np.diff(ends)[:, None]
    x = ends[:-1, None] + half * (1.0 + xg)
    f = (1.0 - horizon / np.sqrt((x / mass) ** 2 + r * r)) * _y1(x)
    return np.cumsum((f * half) @ wg)[len(graded):]


def _g_t_tail(spec: PropagatorSpec, r: float, horizon: float) -> float:
    """G_T(r) = G_∞(r) + (1/4π)∫_{s_T}^∞ (1 − T/√(s² + r²))·[m_b·Y₁(m_b s) −
    Λ·Y₁(Λ s)] ds for T > r, each mass term extrapolated by `_wynn`."""
    mb, lam = spec.boson_mass, spec.cutoff
    if r > 0.0:
        g_inf = g_infinity(spec, r, mb) - g_infinity(spec, r, lam)
    else:
        g_inf = 2.0 * math.log(lam / mb) / FOUR_PI_SQ
    tails = [_y1_tail_sums(m, r, horizon) for m in (mb, lam)]
    fine, coarse = (g_inf + (_wynn(tails[0][:n]) - _wynn(tails[1][:n])) / (4.0 * np.pi)
                    for n in (_TAIL_HALF_PERIODS, _TAIL_CHECK_HALF_PERIODS))
    return float(_refined(coarse, fine, _POSITION_RTOL, "g_t_quadrature"))


def pv_propagator(spec: PropagatorSpec, x, y, cell_dt: float) -> complex:
    """PV-regularized propagator D^{m_b}(x,y) − D^Λ(x,y) between events
    (t, 3-vector), averaged over time cells of width cell_dt in position
    space (module docstring); Δt is read as a midpoint difference."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    for name, event in (("x", x), ("y", y)):
        if event.shape != (4,) or not np.all(np.isfinite(event)):
            raise InvalidParameterError(f"{name} must be a finite event (t, x, y, z)")
    r = float(np.linalg.norm(x[1:] - y[1:]))
    return complex(_cell_averaged(spec, np.array([x[0] - y[0]]), r, cell_dt)[0])


def pv_kernel_matrix(spec: PropagatorSpec, times: np.ndarray, points: np.ndarray,
                     cell_dt: float) -> np.ndarray:
    """Spacetime PV kernel over a lattice, time-major point ordering.

    times: equally spaced midpoint time nodes (length n_t); points: (n_x, 3)
    site coordinates. Entry ((k,i),(l,j)) is D(t_k − t_l, |x_i − x_j|), averaged
    over time cells of width cell_dt, the step size. Hermitian by
    construction (D(−Δt) = D(Δt)*).
    """
    times = np.asarray(times, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if times.ndim != 1 or not len(times) or not np.all(np.isfinite(times)):
        raise InvalidParameterError("times must be a non-empty 1-D array of finite values")
    # every block is read off the lags t_k − t_0, so the spacing must be one
    # step to rounding
    gaps = np.diff(times)
    if len(gaps) and np.abs(gaps - gaps.mean()).max() > 1e-9 * np.abs(gaps.mean()):
        raise InvalidParameterError("times must be equally spaced")
    if (points.ndim != 2 or points.shape[1] != 3 or not len(points)
            or not np.all(np.isfinite(points))):
        raise InvalidParameterError("points must be a non-empty (n_x, 3) array of finite values")
    n_t, n_x = len(times), len(points)
    diffs = points[:, None, :] - points[None, :, :]
    rmat = np.linalg.norm(diffs, axis=-1)
    r_unique, r_inv = np.unique(rmat.round(decimals=12).ravel(), return_inverse=True)
    dt_pos = times - times[0]

    # values[ri][k] = D(k·dt, r_unique[ri]) for k >= 0
    vals = np.empty((len(r_unique), n_t), dtype=complex)
    for ri, r in enumerate(r_unique):
        vals[ri] = _cell_averaged(spec, dt_pos, float(r), cell_dt)

    # blocks[k, l, i, j] = D(t_k − t_l, r_ij), D(−Δt) = D(Δt)* for k < l
    k, l = np.indices((n_t, n_t))
    blocks = vals[r_inv.reshape(1, 1, n_x, n_x), np.abs(k - l)[:, :, None, None]]
    blocks = np.where((k < l)[:, :, None, None], blocks.conj(), blocks)
    kernel = blocks.transpose(0, 2, 1, 3).reshape(n_t * n_x, n_t * n_x)
    return 0.5 * (kernel + kernel.conj().T)


def g_infinity(spec: PropagatorSpec, r: float, mass: float) -> float:
    """Infinite-horizon double-time integral 2·K₀(m r)/(2π)²."""
    if not 0.0 < r < math.inf:
        raise InvalidParameterError("r must be positive and finite")
    if not 0.0 < mass < math.inf:
        raise InvalidParameterError("mass must be positive and finite")
    return 2.0 * bessel_k0(mass * r) / FOUR_PI_SQ


@functools.lru_cache(maxsize=1024)
def g_t_quadrature(spec: PropagatorSpec, r: float, horizon: float) -> float:
    """PV-subtracted G_T(r) = ∫₀^T∫₀^T D_PV(t − t′, r) dt dt′, which is
    ∫ d³p/(2π)³ e^{−ip·r} (1 − cos(Tω))/ω³, evaluated in position space: the
    τ-integral for T ≤ r, G_∞ plus the Y₁ tail for T > r.

    Memoized: a pure function of a frozen spec and two floats.
    """
    if not 0.0 <= r < math.inf:
        raise InvalidParameterError("r must be non-negative and finite")
    if not 0.0 < horizon < math.inf:
        raise InvalidParameterError("horizon must be positive and finite")
    if horizon <= r:
        return _g_t_direct(spec, r, horizon)
    return _g_t_tail(spec, r, horizon)


def omega_infinity(spec: PropagatorSpec, r: float) -> float:
    """Closed-form collapse exponent plateau in separation r.

    Ω_∞(r) = (g²/(2π)²)·(K₀(m_b r) − K₀(Λ r) − ln(Λ/m_b)); non-positive,
    tends to 0 as r → 0⁺ and to the plateau −(g²/(2π)²) ln(Λ/m_b) at large r.
    """
    if not 0.0 < r < math.inf:
        raise InvalidParameterError("r must be positive and finite")
    g = spec.coupling
    mb, lam = spec.boson_mass, spec.cutoff
    val = (g * g / FOUR_PI_SQ) * (bessel_k0(mb * r) - bessel_k0(lam * r)
                                  - np.log(lam / mb))
    return float(min(val, 0.0))


def omega_plateau(spec: PropagatorSpec) -> float:
    """Large-separation limit −(g²/(2π)²)·ln(Λ/m_b)."""
    return -(spec.coupling ** 2 / FOUR_PI_SQ) * float(np.log(spec.cutoff / spec.boson_mass))


def omega_from_quadrature(spec: PropagatorSpec, r: float, horizon: float) -> float:
    """Finite-horizon exponent Ω_T(r) = (g²/2)·[G_T(r) − G_T(0)].

    Converges to omega_infinity(r) as the horizon grows; g = 0 gives 0.
    """
    if not 0.0 < r < math.inf:
        raise InvalidParameterError("r must be positive and finite")
    if not 0.0 < horizon < math.inf:
        raise InvalidParameterError("horizon must be positive and finite")
    g = spec.coupling
    if g == 0.0:
        return 0.0
    gt_r = g_t_quadrature(spec, r, horizon)
    gt_0 = g_t_quadrature(spec, 0.0, horizon)
    return float(0.5 * g * g * (gt_r - gt_0))


def tabulate_omega(spec: PropagatorSpec, r_values, horizon: float) -> list:
    """Rows (r, Ω_∞, Ω_T, G_∞) for the CLI tabulation sub-command."""
    rows = []
    for r in r_values:
        rows.append({
            "r": float(r),
            "omega_infinity": omega_infinity(spec, float(r)),
            "omega_horizon": omega_from_quadrature(spec, float(r), horizon),
            "g_infinity": g_infinity(spec, float(r), spec.boson_mass),
        })
    return rows
