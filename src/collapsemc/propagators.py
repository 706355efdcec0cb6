"""Regularized scalar propagators and collapse-strength integrals.

The regulated two-point kernel is the Pauli-Villars pair D = D^{m_b} − D^Λ.
Single-mass propagators are evaluated with a sharp configured momentum
cutoff (they are only conditionally convergent); the PV difference decays
like 1/p² and is integrated as one absolutely convergent radial integral
after analytic angular integration.

Spacetime lattice kernels are averaged over time cells: in momentum space
this multiplies each mass term by sinc²(ω dt/2). Cell averaging makes the
kernel diagonal finite (the raw PV propagator is log-divergent at
coincident times) and makes dt²·Σ over lattice cells equal the continuum
double-time integral exactly, so lattice exponents can be compared to the
closed forms below without discretization bias. A lattice kernel needs
D(Δt, r) only at the n_t lags Δt = t_k − t_0 for each distinct separation
r; `pv_kernel_matrix` integrates those and gathers every block by |k − l|,
conjugating the blocks with k < l.

Every propagator is one momentum integral, `_momentum_integral`: the signed
sum over masses of ang·term(ω), ang = p²·j₀(pr)/(2π²) from the angular
integration, term the caller's time dependence. One grid rule serves all:
pmax = momentum_cutoff_multiplier·max(heaviest mass, 1/cell_dt), the 1/cell_dt
term only when cell_dt > 0; panels resolve the scale r + span + cell_dt +
2/(lightest mass), span being the largest |time| in the term.

`_radial_integral` evaluates that integrand in blocks of whole panels,
small enough for the temporaries to stay in cache, and fills the blocks
after the first on a thread pool sized to the cores the process may use;
the pool lives only for the call. Each
node sees the same elementwise operations and the contraction with the
weights is one dot product over all nodes, so results are bit-identical
for any block size or core count. `g_t_quadrature` is memoized on
(spec, r, horizon), since Ω_T(r) needs G_T(0) again for every r.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import k0 as _scipy_k0, k1 as _scipy_k1

from .errors import InvalidParameterError, QuadratureFailureError

TWO_PI_SQ = 2.0 * np.pi ** 2      # (2π)³ / (4π)
FOUR_PI_SQ = (2.0 * np.pi) ** 2
_GAUSS_ORDER = 8                  # Gauss-Legendre nodes per panel
_BLOCK_PANELS = 4096              # panels per integrand evaluation block
_RADIAL_RTOL = 1e-6               # allowed relative change on panel doubling


@dataclass(frozen=True)
class PropagatorSpec:
    """Boson mass, PV cutoff, coupling and quadrature configuration."""

    boson_mass: float
    cutoff: float
    coupling: float = 1.0
    momentum_cutoff_multiplier: float = 50.0
    min_nodes: int = 256

    def __post_init__(self):
        if not (self.cutoff > self.boson_mass > 0.0):
            raise InvalidParameterError("require cutoff > boson_mass > 0")
        if self.coupling < 0.0:
            raise InvalidParameterError("coupling must be non-negative")
        if self.min_nodes < 64:
            raise InvalidParameterError("node count must be at least 64")


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


def _panel_nodes(pmax: float, n_panels: int):
    """Composite Gauss-Legendre nodes/weights on [0, pmax]."""
    xg, wg = leggauss(_GAUSS_ORDER)
    edges = np.linspace(0.0, pmax, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1] - edges[0])
    p = (mid[:, None] + half * xg[None, :]).ravel()
    w = np.broadcast_to(half * wg[None, :], (n_panels, len(wg))).ravel()
    return p, w


def _usable_cores() -> int:
    """Cores this process may run on (all cores where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blocked_values(integrand, p: np.ndarray) -> np.ndarray:
    """`integrand(p)`, evaluated in blocks of _BLOCK_PANELS panels.

    Blocks after the first are filled on up to one thread per usable core;
    each writes its own slice, so the result does not depend on the count.
    """
    step = _BLOCK_PANELS * _GAUSS_ORDER
    first = np.asarray(integrand(p[:step]))
    if len(p) <= step:
        return first
    vals = np.empty(first.shape[:-1] + (len(p),), dtype=first.dtype)
    vals[..., :step] = first
    starts = range(step, len(p), step)

    def fill(a):
        vals[..., a:a + step] = integrand(p[a:a + step])

    workers = min(_usable_cores(), len(starts))
    if workers == 1:
        # a lone worker thread saves no time, and its own malloc arena
        # raised field_ensemble's peak RSS from 225 to 232 MB (2-core VM)
        for a in starts:
            fill(a)
        return vals
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fill, starts))
    return vals


def _radial_integral(integrand, pmax: float, osc_scale: float,
                     min_nodes: int, what: str = "integral"):
    """Integrate `integrand(p)` on [0, pmax] with oscillation-aware panels.

    Runs once and once more at doubled panel count; a relative disagreement
    above _RADIAL_RTOL raises QuadratureFailureError. `integrand` may return a
    stacked array whose last axis runs over p.
    """
    n_panels = max(16, int(np.ceil(min_nodes / _GAUSS_ORDER)),
                   2 * int(np.ceil(pmax * max(osc_scale, 1e-12) / np.pi)))
    results = []
    for panels in (n_panels, 2 * n_panels):
        p, w = _panel_nodes(pmax, panels)
        results.append(_blocked_values(integrand, p) @ w)
    coarse, fine = results
    scale = max(np.max(np.abs(fine)), 1e-300)
    if np.max(np.abs(fine - coarse)) > _RADIAL_RTOL * scale:
        raise QuadratureFailureError(
            f"{what}: refinement changed result beyond rtol={_RADIAL_RTOL}",
            estimates=(coarse, fine))
    return fine


def _j0(z: np.ndarray) -> np.ndarray:
    return np.sinc(z / np.pi)


def _momentum_integral(spec: PropagatorSpec, term, r: float, span: float,
                       what: str, cell_dt: float = 0.0, masses=None):
    """∫ dp Σ sign·term(ang, ω) over the signed `masses` (by default the PV
    pair (m_b, +1), (Λ, −1)), on the grid rule of the module docstring;
    `span` is the largest |time| in `term`."""
    if masses is None:
        masses = ((spec.boson_mass, 1.0), (spec.cutoff, -1.0))
    heaviest = max(m for m, _ in masses)
    pmax = spec.momentum_cutoff_multiplier * (max(heaviest, 1.0 / cell_dt)
                                              if cell_dt > 0.0 else heaviest)
    # panels must also resolve the dispersion turnover at p ~ mass
    osc = r + span + cell_dt + 2.0 / min(m for m, _ in masses)

    def integrand(p):
        ang = p * p * _j0(p * r) / TWO_PI_SQ
        out = 0.0
        for mass, sign in masses:
            out += sign * term(ang, np.sqrt(p * p + mass * mass))
        return out

    return _radial_integral(integrand, pmax, osc_scale=osc,
                            min_nodes=spec.min_nodes, what=what)


def _lag_and_separation(x, y):
    """(Δt, |Δx|) between two events (t, 3-vector)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x[0] - y[0], float(np.linalg.norm(x[1:] - y[1:]))


def vacuum_propagator(spec: PropagatorSpec, x, y, mass: float) -> complex:
    """Single-mass propagator D^m(x,y) at the configured momentum cutoff.

    x and y are events (t, 3-vector). The momentum integral
    ∫ d³p e^{−iω Δt + ip·Δx} / (2(2π)³ ω) is reduced to a radial quadrature
    after the angular integration; the sharp cutoff is part of the contract.
    """
    if mass <= 0.0:
        raise InvalidParameterError("mass must be positive")
    dt, r = _lag_and_separation(x, y)
    return complex(_momentum_integral(
        spec, lambda ang, om: ang * np.exp(-1j * om * dt) / (2.0 * om),
        r, abs(dt), "vacuum_propagator", masses=((mass, 1.0),)))


def pv_propagator(spec: PropagatorSpec, x, y, cell_dt: float = 0.0) -> complex:
    """PV-regularized propagator D^{m_b}(x,y) − D^Λ(x,y).

    With cell_dt > 0 both mass terms carry the time-cell-average factor
    sinc²(ω·cell_dt/2) and Δt is read as a midpoint difference.
    """
    dt, r = _lag_and_separation(x, y)
    return complex(_pv_values(spec, np.array([dt]), r, cell_dt)[0])


def _pv_values(spec: PropagatorSpec, dts: np.ndarray, r: float,
               cell_dt: float) -> np.ndarray:
    """PV propagator at one spatial separation for a batch of time lags."""

    def term(ang, om):
        w = ang / (2.0 * om)
        if cell_dt > 0.0:
            w = w * _j0(0.5 * om * cell_dt) ** 2
        return np.exp(-1j * np.outer(dts, om)) * w[None, :]

    span = float(np.max(np.abs(dts))) if len(dts) else 0.0
    return _momentum_integral(spec, term, r, span, "pv_propagator", cell_dt)


def pv_kernel_matrix(spec: PropagatorSpec, times: np.ndarray, points: np.ndarray,
                     cell_dt: float = 0.0) -> np.ndarray:
    """Spacetime PV kernel over a lattice, time-major point ordering.

    times: midpoint time nodes (length n_t); points: (n_x, 3) site
    coordinates. Entry ((k,i),(l,j)) is D(t_k − t_l, |x_i − x_j|), cell
    averaged in time when cell_dt is the step size. Hermitian by
    construction (D(−Δt) = D(Δt)*).
    """
    times = np.asarray(times, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n_t, n_x = len(times), len(points)
    diffs = points[:, None, :] - points[None, :, :]
    rmat = np.linalg.norm(diffs, axis=-1)
    r_unique, r_inv = np.unique(rmat.round(decimals=12).ravel(), return_inverse=True)
    dt_pos = times - times[0]

    # values[ri][k] = D(k·dt, r_unique[ri]) for k >= 0
    vals = np.empty((len(r_unique), n_t), dtype=complex)
    for ri, r in enumerate(r_unique):
        vals[ri] = _pv_values(spec, dt_pos, float(r), cell_dt)

    # blocks[k, l, i, j] = D(t_k − t_l, r_ij), D(−Δt) = D(Δt)* for k < l
    k, l = np.indices((n_t, n_t))
    blocks = vals[r_inv.reshape(1, 1, n_x, n_x), np.abs(k - l)[:, :, None, None]]
    blocks = np.where((k < l)[:, :, None, None], blocks.conj(), blocks)
    kernel = blocks.transpose(0, 2, 1, 3).reshape(n_t * n_x, n_t * n_x)
    return 0.5 * (kernel + kernel.conj().T)


def g_infinity(spec: PropagatorSpec, r: float, mass: float) -> float:
    """Infinite-horizon double-time integral 2·K₀(m r)/(2π)²."""
    if r <= 0.0:
        raise InvalidParameterError("g_infinity requires r > 0")
    if mass <= 0.0:
        raise InvalidParameterError("mass must be positive")
    return 2.0 * bessel_k0(mass * r) / FOUR_PI_SQ


@functools.lru_cache(maxsize=1024)
def g_t_quadrature(spec: PropagatorSpec, r: float, horizon: float) -> float:
    """PV-subtracted G_T(r) = ∫ d³p/(2π)³ e^{−ip·r} (1 − cos(Tω))/ω³.

    Memoized: a pure function of a frozen spec and two floats.
    """
    if horizon <= 0.0:
        raise InvalidParameterError("horizon must be positive")
    return float(_momentum_integral(
        spec, lambda ang, om: ang * (1.0 - np.cos(horizon * om)) / om ** 3,
        r, horizon, "g_t_quadrature"))


def omega_infinity(spec: PropagatorSpec, r: float) -> float:
    """Closed-form collapse exponent plateau in separation r.

    Ω_∞(r) = (g²/(2π)²)·(K₀(m_b r) − K₀(Λ r) − ln(Λ/m_b)); non-positive,
    tends to 0 as r → 0⁺ and to the plateau −(g²/(2π)²) ln(Λ/m_b) at large r.
    """
    if r <= 0.0:
        raise InvalidParameterError("omega_infinity requires r > 0")
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
    if r <= 0.0:
        raise InvalidParameterError("omega_from_quadrature requires r > 0")
    if horizon <= 0.0:
        raise InvalidParameterError("horizon must be positive")
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
