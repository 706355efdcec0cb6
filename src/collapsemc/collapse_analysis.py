"""Quantitative collapse and amplification checks for the field model.

Scenarios here are single- or few-particle, point-coupled, H₀ = 0 and
S = 0, where the linear wavefunction is an explicit functional of the
field history and the two-point collapse metric

    Δ_t(x,y) = |ψ̃_t(x)|·|ψ̃_t(y)|

has the closed expectation E_t[Δ_t] = exp(Ω_t)·Δ_0 under the cooked
measure (the Girsanov weight cancels the normalization, so the estimator
is simply |ψ_t(x)||ψ_t(y)| under the a-priori measure).

Every influence phase here is made by one function, `_point_phase`:
midpoint time nodes, the cell-averaged PV kernel, and point couplings g on
configuration 0 (the left sites) or 1 (the right sites).
`build_two_point_phase` (one particle on two sites) and `_cat_phase` (the
N-particle cat state) only choose the sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nonmarkov as nm
from . import propagators as pg
from .errors import FitError, InvalidParameterError
from .gaussian_field import FieldSample, KernelPair
from .hilbert import DensityMatrix, QuantumState
from .mcstats import mean_se


@dataclass
class CollapseMetricResult:
    r: float
    horizon: float
    delta_mc: float
    delta_se: float
    delta_analytic: float
    omega: float
    omega_lattice: float
    delta0: float
    n_samples: int


@dataclass
class AmplificationGeometry:
    """Cat-state geometry: two peaks of N particles on a line."""

    peak_separation: float
    intra_spacing: float
    horizon: float
    n_steps: int = 32

    def positions(self, n_particles: int):
        left = np.array([[k * self.intra_spacing, 0.0, 0.0] for k in range(n_particles)])
        right = left + np.array([self.peak_separation, 0.0, 0.0])
        return left, right


@dataclass
class AmplificationScan:
    n_values: list
    exponents: list
    ratios: list
    peak_separation: float
    intra_spacing: float
    in_regime: bool
    horizon: float


def _point_phase(spec: pg.PropagatorSpec, left: np.ndarray, right: np.ndarray,
                 horizon: float, n_steps: int, relation: str = "zero"):
    """Two-configuration influence phase: a particle at each `left` site in
    configuration 0, at each `right` site in configuration 1.

    Couplings are point densities g·|x><x|/a³, so the sources are g·dt per
    occupied site, independent of the volume element. Returns the phase
    and the sampling factor (whose clipped mass records any PSD clipping).
    """
    if relation not in ("zero", "covariance"):
        raise InvalidParameterError(f"unknown relation mode {relation!r}")
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise InvalidParameterError("n_steps must be an integer >= 1")
    if not 0.0 < horizon < math.inf:
        raise InvalidParameterError("horizon must be positive and finite")
    points = np.vstack([left, right])
    dt = horizon / n_steps
    times = (np.arange(n_steps) + 0.5) * dt
    kernel = pg.pv_kernel_matrix(spec, times, points, cell_dt=dt)
    if relation == "covariance":
        if np.abs(kernel.imag).max() > 1e-12 * np.abs(kernel).max():
            raise InvalidParameterError("S = D requires a real kernel")
        s = kernel.copy()
    else:
        s = np.zeros_like(kernel)
    pair = KernelPair(gamma=kernel, relation=s, psd_floor=np.inf)
    g = spec.coupling
    couplings = [np.diag([g, 0.0] if x < len(left) else [0.0, g]).astype(complex)
                 for x in range(len(points))]
    # point couplings: j eigenvalue times dt·a³ must be g·dt, so a³ = 1 here
    return nm.build_influence_phase(pair, couplings, times, dt, volume_element=1.0)


def build_two_point_phase(spec: pg.PropagatorSpec, r: float, horizon: float,
                          n_steps: int, relation: str = "zero"):
    """Influence phase for a single particle on two sites separated by r;
    returns (phase, factor)."""
    if not 0.0 < r < math.inf:
        raise InvalidParameterError("r must be positive and finite")
    return _point_phase(spec, np.array([[0.0, 0.0, 0.0]]), np.array([[r, 0.0, 0.0]]),
                        horizon, n_steps, relation)


def lattice_delta_exponent(phase: nm.InfluencePhase, alpha: int = 0, beta: int = 1) -> float:
    """Exact lattice exponent Ω of E[Δ] between two basis configurations:
    −¼ (J_α − J_β)·Re Γ·(J_α − J_β). Zero for coincident configurations."""
    j = phase.sources()
    dj = j[alpha] - j[beta]
    return float(-0.25 * dj @ phase.kernel.gamma.real @ dj)


def closed_form_state(xi: FieldSample, psi0, phase: nm.InfluencePhase) -> QuantumState:
    """Linear wavefunction at the horizon for one field realization (H₀ = 0, S = 0).

    ψ_t(x) = exp[−ig Σ_τ dt ξ(τ,x) − g² Σ_{τ>s} dt² D((τ,x),(s,x))]·ψ₀(x)
    realized through the shared closed-form engine; exact per lattice step.
    """
    states = nm.linear_states(phase, np.asarray(xi.values)[None, :],
                              np.asarray(psi0, dtype=complex))[0]
    return QuantumState(states[phase.n_steps])


def delta_metric_mc(spec: pg.PropagatorSpec, r: float, horizon: float,
                    n_samples: int, n_steps: int = 32,
                    master_seed: int = 0) -> CollapseMetricResult:
    """Monte-Carlo E_t[Δ_t] against exp(Ω_t)·Δ_0 for the equal superposition
    of the two sites.

    The analytic exponent is the continuum omega_from_quadrature value;
    cell averaging of the lattice kernel makes the lattice exponent agree
    with it up to quadrature tolerance (both are reported).
    """
    psi0 = np.asarray(np.array([1.0, 1.0]) / np.sqrt(2.0), dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)
    delta0 = float(abs(psi0[0]) * abs(psi0[1]))
    if horizon == 0.0:
        return CollapseMetricResult(r=r, horizon=0.0, delta_mc=delta0, delta_se=0.0,
                                    delta_analytic=delta0, omega=0.0,
                                    omega_lattice=0.0, delta0=delta0,
                                    n_samples=0)
    phase, factor = build_two_point_phase(spec, r, horizon, n_steps)
    ens = nm.run_field_ensemble(phase, factor, psi0, n_samples, master_seed)
    finals = ens.final_states
    estimator = np.abs(finals[:, 0]) * np.abs(finals[:, 1])
    delta_mc, delta_se = mean_se(estimator)
    omega = pg.omega_from_quadrature(spec, r, horizon)
    return CollapseMetricResult(
        r=r, horizon=horizon, delta_mc=delta_mc, delta_se=delta_se,
        delta_analytic=float(np.exp(omega) * delta0), omega=omega,
        omega_lattice=lattice_delta_exponent(phase), delta0=delta0,
        n_samples=n_samples)


def _cat_phase(spec: pg.PropagatorSpec, geometry: AmplificationGeometry,
               n_particles: int):
    """Two-configuration influence phase for the N-particle cat state;
    returns (phase, factor)."""
    left, right = geometry.positions(n_particles)
    return _point_phase(spec, left, right, geometry.horizon, geometry.n_steps)


def coherence_exponent(phase: nm.InfluencePhase, n_steps: int = None) -> float:
    """log of the off-diagonal suppression |ρ_LR(t)/ρ_LR(0)| from the exact
    reduced dynamics; equals 2·Ω between the two configurations."""
    rho0 = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    rho_t = nm.influence_phase_apply(phase, rho0, n_steps=n_steps)
    return float(np.log(abs(rho_t.entries[0, 1]) / 0.5))


def amplification_scan(spec: pg.PropagatorSpec, n_values,
                       geometry: AmplificationGeometry) -> AmplificationScan:
    """Exponent of the cat-coherence suppression for each particle number.

    The decay is transient, so the fitted exponent is the accumulated
    value at the horizon, guarded by a plateau-flatness check (the last
    quarter of the window must not move it by more than 5% in relative
    terms). Geometries violating the separation invariants are
    flagged out-of-regime rather than rejected.
    """
    mb = spec.boson_mass
    in_regime = (geometry.peak_separation > 1.0 / mb
                 and geometry.intra_spacing > 1.0 / mb)
    exponents = []
    for n in n_values:
        phase, _ = _cat_phase(spec, geometry, int(n))
        full = coherence_exponent(phase)
        partial = coherence_exponent(phase, n_steps=int(0.75 * geometry.n_steps))
        if in_regime and abs(full - partial) > 0.05 * abs(full):
            raise FitError(
                "coherence exponent not saturated at the horizon",
                times=np.array([0.75 * geometry.horizon, geometry.horizon]),
                values=np.array([partial, full]))
        exponents.append(full)
    base = exponents[0]
    ratios = [e / base for e in exponents]
    return AmplificationScan(n_values=list(n_values), exponents=exponents,
                             ratios=ratios,
                             peak_separation=geometry.peak_separation,
                             intra_spacing=geometry.intra_spacing,
                             in_regime=in_regime, horizon=geometry.horizon)


@dataclass
class PlateauReport:
    r_values: list
    omega_horizons: list        # per r: list of Ω_T on the horizon grid
    omega_limits: list          # per r: Ω_∞(r)
    monotone: bool
    bounded_below: bool
    passed: bool


def transient_plateau_check(spec: pg.PropagatorSpec, r_values) -> PlateauReport:
    """Verify Ω_t decreases toward a finite negative plateau Ω_∞(r).

    Ω_t is evaluated at horizons 5, 10, 20, 40 and 80 boson Compton times.
    A slack of 1e-3 of the plateau absorbs the O(T^{-3/2}) oscillatory
    remainder of the finite-horizon quadrature when checking monotonicity
    and the lower bound.
    """
    horizons = (5.0, 10.0, 20.0, 40.0, 80.0)
    slack = 1e-3
    monotone = True
    bounded = True
    omega_h, omega_l = [], []
    for r in r_values:
        level = max(abs(pg.omega_plateau(spec)), 1e-12)
        curve = [pg.omega_from_quadrature(spec, float(r), float(t) / spec.boson_mass)
                 for t in horizons]
        lim = pg.omega_infinity(spec, float(r))
        omega_h.append(curve)
        omega_l.append(lim)
        diffs = np.diff(curve)
        monotone = monotone and bool(np.all(diffs <= slack * level))
        bounded = bounded and bool(np.min(curve) >= lim - slack * level)
    passed = monotone and bounded and all(l < 0 for l in omega_l)
    return PlateauReport(r_values=list(r_values), omega_horizons=omega_h,
                         omega_limits=omega_l, monotone=monotone,
                         bounded_below=bounded, passed=passed)
