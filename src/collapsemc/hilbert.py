"""Finite-dimensional state/operator algebra and deterministic evolution.

Everything here is dense linear algebra over the configuration space of a
finite lattice: states, density matrices, smeared mass-density operators,
the Lindblad master equation used as the ensemble oracle, and the trace
distance used by every unraveling check.

The Gaussian smearing g_σ behind every mass-density operator is written
once, in `smearing`.

Units: hbar = c = 1 throughout. The lattice volume element a³ multiplies
every spatial sum that discretizes an integral.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationFailureError, InvalidParameterError, NumericFailureError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
DIAGONAL_TOL = 1e-12
LINDBLAD_REL_TOL = 1e-9
MAX_DENSE_DIM = 4096


def as_matrix(op) -> np.ndarray:
    """Complex matrix of an operator, a density matrix or a plain array."""
    return np.asarray(getattr(op, "entries", op), dtype=complex)


def adjoint_error(m: np.ndarray, transpose: bool = False) -> float:
    """max|m − m†| (max|m − mᵀ| with transpose) relative to max(1, max|m|).

    Callers compare it with their own tolerance: below it, m is Hermitian
    (symmetric).
    """
    other = m.T if transpose else m.conj().T
    return float(np.abs(m - other).max() / max(1.0, np.abs(m).max()))


def diagonals(ops) -> np.ndarray:
    """Real diagonals of the operators, one row each, or None when an
    off-diagonal entry exceeds DIAGONAL_TOL·max(1, max|m|)."""
    mats = [as_matrix(o) for o in ops]
    diag = np.empty((len(mats), mats[0].shape[0]))
    for i, m in enumerate(mats):
        d = np.diag(m)
        if np.abs(m - np.diag(d)).max() > DIAGONAL_TOL * max(1.0, np.abs(m).max()):
            return None
        diag[i] = d.real
    return diag


def check_finite(values: np.ndarray, message: str, step_index: int = None):
    """Raise NumericFailureError unless every entry (real and imaginary
    part) is finite."""
    if not np.all(np.isfinite(values)):
        raise NumericFailureError(message, step_index=step_index)


@dataclass(frozen=True)
class LatticeGrid:
    """Discretized spatial arena plus the time grid.

    spatial_points is an (n, 3) array of site coordinates. Sites need not
    fill a regular box (a line of 3D points is a valid grid), but they must
    be distinct and share one spacing `a`, whose cube is the volume element
    attached to every spatial sum.
    """

    spatial_points: np.ndarray
    spacing: float
    time_step: float
    n_steps: int

    def __post_init__(self):
        pts = np.asarray(self.spatial_points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidParameterError("spatial_points must have shape (n, 3)")
        object.__setattr__(self, "spatial_points", pts)
        if self.spacing <= 0:
            raise InvalidParameterError("spacing must be positive")
        if self.time_step <= 0:
            raise InvalidParameterError("time_step must be positive")
        if self.n_steps < 1:
            raise InvalidParameterError("n_steps must be at least 1")
        if len(np.unique(pts.round(decimals=12), axis=0)) != len(pts):
            raise InvalidParameterError("lattice points must be distinct")

    @property
    def n_sites(self) -> int:
        return self.spatial_points.shape[0]

    @property
    def volume_element(self) -> float:
        """a³, exactly."""
        return self.spacing ** 3

    @property
    def horizon(self) -> float:
        return self.n_steps * self.time_step

    @classmethod
    def line(cls, n_sites: int, spacing: float, time_step: float, n_steps: int) -> "LatticeGrid":
        """n_sites evenly spaced sites on the x axis, starting at the origin."""
        pts = np.zeros((n_sites, 3))
        pts[:, 0] = spacing * np.arange(n_sites)
        return cls(pts, spacing, time_step, n_steps)

    @classmethod
    def box(cls, shape, spacing: float, time_step: float, n_steps: int) -> "LatticeGrid":
        axes = [spacing * np.arange(n) for n in shape]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        return cls(pts, spacing, time_step, n_steps)


@dataclass
class QuantumState:
    """Complex amplitude vector over configuration space with a norm cache."""

    amplitudes: np.ndarray
    norm_squared: float = field(default=None)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim != 1:
            raise InvalidParameterError("amplitudes must be a vector")
        recomputed = float(np.real(np.vdot(self.amplitudes, self.amplitudes)))
        if self.norm_squared is None:
            self.norm_squared = recomputed
        elif recomputed > 0 and abs(self.norm_squared - recomputed) > 1e-12 * recomputed:
            raise InvalidParameterError("cached norm_squared disagrees with amplitudes")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def normalized(self) -> "QuantumState":
        n = np.sqrt(self.norm_squared)
        if n == 0:
            raise InvalidParameterError("cannot normalize a zero state")
        return QuantumState(self.amplitudes / n)

    def expectation(self, op: np.ndarray) -> float:
        psi = self.amplitudes
        return float(np.real(np.vdot(psi, op @ psi)) / self.norm_squared)


@dataclass
class DensityMatrix:
    """Positive unit-trace complex matrix."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise InvalidParameterError("density matrix must be square")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def validate(self, eig_floor: float = -1e-10):
        h_err = adjoint_error(self.entries)
        if h_err > HERMITICITY_TOL:
            raise InvalidParameterError(f"density matrix not Hermitian (err={h_err:.3e})")
        tr = np.trace(self.entries).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidParameterError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
        min_eig = float(np.linalg.eigvalsh(0.5 * (self.entries + self.entries.conj().T)).min())
        if min_eig < eig_floor:
            raise InvalidParameterError(f"negative eigenvalue {min_eig:.3e}")
        return self


@dataclass(frozen=True)
class LatticeOperator:
    """Dense operator over configuration space."""

    entries: np.ndarray

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=complex)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise InvalidParameterError("operator must be square")
        object.__setattr__(self, "entries", ent)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_hermitian(self) -> bool:
        return adjoint_error(self.entries) <= HERMITICITY_TOL


@dataclass(frozen=True)
class CslParams:
    """Collapse strength, smearing length and per-particle masses."""

    gamma: float
    sigma: float
    masses: tuple = (1.0,)

    def __post_init__(self):
        if self.gamma < 0:
            raise InvalidParameterError("gamma must be non-negative")
        if self.sigma <= 0:
            raise InvalidParameterError("sigma must be positive")
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        if len(self.masses) == 0:
            raise InvalidParameterError("at least one particle mass is required")


def configurations(grid: LatticeGrid, n_particles: int) -> list:
    """Enumerate distinguishable-particle configurations (site index tuples)."""
    if n_particles < 1:
        raise InvalidParameterError("particle count must be at least 1")
    dim = grid.n_sites ** n_particles
    if dim > MAX_DENSE_DIM:
        raise InvalidParameterError(
            f"configuration dimension {dim} exceeds dense cap {MAX_DENSE_DIM}")
    return list(itertools.product(range(grid.n_sites), repeat=n_particles))


def smearing(points, centers, sigma: float) -> np.ndarray:
    """g_σ(x − c) = (2π)^{-3/2} σ^{-3} exp(−|x − c|²/2σ²) for every point x
    (rows) and centre c (columns), both given as (n, 3) coordinate arrays.

    The squared distance is summed one coordinate at a time, so no
    temporary is larger than the (n_points, n_centers) result.
    """
    p = np.asarray(points, dtype=float)
    c = np.asarray(centers, dtype=float)
    sq = sum((p[:, None, k] - c[None, :, k]) ** 2 for k in range(3))
    return (2.0 * np.pi) ** (-1.5) / sigma ** 3 * np.exp(-sq / (2.0 * sigma ** 2))


def mass_density_diagonals(grid: LatticeGrid, params: CslParams,
                           n_particles: int = 1) -> np.ndarray:
    """Diagonals of the smeared mass-density operators.

    Returns an (n_sites, dim) array: row x holds the position-basis diagonal
    of the operator at lattice point x. Entry for configuration (y_1..y_N) is
    (2π)^{-3/2} σ^{-3} Σ_k m_k exp(−|x−y_k|²/2σ²).
    """
    if len(params.masses) < n_particles:
        raise InvalidParameterError("need one mass per particle")
    gauss = smearing(grid.spatial_points, grid.spatial_points, params.sigma)
    if n_particles == 1:
        return params.masses[0] * gauss
    configs = configurations(grid, n_particles)
    out = np.zeros((grid.n_sites, len(configs)))
    for c, cfg in enumerate(configs):
        for k, site in enumerate(cfg):
            out[:, c] += params.masses[k] * gauss[:, site]
    return out


def diagonal_ops(rows) -> list:
    """One LatticeOperator per row, with that row as its diagonal (the
    inverse of `diagonals`)."""
    return [LatticeOperator(np.diag(row).astype(complex)) for row in rows]


def build_mass_density(grid: LatticeGrid, params: CslParams) -> list:
    """Single-particle smeared mass-density operator M_σ(x) for every
    lattice point x.

    The operators are diagonal in the position basis, Hermitian and
    positive semi-definite by construction.
    """
    return diagonal_ops(mass_density_diagonals(grid, params))


def site_density_ops(grid: LatticeGrid) -> list:
    """Single-particle number-density operators N(x) = |x><x|/a³, so that
    Σ_x a³ N(x) is the identity."""
    return diagonal_ops(np.eye(grid.n_sites) / grid.volume_element)


def point_mass_ops(grid: LatticeGrid, mass: float) -> list:
    """Point-like single-particle mass operators M(x) = mass · |x><x|.

    Idealized σ→0 normalization used by 2-site collapse scenarios: the
    decoherence rate of an off-diagonal element is then γ·mass²·a³ exactly.
    """
    return diagonal_ops(mass * np.eye(grid.n_sites))


def hopping_hamiltonian(grid: LatticeGrid, hop: float) -> LatticeOperator:
    """Nearest-neighbour 3-point-stencil Hamiltonian on a chain of sites.

    Sites are treated in index order; diagonal term 2·hop makes this the
    discrete (positive) Laplacian up to the overall sign convention.
    """
    n = grid.n_sites
    h = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        h[i, i + 1] = -hop
        h[i + 1, i] = -hop
    h += 2.0 * hop * np.eye(n)
    return LatticeOperator(h)


def lindblad_rhs(rho: np.ndarray, h0: np.ndarray, collapse_mats: list,
                 gamma: float, volume_element: float) -> np.ndarray:
    """dρ/dt = −i[H₀,ρ] − (γ/2)·a³·Σ_x [M(x),[M(x),ρ]]."""
    out = np.zeros_like(rho)
    if h0 is not None:
        out += -1j * (h0 @ rho - rho @ h0)
    if gamma != 0.0:
        for m in collapse_mats:
            mm = m @ m
            out += gamma * volume_element * (
                m @ rho @ m - 0.5 * (mm @ rho + rho @ mm))
    return out


def evolve_lindblad(rho: DensityMatrix, h0, collapse_ops, gamma: float, t: float,
                    volume_element: float = 1.0) -> DensityMatrix:
    """Propagate ρ for time t under the mass-density Lindblad equation.

    Classic fixed-step RK4; the step count is doubled until the Richardson
    estimate of the relative error drops below LINDBLAD_REL_TOL·max(t, 1).
    """
    if t < 0:
        raise InvalidParameterError("t must be non-negative")
    h0_mat = as_matrix(h0) if h0 is not None else None
    mats = [as_matrix(op) for op in (collapse_ops or [])]
    r0 = np.array(rho.entries, dtype=complex)
    if t == 0.0:
        return DensityMatrix(r0)

    generator_scale = 0.0
    if h0_mat is not None:
        generator_scale += 2.0 * np.linalg.norm(h0_mat, 2)
    for m in mats:
        generator_scale += 2.0 * gamma * volume_element * np.linalg.norm(m, 2) ** 2
    if generator_scale == 0.0:
        return DensityMatrix(r0)

    def integrate(n_steps: int) -> np.ndarray:
        h = t / n_steps
        r = r0.copy()
        for _ in range(n_steps):
            k1 = lindblad_rhs(r, h0_mat, mats, gamma, volume_element)
            k2 = lindblad_rhs(r + 0.5 * h * k1, h0_mat, mats, gamma, volume_element)
            k3 = lindblad_rhs(r + 0.5 * h * k2, h0_mat, mats, gamma, volume_element)
            k4 = lindblad_rhs(r + h * k3, h0_mat, mats, gamma, volume_element)
            r = r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return r

    n = max(16, int(np.ceil(2.0 * t * generator_scale)))
    threshold = LINDBLAD_REL_TOL * max(t, 1.0)
    coarse = integrate(n)
    for _ in range(22):
        fine = integrate(2 * n)
        err = np.abs(fine - coarse).max() / max(np.abs(fine).max(), 1e-300)
        if err / 15.0 <= threshold:
            out = 0.5 * (fine + fine.conj().T)
            return DensityMatrix(out)
        coarse, n = fine, 2 * n
        if n > (1 << 22):
            raise IntegrationFailureError(
                "step-size underflow in Lindblad integration",
                t=t, n_steps=n, error_estimate=err)
    raise IntegrationFailureError("Lindblad integration did not converge",
                                  t=t, n_steps=n, error_estimate=None)


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """(1/2)·Σ singular values of (ρ₁ − ρ₂)."""
    a, b = as_matrix(rho1), as_matrix(rho2)
    if a.shape != b.shape:
        raise InvalidParameterError("trace_distance requires equal dimensions")
    sv = np.linalg.svd(a - b, compute_uv=False)
    return 0.5 * float(sv.sum())
