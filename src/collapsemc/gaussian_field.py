"""Complex Gaussian random fields on finite lattices.

A zero-mean complex Gaussian field is fixed by its covariance kernel
Γ(x,y) = E[ξ(x)ξ*(y)] and relation kernel S(x,y) = E[ξ(x)ξ(y)]. Sampling
goes through the real 2n-dimensional stacked representation (real and
imaginary parts), which stays valid when S ≠ 0 breaks circular symmetry.
Kernels that are indefinite within a declared floor are clipped to the
nearest positive semi-definite kernel and the clipped mass is reported.
"""

from __future__ import annotations

import hashlib
import json
import logging
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NotPositiveSemidefiniteError
from .hilbert import adjoint_error, check_finite
from .streams import normal_rows, stream

log = logging.getLogger(__name__)

KERNEL_SYMMETRY_TOL = 1e-10


@dataclass
class KernelPair:
    """Covariance kernel Γ (Hermitian) and relation kernel S (symmetric).

    psd_floor bounds how negative the stacked matrix [[Γ,S],[S*,Γ*]] may be
    before factorization refuses to clip; None selects 1e-9 × max diag Γ.
    """

    gamma: np.ndarray
    relation: np.ndarray
    psd_floor: float = None

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=complex)
        self.relation = np.asarray(self.relation, dtype=complex)
        n = self.gamma.shape[0]
        if self.gamma.shape != (n, n) or self.relation.shape != (n, n):
            raise InvalidParameterError("kernels must be square and same size")
        if adjoint_error(self.gamma) > KERNEL_SYMMETRY_TOL:
            raise InvalidParameterError("covariance kernel must be Hermitian")
        if adjoint_error(self.relation, transpose=True) > KERNEL_SYMMETRY_TOL:
            raise InvalidParameterError("relation kernel must be symmetric")
        if self.psd_floor is None:
            self.psd_floor = 1e-9 * max(float(np.abs(np.diag(self.gamma)).max()), 1.0)

    @property
    def n_points(self) -> int:
        return self.gamma.shape[0]

    def stacked_real(self) -> np.ndarray:
        """Real covariance of (Re ξ, Im ξ); spectrum is half that of the
        complex stacked matrix [[Γ,S],[S*,Γ*]]."""
        g, s = self.gamma, self.relation
        top = np.hstack([(g + s).real, (s - g).imag])
        bot = np.hstack([(s + g).imag, (g - s).real])
        c = 0.5 * np.vstack([top, bot])
        return 0.5 * (c + c.T)

    def hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.gamma).tobytes())
        h.update(np.ascontiguousarray(self.relation).tobytes())
        return h.hexdigest()


@dataclass
class SamplingFactor:
    """Factor F of the (clipped) stacked real covariance: F Fᵀ reproduces it."""

    factor: np.ndarray           # (2n, m) real
    n_points: int
    clipped_mass: float
    kernel_hash: str = ""

    def reconstruct(self) -> np.ndarray:
        return self.factor @ self.factor.T


@dataclass
class FieldSample:
    """One realization of the complex field over the lattice points."""

    values: np.ndarray
    seed: int = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        check_finite(self.values, "field sample contains non-finite entries")


@dataclass
class QuarticReweightSpec:
    """Quartic tilt strength λ and the sextic regulator ε that keeps the
    reweighted measure normalizable."""

    strength: float
    epsilon: float = 0.0

    def __post_init__(self):
        if self.strength != 0.0 and self.epsilon <= 0.0:
            raise InvalidParameterError("epsilon must be positive when strength != 0")
        if self.epsilon < 0.0:
            raise InvalidParameterError("epsilon must be non-negative")


def factor_kernel(pair: KernelPair) -> SamplingFactor:
    """Eigen-factorize the stacked real representation of (Γ, S).

    Eigenvalues of the complex stacked matrix in [−psd_floor, 0) are clipped
    to zero (total clipped mass reported and logged); anything below the
    floor raises NotPositiveSemidefiniteError carrying the offending value.
    """
    c = pair.stacked_real()
    evals, evecs = np.linalg.eigh(c)
    stacked = 2.0 * evals          # complex stacked spectrum
    min_eig = float(stacked.min())
    if min_eig < -pair.psd_floor:
        raise NotPositiveSemidefiniteError(
            f"stacked kernel eigenvalue {min_eig:.6e} below -psd_floor",
            min_eigenvalue=min_eig)
    clipped_mass = float(np.abs(evals[evals < 0.0]).sum())
    evals = np.clip(evals, 0.0, None)
    if clipped_mass > 0.0:
        log.info("factor_kernel clipped mass %.3e (min stacked eigenvalue %.3e)",
                 clipped_mass, min_eig)
    keep = evals > 0.0
    factor = evecs[:, keep] * np.sqrt(evals[keep])
    return SamplingFactor(factor=factor, n_points=pair.n_points,
                          clipped_mass=clipped_mass, kernel_hash=pair.hash())


def _fields(factor: SamplingFactor, z: np.ndarray) -> np.ndarray:
    """Map standard normals z of shape (..., m) to fields (..., n_points)."""
    u = z @ factor.factor.T
    n = factor.n_points
    return u[..., :n] + 1j * u[..., n:]


def sample_fields(factor: SamplingFactor, n_samples: int, seed: int,
                  stream_index: int = 0) -> np.ndarray:
    """Draw an (n_samples, n_points) array of field realizations."""
    rng = stream(seed, stream_index)
    return _fields(factor, rng.standard_normal((n_samples, factor.factor.shape[1])))


def field_rows(factor: SamplingFactor, seed: int, indices) -> np.ndarray:
    """One field per stream index: row j equals
    `sample_fields(factor, 1, seed, indices[j])[0]` bit for bit.

    The normals are stacked as (N, 1, m), so the matmul runs the same
    (1, m) product per row as a one-sample draw; one (N, m) product would
    sum in another order and move values by rounding.
    """
    return _fields(factor, normal_rows(seed, indices, (1, factor.factor.shape[1])))[:, 0]


def sample_field(factor: SamplingFactor, seed: int) -> FieldSample:
    """Draw a single realization; same seed gives the identical sample."""
    return FieldSample(values=sample_fields(factor, 1, seed)[0], seed=seed)


def relation_factor(kernel: np.ndarray) -> tuple:
    """Factor a complex symmetric relation kernel C into two real eigenbases.

    Returns (Va, sa, Vb, sb) with complex scales such that the field
    η = Va·(sa ⊙ g) + Vb·(sb ⊙ h), for independent standard normal g, h,
    has E[ηηᵀ] = C. Negative eigenvalues of Re C get imaginary scales and
    eigenvalues of Im C get the rotated scale sqrt(i·β); the covariance
    E[ηη*] is whatever this construction implies (a free parameter).
    """
    c = np.asarray(kernel, dtype=complex)
    if adjoint_error(c, transpose=True) > KERNEL_SYMMETRY_TOL:
        raise InvalidParameterError("relation kernel must be symmetric")
    wa, va = np.linalg.eigh(0.5 * (c.real + c.real.T))
    wb, vb = np.linalg.eigh(0.5 * (c.imag + c.imag.T))
    sa = np.where(wa >= 0, np.sqrt(np.abs(wa)).astype(complex), 1j * np.sqrt(np.abs(wa)))
    sb = np.sqrt(1j * wb.astype(complex))
    return va, sa, vb, sb


def _relation_fields(kernel_factor, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """η = Va·(sa ⊙ g) + Vb·(sb ⊙ h) over the last axis of g and h."""
    va, sa, vb, sb = kernel_factor
    return (g * sa) @ va.T + (h * sb) @ vb.T


def sample_relation_fields(kernel_factor, n_samples: int, seed: int,
                           stream_index: int = 0) -> np.ndarray:
    """Sample fields with the prescribed relation kernel (from relation_factor)."""
    rng = stream(seed, stream_index)
    n = kernel_factor[0].shape[0]
    g = rng.standard_normal((n_samples, n))
    h = rng.standard_normal((n_samples, n))
    return _relation_fields(kernel_factor, g, h)


def relation_field_rows(kernel_factor, seed: int, indices) -> np.ndarray:
    """Row j equals `sample_relation_fields(kernel_factor, 1, seed, indices[j])[0]`
    bit for bit: g and h are consecutive draws of one stream, stacked per
    row as (N, 2, 1, n) and mapped by (1, n) products as in `field_rows`."""
    z = normal_rows(seed, indices, (2, 1, kernel_factor[0].shape[0]))
    return _relation_fields(kernel_factor, z[:, 0], z[:, 1])[:, 0]


def characteristic_check(pair: KernelPair, a: np.ndarray, b: np.ndarray,
                         n_samples: int, seed: int = 0):
    """Monte-Carlo vs closed-form generalized characteristic function.

    Empirical side: E[exp(−i Σ (ξ a − b ξ*))]. Analytic side:
    exp[Σ Γ a b − (S aa + S* bb)/2]. Returns (empirical, analytic, se).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    factor = factor_kernel(pair)
    xi = sample_fields(factor, n_samples, seed)
    phase = np.exp(-1j * (xi @ a - xi.conj() @ b))
    empirical = complex(phase.mean())
    se = float(np.sqrt((np.abs(phase - empirical) ** 2).mean() / n_samples))
    g, s = pair.gamma, pair.relation
    analytic = complex(np.exp(a @ g @ b - 0.5 * (a @ s @ a + b @ s.conj() @ b)))
    return empirical, analytic, se


@dataclass
class PsdReport:
    min_quadratic_form: float
    min_eigenvalue: float
    trials: int


def verify_psd(kernel: np.ndarray, trials: int, seed: int = 0) -> PsdReport:
    """Probe (f|D|f) with random complex test functions and report minima.

    Negative values are data, not failure: regulated kernels may violate
    positivity and callers decide what to clip.
    """
    d = np.asarray(kernel, dtype=complex)
    if adjoint_error(d) > KERNEL_SYMMETRY_TOL:
        raise InvalidParameterError("verify_psd expects a Hermitian kernel")
    rng = stream(seed)
    n = d.shape[0]
    min_q = np.inf
    for _ in range(trials):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        q = float(np.real(f.conj() @ d @ f))
        min_q = min(min_q, q)
    min_eig = float(np.linalg.eigvalsh(0.5 * (d + d.conj().T)).min())
    return PsdReport(min_quadratic_form=min_q, min_eigenvalue=min_eig, trials=trials)


@dataclass
class ReweightedEnsemble:
    """Field samples with log-space weights; expectations are self-normalized.

    Weights are kept as logs because tilted measures spread them over many
    orders of magnitude; `weights` exposes the max-shifted relative weights,
    which leave every self-normalized expectation unchanged.
    """

    samples: np.ndarray              # (n, points)
    log_weights: np.ndarray          # (n,)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights - self.log_weights.max())


def quartic_log_weights(samples: np.ndarray, spec: QuarticReweightSpec,
                        volume_element: float = 1.0) -> np.ndarray:
    """log w = Σ_x vol·(2λ·Im ξ⁴ − ε|ξ|⁶), vectorized over samples."""
    xi = np.atleast_2d(np.asarray(samples, dtype=complex))
    tilt = 2.0 * spec.strength * np.imag(xi ** 4)
    cut = spec.epsilon * np.abs(xi) ** 6
    return volume_element * (tilt - cut).sum(axis=1)


def reweight_quartic(samples, spec: QuarticReweightSpec,
                     volume_element: float = 1.0) -> ReweightedEnsemble:
    """Attach the quartic-tilt weights to an ensemble of field samples."""
    arr = np.asarray([s.values if isinstance(s, FieldSample) else s for s in samples],
                     dtype=complex)
    logw = quartic_log_weights(arr, spec, volume_element)
    check_finite(logw, "non-finite quartic weight")
    return ReweightedEnsemble(samples=arr, log_weights=logw)


def quartic_weight_bound(spec: QuarticReweightSpec, n_points: int,
                         volume_element: float = 1.0) -> float:
    """Calculus bound: per site, 2λu² − εu³ ≤ 32λ³/27ε² for u = |ξ|² ≥ 0."""
    if spec.strength <= 0.0:
        return 1.0
    per_site = 32.0 * spec.strength ** 3 / (27.0 * spec.epsilon ** 2)
    return float(np.exp(n_points * volume_element * per_site))


def write_checkpoint(path, meta: dict, **arrays):
    """Write one uncompressed `.npz` at exactly `path`: each keyword array
    under its own name, plus `meta`, the metadata as a JSON string."""
    with open(path, "wb") as f:
        np.savez(f, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def read_checkpoint(path):
    """Inverse of write_checkpoint; returns ({name: array}, metadata).

    Loads no pickled objects. Contents that are not such an archive raise
    InvalidParameterError naming the path.
    """
    with open(path, "rb") as f:
        try:
            archive = np.load(f, allow_pickle=False)
            meta = json.loads(str(archive["meta"]))
            arrays = {k: archive[k] for k in archive.files if k != "meta"}
        except (OSError, ValueError, EOFError, LookupError, zipfile.BadZipFile) as exc:
            raise InvalidParameterError(f"{path}: not a checkpoint file ({exc})") from exc
    return arrays, meta


def save_field_samples(path, samples: np.ndarray, meta: dict = None):
    """Checkpoint field samples: one `.npz` holding `samples`, the complex
    (n, P) array, and `meta` (seed, kernel hash, ...) as a JSON string."""
    write_checkpoint(path, meta or {}, samples=np.atleast_2d(np.asarray(samples, dtype=complex)))


def load_field_samples(path):
    """Inverse of save_field_samples; returns (samples, metadata)."""
    arrays, meta = read_checkpoint(path)
    return arrays["samples"], meta
