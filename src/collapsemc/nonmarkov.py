"""Non-Markovian unraveling driven by a complex Gaussian field.

The restriction throughout is the diagonal regime: all coupling operators
commute and are diagonal in one fixed basis, so the time-ordered
exponential reduces to c-number exponents per basis state and the exact
reduced dynamics (influence functional) is available in closed form as the
oracle. The linear stochastic state for a field realization ξ is

    ψ_ξ,α = exp(−i J_α·ξ − ½ J_α·D_F·J_α + ½ J_α·S·J_α) ψ₀,α

with J_α the per-configuration source over spacetime lattice points and
D_F the time-ordered kernel (θ(0) = ½ on the diagonal). The auxiliary
noise η with relation kernel E[ηηᵀ] = D_F − S removes the deterministic
memory factor from individual trajectories: averaging exp(−iJ·η) restores
it, so a trajectory is a product of local-in-time step operators. Because
the η covariance would otherwise contaminate the ket-bra cross term, the
unraveling estimator pairs two independent auxiliary draws (η, η′), one
for the ket and one for the bra.

Stream contract: sample i of an ensemble run with master seed s draws ξ
from stream (s, 3i), the ket's η from (s, 3i + 1) and the bra's η′ from
(s, 3i + 2), so every sample is the same for any block or chunk layout.
Each row is bit for bit the one-sample draw `sample_fields(factor, 1, s,
3i)[0]` (and `sample_relation_fields` for η, η′); `gf.field_rows` and
`gf.relation_field_rows` produce a block of them from one re-keyed Philox
generator and one stacked matmul, with values unchanged.

So every `FIELD_CHUNK` chunk of `run_field_ensemble` and every jackknife
block of `run_pair_ensemble` is an independent unit of work. The units are
dealt over every core by the package's one fork driver, `workers.in_workers`,
and each writes its samples, states or block total into outputs in shared
memory; results do not depend on the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import gaussian_field as gf
from .errors import DegenerateEnsembleError, InvalidParameterError, UnsupportedRegimeError
from .hilbert import (DensityMatrix, QuantumState, adjoint_error, as_matrix, check_finite,
                      diagonals)
from .mcstats import block_edges, mean_se, trace_distance_jackknife
from .workers import in_workers, shared_zeros

FIELD_CHUNK = 2048              # samples per closed-form evolution batch


def time_ordered_kernel(kernel: np.ndarray, times: np.ndarray) -> np.ndarray:
    """D_F(p,q) = θ(t_p−t_q) D(p,q) + θ(t_q−t_p) D*(p,q), θ(0) = ½."""
    t = np.asarray(times, dtype=float)
    theta = 0.5 * (np.sign(t[:, None] - t[None, :]) + 1.0)
    d = np.asarray(kernel, dtype=complex)
    return theta * d + theta.T * np.conj(d)


@dataclass
class InfluencePhase:
    """Kernel pair over the spacetime lattice plus diagonal couplings.

    couplings holds one Hermitian operator ĵ(x) per site (already scaled
    by the coupling constant); times are the per-step field nodes. Points
    are ordered time-major: p = step·n_sites + site.
    """

    kernel: gf.KernelPair
    couplings: list
    times: np.ndarray
    time_step: float
    volume_element: float = 1.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        mats = [as_matrix(c) for c in self.couplings]
        self.couplings = mats
        n_points = len(self.times) * len(mats)
        if self.kernel.n_points != n_points:
            raise InvalidParameterError(
                f"kernel has {self.kernel.n_points} points, expected {n_points}")
        for m in mats:
            if adjoint_error(m) > 1e-10:
                raise InvalidParameterError("coupling operators must be Hermitian")

    @property
    def n_steps(self) -> int:
        return len(self.times)

    @property
    def n_sites(self) -> int:
        return len(self.couplings)

    @property
    def dim(self) -> int:
        return self.couplings[0].shape[0]

    def sources(self) -> np.ndarray:
        """Per-configuration c-number sources J[α, p] = j_α(x_p)·dt·a³.

        Raises UnsupportedRegimeError unless every coupling is diagonal in
        the fixed basis (the documented restriction).
        """
        j = diagonals(self.couplings)
        if j is None:
            raise UnsupportedRegimeError("couplings must be diagonal in a fixed basis")
        weight = self.time_step * self.volume_element
        # time-major layout: J[α, k*n_x + x]
        full = np.repeat(j.T[:, None, :], self.n_steps, axis=1).reshape(self.dim, -1)
        return weight * full

    def ordered_kernel(self) -> np.ndarray:
        point_times = np.repeat(self.times, self.n_sites)
        return time_ordered_kernel(self.kernel.gamma, point_times)

    def auxiliary_relation_kernel(self) -> np.ndarray:
        """Relation kernel D_F − S of the auxiliary noise η."""
        return self.ordered_kernel() - self.kernel.relation


def build_influence_phase(kernel_pair: gf.KernelPair, couplings, times,
                          time_step: float, volume_element: float = 1.0):
    """Factor the kernel (clipping within its floor) and return the phase
    built on the clipped pair together with the sampling factor.

    The clipped kernel is the model's kernel: sampler, closed form and the
    influence oracle all see the same (positive semi-definite) object.
    """
    factor = gf.factor_kernel(kernel_pair)
    if factor.clipped_mass > 0.0:
        pair = clipped_pair(factor, psd_floor=kernel_pair.psd_floor)
    else:
        pair = kernel_pair
    phase = InfluencePhase(kernel=pair, couplings=list(couplings),
                           times=times, time_step=time_step,
                           volume_element=volume_element)
    return phase, factor


def clipped_pair(factor: gf.SamplingFactor, psd_floor: float = None) -> gf.KernelPair:
    """Read (Γ, S) back from a sampling factor's stacked real covariance."""
    c = factor.reconstruct()
    n = factor.n_points
    a, b = c[:n, :n], c[:n, n:]
    cc, d = c[n:, :n], c[n:, n:]
    gamma = (a + d) + 1j * (cc - b)
    relation = (a - d) + 1j * (cc + b)
    return gf.KernelPair(gamma=gamma, relation=relation, psd_floor=psd_floor)


def influence_phase_apply(phase: InfluencePhase, rho_f: DensityMatrix,
                          n_steps: int = None) -> DensityMatrix:
    """Exact reduced dynamics in the diagonal regime.

    Multiplies each matrix element |α><β| by exp(iΦ_αβ) with
    iΦ_αβ = J_α·D·J_β − ½ J_α·D_F·J_α − ½ J_β·D_F*·J_β. Trace preserving;
    diagonal entries are exactly invariant.
    """
    j = phase.sources()
    if n_steps is not None:
        keep = n_steps * phase.n_sites
        mask = np.zeros(j.shape[1])
        mask[:keep] = 1.0
        j = j * mask
    d = phase.kernel.gamma
    df = phase.ordered_kernel()
    cross = j @ d @ j.T
    quad = np.einsum("ap,pq,aq->a", j, df, j)
    i_phi = cross - 0.5 * quad[:, None] - 0.5 * np.conj(quad)[None, :]
    out = np.exp(i_phi) * rho_f.entries
    return DensityMatrix(0.5 * (out + out.conj().T))


def linear_states(phase: InfluencePhase, xi: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """Closed-form linear states for a batch of field realizations.

    xi has shape (n_samples, P); returns (n_samples, n_steps+1, dim). Exact
    for the lattice model at any step size (all step operators commute).
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=complex))
    psi0 = np.asarray(psi0, dtype=complex)
    j = phase.sources()
    n_t, n_x, dim = phase.n_steps, phase.n_sites, phase.dim
    memory = phase.auxiliary_relation_kernel()

    j_steps = j.reshape(dim, n_t, n_x)
    xi_steps = xi.reshape(len(xi), n_t, n_x)
    increments = np.einsum("nkx,akx->nka", xi_steps, j_steps)

    det = np.empty((n_t + 1, dim), dtype=complex)
    det[0] = 0.0
    for k in range(1, n_t + 1):
        jk = j[:, :k * n_x]
        det[k] = -0.5 * np.einsum("ap,pq,aq->a", jk, memory[:k * n_x, :k * n_x], jk)

    cum = np.concatenate([np.zeros((len(xi), 1, dim), dtype=complex),
                          np.cumsum(increments, axis=1)], axis=1)
    states = np.exp(-1j * cum + det[None, :, :]) * psi0[None, None, :]
    check_finite(states, "non-finite amplitude in closed-form evolution")
    return states


def step_linear_nonmarkov(psi: QuantumState, xi: gf.FieldSample, eta,
                          phase: InfluencePhase, step_index: int) -> QuantumState:
    """One local-in-time step exp(−i dt a³ Σ_x ĵ(x)(ξ + η)) applied to ψ.

    eta may be None when the memory kernel vanishes (S = D); the product
    of steps over a full (ξ, η) realization is then the trajectory whose
    η-average reproduces the closed-form linear state.
    """
    if not 0 <= step_index < phase.n_steps:
        raise InvalidParameterError("step_index out of range")
    j = phase.sources().reshape(phase.dim, phase.n_steps, phase.n_sites)
    sl = slice(step_index * phase.n_sites, (step_index + 1) * phase.n_sites)
    drive = np.asarray(xi.values, dtype=complex)[sl]
    if eta is not None:
        drive = drive + np.asarray(eta.values, dtype=complex)[sl]
    factors = np.exp(-1j * (j[:, step_index, :] @ drive))
    amps = psi.amplitudes * factors
    check_finite(amps, "non-finite amplitude", step_index)
    return QuantumState(amps)


@dataclass
class WeightedFieldEnsemble:
    """Field realizations with Girsanov weights and optional beable shifts."""

    samples: np.ndarray                  # (n, P) complex
    weights: np.ndarray                  # (n,) positive
    beable_shifts: np.ndarray = None     # (n, P) complex or None

    def __post_init__(self):
        if np.any(self.weights < 0):
            raise InvalidParameterError("weights must be positive")

    @property
    def n_samples(self) -> int:
        return len(self.weights)

    def weight_mean_se(self):
        return mean_se(self.weights)

    def expectation(self, values: np.ndarray):
        """Self-normalized weighted mean over samples (complex-aware SE)."""
        v = np.asarray(values)
        w = self.weights / self.weights.sum()
        mean = np.tensordot(w, v, axes=(0, 0))
        spread = np.sqrt(np.tensordot(w * w, np.abs(v - mean) ** 2, axes=(0, 0)))
        return mean, spread

    def beables(self) -> np.ndarray:
        """ξ̃ = ξ + shift per sample (requires beable_shifts)."""
        if self.beable_shifts is None:
            raise InvalidParameterError("ensemble carries no beable shifts")
        return self.samples + self.beable_shifts


@dataclass
class BoundarySpec:
    """Initial state and final positive operator; identity recovers the
    standard (one-boundary) measure."""

    rho_in: DensityMatrix
    rho_out: np.ndarray

    def __post_init__(self):
        self.rho_out = np.asarray(self.rho_out, dtype=complex)
        if adjoint_error(self.rho_out) > 1e-10:
            raise InvalidParameterError("rho_out must be Hermitian")
        scale = max(1.0, np.abs(self.rho_out).max())
        evs = np.linalg.eigvalsh(0.5 * (self.rho_out + self.rho_out.conj().T))
        if evs.min() < -1e-10 * scale:
            raise InvalidParameterError("rho_out must be positive semi-definite")
        if evs.max() <= 0.0:
            raise InvalidParameterError("rho_out must be nonzero")


def girsanov_field_measure(samples: np.ndarray, final_states: np.ndarray) -> WeightedFieldEnsemble:
    """Attach the weight ⟨ψ_ξ|ψ_ξ⟩ at final time to each field sample."""
    states = np.atleast_2d(np.asarray(final_states, dtype=complex))
    weights = np.einsum("na,na->n", states.conj(), states).real
    if weights.max() <= 0.0:
        raise DegenerateEnsembleError("all Girsanov weights vanish")
    return WeightedFieldEnsemble(samples=np.atleast_2d(samples), weights=weights)


def boundary_reweight(samples: np.ndarray, boundary: BoundarySpec,
                      final_states: np.ndarray) -> WeightedFieldEnsemble:
    """Two-boundary weights ⟨ψ_ξ|ρ_out|ψ_ξ⟩ (up to global normalization)."""
    states = np.atleast_2d(np.asarray(final_states, dtype=complex))
    weights = np.einsum("na,ab,nb->n", states.conj(), boundary.rho_out, states).real
    weights = np.where(np.abs(weights) < 1e-300, 0.0, weights)
    if weights.max() <= 0.0:
        raise DegenerateEnsembleError(
            "all boundary weights vanish: rho_out is orthogonal to the ensemble")
    return WeightedFieldEnsemble(samples=np.atleast_2d(samples), weights=weights)


def _normalized_probabilities(states: np.ndarray) -> np.ndarray:
    norms = np.einsum("...a,...a->...", states.conj(), states).real
    return (np.abs(states) ** 2) / norms[..., None]


def beable_shift(states: np.ndarray, phase: InfluencePhase,
                 convention: str = "final_time") -> np.ndarray:
    """Shift field turning ξ into the beable ξ̃ (S = 0 only).

    shift(p) = i Σ_q D(p,q)·⟨ĵ⟩(q)·dt·a³, with ⟨ĵ⟩ evaluated on the
    normalized state at each step (state entering the step). With
    convention="running" the sum is restricted to q at or before p's time,
    which is the standard (hidden-variable style) noise field instead of
    the two-sided beable.

    states: (n_steps+1, dim) for one trajectory or (n, n_steps+1, dim).
    Returns shifts with matching leading shape.
    """
    if np.abs(phase.kernel.relation).max() > 0.0:
        raise UnsupportedRegimeError("beable shift is derived for S = 0 only")
    arr = np.asarray(states, dtype=complex)
    single = arr.ndim == 2
    if single:
        arr = arr[None, ...]
    probs = _normalized_probabilities(arr[:, :-1, :])       # (n, n_t, dim)
    j = phase.sources().reshape(phase.dim, phase.n_steps, phase.n_sites)
    jbar = np.einsum("nka,akx->nkx", probs, j).reshape(len(arr), -1)
    d = phase.kernel.gamma
    if convention == "final_time":
        shifts = 1j * (jbar @ d.T)
    elif convention == "running":
        point_times = np.repeat(phase.times, phase.n_sites)
        mask = (point_times[None, :] <= point_times[:, None]).astype(float)
        shifts = 1j * (jbar @ (d * mask).T)
    else:
        raise InvalidParameterError(f"unknown convention {convention!r}")
    return shifts[0] if single else shifts


@dataclass
class UnravelingStats:
    """Pair-estimator ensemble average and jackknife blocks."""

    rho: np.ndarray
    block_totals: np.ndarray
    block_counts: np.ndarray
    n_samples: int
    clipped_mass: float

    def trace_distance_to(self, target: DensityMatrix):
        return trace_distance_jackknife(self.block_totals, self.block_counts, target)


def _draw_rows(rows, factor, seed: int, lo: int, hi: int, offset: int) -> np.ndarray:
    """Samples lo..hi−1 from `rows` (gf.field_rows or gf.relation_field_rows),
    sample i from stream (seed, 3i + offset): offset 0 for ξ, 1 for the
    ket's η, 2 for the bra's η′."""
    return rows(factor, seed, range(3 * lo + offset, 3 * hi + offset, 3))


def _ensemble_psi0(phase: InfluencePhase, psi0, n_samples) -> np.ndarray:
    """psi0 as a complex vector, after refusing an `n_samples` that is not
    an integer >= 1 or a `psi0` that is not a finite vector of length dim."""
    if (isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer))
            or n_samples < 1):
        raise InvalidParameterError("n_samples must be an integer >= 1")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (phase.dim,) or not np.all(np.isfinite(psi0)):
        raise InvalidParameterError(f"psi0 must be a finite vector of length {phase.dim}")
    return psi0


def _pair_blocks(phase: InfluencePhase, factor: gf.SamplingFactor, relf, psi0: np.ndarray,
                 master_seed: int, edges: np.ndarray, block_totals: np.ndarray, blocks):
    """Write the pair-estimator total of each block in `blocks` into
    `block_totals`."""
    j = phase.sources()
    for b in blocks:
        lo, hi = edges[b], edges[b + 1]
        xi = _draw_rows(gf.field_rows, factor, master_seed, lo, hi, 0)
        ket, bra = (np.exp(-1j * ((xi + eta) @ j.T)) * psi0[None, :]
                    for eta in (_draw_rows(gf.relation_field_rows, relf, master_seed,
                                           lo, hi, offset) for offset in (1, 2)))
        check_finite(ket, "non-finite amplitude in pair ensemble")
        check_finite(bra, "non-finite amplitude in pair ensemble")
        block_totals[b] = np.einsum("na,nb->ab", ket, bra.conj())


def run_pair_ensemble(phase: InfluencePhase, factor: gf.SamplingFactor,
                      psi0: np.ndarray, n_samples: int, master_seed: int) -> UnravelingStats:
    """Monte-Carlo check of the unraveling condition with auxiliary noise.

    Sample i draws ξ, η, η′ by the stream contract of the module docstring;
    the estimator averages |ψ_{ξ,η}><ψ_{ξ,η′}|. The jackknife blocks are
    dealt over every core (`workers.in_workers`), each total written by one
    process and reduced in fixed block order, so results are independent of
    scheduling.
    """
    psi0 = _ensemble_psi0(phase, psi0, n_samples)
    relf = gf.relation_factor(phase.auxiliary_relation_kernel())
    edges = block_edges(n_samples)
    block_totals = shared_zeros((len(edges) - 1, phase.dim, phase.dim), complex)
    in_workers(partial(_pair_blocks, phase, factor, relf, psi0, master_seed, edges,
                       block_totals), range(len(edges) - 1))
    rho = block_totals.sum(axis=0) / n_samples
    return UnravelingStats(rho=0.5 * (rho + rho.conj().T),
                           block_totals=block_totals, block_counts=np.diff(edges),
                           n_samples=n_samples, clipped_mass=factor.clipped_mass)


@dataclass
class FieldEnsemble:
    """Raw (a-priori measure) field samples with their linear trajectories."""

    samples: np.ndarray          # (n, P)
    states: np.ndarray           # (n, n_steps+1, dim)

    @property
    def final_states(self) -> np.ndarray:
        return self.states[:, -1, :]


def _field_chunks(phase: InfluencePhase, factor: gf.SamplingFactor, psi0: np.ndarray,
                  master_seed: int, samples: np.ndarray, states: np.ndarray, chunks):
    """Draw the samples lo..hi−1 of each chunk (lo, hi) in `chunks` and evolve
    their closed-form states, writing both at their rows."""
    for lo, hi in chunks:
        xi = _draw_rows(gf.field_rows, factor, master_seed, lo, hi, 0)
        samples[lo:hi] = xi
        states[lo:hi] = linear_states(phase, xi, psi0)


def run_field_ensemble(phase: InfluencePhase, factor: gf.SamplingFactor,
                       psi0: np.ndarray, n_samples: int, master_seed: int) -> FieldEnsemble:
    """Sample ξ from the a-priori measure and evolve the closed-form states
    in chunks of FIELD_CHUNK samples, dealt over every core
    (`workers.in_workers`)."""
    psi0 = _ensemble_psi0(phase, psi0, n_samples)
    samples = shared_zeros((n_samples, factor.n_points), complex)
    states = shared_zeros((n_samples, phase.n_steps + 1, phase.dim), complex)
    chunks = [(lo, min(lo + FIELD_CHUNK, n_samples))
              for lo in range(0, n_samples, FIELD_CHUNK)]
    in_workers(partial(_field_chunks, phase, factor, psi0, master_seed, samples, states),
               chunks)
    return FieldEnsemble(samples=samples, states=states)


def cooked_ensemble(phase: InfluencePhase, ensemble: FieldEnsemble) -> WeightedFieldEnsemble:
    """Girsanov-weighted ensemble with per-sample beable shifts attached."""
    wfe = girsanov_field_measure(ensemble.samples, ensemble.final_states)
    wfe.beable_shifts = beable_shift(ensemble.states, phase)
    return wfe


def save_ensemble(path, wfe: WeightedFieldEnsemble, *, kernel_hash: str = "",
                  master_seed: int = None):
    """Checkpoint the ensemble as one `.npz` (gf.write_checkpoint) at `path`:
    arrays `samples`, `weights` and, when present, `shifts`, plus the
    manifest (kernel_hash, master_seed, n_samples) as the JSON `meta`."""
    shifts = {} if wfe.beable_shifts is None else {"shifts": wfe.beable_shifts}
    manifest = {"kernel_hash": kernel_hash, "master_seed": master_seed,
                "n_samples": int(wfe.n_samples)}
    gf.write_checkpoint(path, manifest, samples=wfe.samples, weights=wfe.weights, **shifts)


def load_ensemble(path):
    """Inverse of save_ensemble; returns (WeightedFieldEnsemble, manifest)."""
    arrays, manifest = gf.read_checkpoint(path)
    return WeightedFieldEnsemble(samples=arrays["samples"], weights=arrays["weights"],
                                 beable_shifts=arrays.get("shifts")), manifest
