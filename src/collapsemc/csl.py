"""Markovian collapse dynamics: linear/normalized SSE and statistics.

The linear equation evolves dψ = {−iH₀ + √γ Σ_x a³ M(x) w(x) − (γ/2) Σ_x
a³ M²(x)} ψ dt in the Itô convention with w white in space and time; the
ensemble mean of |ψ><ψ| solves the mass-density Lindblad equation. The
normalized equation uses centered operators M − <M> and the physical-
measure noise b. Steps are Euler–Maruyama with the Hamiltonian applied as
exact unitary half-steps around the collapse update; dt is chosen so that
γ·(max M eigenvalue)²·a³·dt stays at or below 1e-2.

There is one stepping path, `_step`, which advances a batch of states (one
per row). Ensembles, single trajectories and the public one-step functions
(a batch of one) all go through it, so collapse operators must be diagonal
in one basis. Ensembles draw per-trajectory noise from counter-based
streams keyed by (master seed, trajectory index), so results are
bit-identical for any batch size.

An ensemble steps chunks of whole jackknife blocks (up to CHUNK_ROWS
trajectories) as one batch, and sums ρ over each block's rows. Its noise
comes in time slabs of about SLAB_ELEMENTS numbers from one live stream per
trajectory (`streams.NormalSlabs`), re-keyed for each chunk, so a
trajectory's slabs are its full-horizon draw. Per-row arithmetic does not
depend on the batch (`_row_sums` adds short rows in numpy's own order), so
results do not depend on the chunk or slab size.

The chunks are dealt round-robin over as many processes as the CPU affinity
allows: the caller steps one share and forks a worker for each other share,
and every process writes its chunks' block totals and rows into outputs in
shared memory. A chunk's numbers never depend on the process that steps it,
so results do not depend on the worker count. With one CPU, one chunk, no
`fork`, a daemonic caller or other threads running, the same loop runs
in-process.
"""

from __future__ import annotations

import mmap
import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import expm

from .errors import (CollapseMcError, DegenerateTrajectoryError, FitError,
                     InvalidParameterError)
from .hilbert import (CslParams, LatticeGrid, QuantumState, as_matrix, check_finite,
                      diagonal_ops, diagonals, smearing)
from .mcstats import N_BLOCKS, block_edges, jackknife_statistic, trace_distance_jackknife
from .streams import NormalSlabs, normal_rows

NORM_TOL = 1e-8
DT_STABILITY_TARGET = 1e-2
COLLAPSE_THRESHOLD = 0.99       # top population marking a resolved collapse
CHUNK_ROWS = 1000               # trajectories stepped together: whole blocks
SLAB_ELEMENTS = 1 << 18         # noise numbers drawn per slab: rows × steps × sites


def _noise_scale(grid: LatticeGrid) -> float:
    return 1.0 / np.sqrt(grid.time_step * grid.volume_element)


def _noise_batch(grid: LatticeGrid, master_seed: int, indices) -> np.ndarray:
    return normal_rows(master_seed, indices, (grid.n_steps, grid.n_sites)) * _noise_scale(grid)


@dataclass
class WhiteNoiseRealization:
    """White noise w[t][x], i.i.d. normal with variance 1/(dt·a³)."""

    values: np.ndarray
    seed: int = None

    @classmethod
    def draw(cls, grid: LatticeGrid, master_seed: int, index: int = 0):
        return cls(values=_noise_batch(grid, master_seed, [index])[0], seed=master_seed)


@dataclass
class Trajectory:
    """Time-indexed states with the running linear weight and its noise."""

    states: list
    weight: float
    noise: WhiteNoiseRealization
    seed: int = None

    def check_weight(self):
        final = self.states[-1]
        if abs(self.weight - final.norm_squared) > NORM_TOL * max(final.norm_squared, 1e-300):
            raise InvalidParameterError("trajectory weight disagrees with final norm")
        return self


@dataclass(frozen=True)
class CatStateSpec:
    """N-particle two-site superposition |L..L> + |R..R>."""

    n_particles: int
    site_left: np.ndarray
    site_right: np.ndarray

    def __post_init__(self):
        if self.n_particles < 1:
            raise InvalidParameterError("n_particles must be at least 1")
        object.__setattr__(self, "site_left", np.asarray(self.site_left, dtype=float))
        object.__setattr__(self, "site_right", np.asarray(self.site_right, dtype=float))

    @property
    def separation(self) -> float:
        return float(np.linalg.norm(self.site_right - self.site_left))


def choose_dt(params: CslParams, mass_ops, volume_element: float) -> float:
    """Largest dt with γ·(max M eigenvalue)²·a³·dt ≤ DT_STABILITY_TARGET."""
    max_eig = 0.0
    for op in mass_ops:
        max_eig = max(max_eig, float(np.max(np.abs(np.linalg.eigvalsh(as_matrix(op))))))
    rate = params.gamma * max_eig ** 2 * volume_element
    if rate == 0.0:
        return np.inf
    return DT_STABILITY_TARGET / rate


def _linear_update(states, w, mdiag, m2sum, coef_noise, coef_drift):
    noise = (w @ mdiag) * coef_noise
    return states + (noise - coef_drift * m2sum[None, :]) * states


def _row_sums(x: np.ndarray) -> np.ndarray:
    """`x.sum(axis=1, keepdims=True)` of a 2-D array, bit for bit.

    numpy adds fewer than 8 columns in order and more pairwise; the first
    case is done here column by column, a few whole-column adds in place
    of a reduction over every short row.
    """
    if x.shape[1] >= 8:
        return x.sum(axis=1, keepdims=True)
    out = x[:, :1].copy()
    for j in range(1, x.shape[1]):
        out += x[:, j:j + 1]
    return out


def _normalized_update(states, w, mdiag, m2sum, coef_noise, coef_drift):
    probs = np.abs(states) ** 2
    probs /= _row_sums(probs)
    exp_m = probs @ mdiag.T                       # <M_x> per trajectory
    lin = (w @ mdiag) - _row_sums(w * exp_m)
    cross = exp_m @ mdiag                         # Σ_x M_x <M_x>
    quad = m2sum[None, :] - 2.0 * cross + _row_sums(exp_m ** 2)
    return states + (coef_noise * lin - coef_drift * quad) * states


def _step_operands(ops, params: CslParams, dt: float, h0, volume_element: float):
    """What `_step` needs besides the states and the noise: the half-step
    unitary (or None), the operator diagonals, Σ_x M², and the noise and
    drift coefficients."""
    mdiag = diagonals(ops)
    if mdiag is None:
        raise InvalidParameterError("collapse operators must be diagonal in one basis")
    uh = None if h0 is None else expm(-0.5j * dt * as_matrix(h0))
    coef_noise = np.sqrt(params.gamma) * volume_element * dt
    coef_drift = 0.5 * params.gamma * volume_element * dt
    return uh, mdiag, (mdiag ** 2).sum(axis=0), coef_noise, coef_drift


def _step(states, w, operands, normalized: bool):
    """Advance a batch of states (rows) by one step with noise rows w.

    Half-step unitary, collapse update, half-step unitary; normalized states
    are then renormalized. Returns the states and the largest norm drift
    removed by the renormalization (0 for the linear equation).
    """
    uh, mdiag, m2sum, coef_noise, coef_drift = operands
    update = _normalized_update if normalized else _linear_update
    if uh is not None:
        states = states @ uh.T
    states = update(states, w, mdiag, m2sum, coef_noise, coef_drift)
    if uh is not None:
        states = states @ uh.T
    if not normalized:
        return states, 0.0
    norms = np.sqrt(np.einsum("na,na->n", states.conj(), states).real)
    return states / norms[:, None], float(np.abs(norms - 1.0).max())


def _single_step(psi: QuantumState, noise_slice, ops, params: CslParams, dt: float,
                 h0, volume_element: float, normalized: bool) -> QuantumState:
    if dt <= 0:
        raise InvalidParameterError("dt must be positive")
    w = np.asarray(noise_slice, dtype=float)
    if w.shape != (len(ops),):
        raise InvalidParameterError("noise slice dimension must match operator count")
    operands = _step_operands(ops, params, dt, h0, volume_element)
    amps, _ = _step(psi.amplitudes[None, :], w[None, :], operands, normalized)
    check_finite(amps, "non-finite amplitudes")
    return QuantumState(amps[0])


def step_linear_sse(psi: QuantumState, noise_slice, ops, params: CslParams,
                    dt: float, h0=None, volume_element: float = 1.0) -> QuantumState:
    """One Euler–Maruyama step of the linear collapse equation.

    Norm is not preserved; the Hamiltonian, when given, is applied as exact
    half-steps before and after the collapse update. Operators must be
    diagonal in one basis.
    """
    return _single_step(psi, noise_slice, ops, params, dt, h0, volume_element,
                        normalized=False)


def step_normalized_sse(psi_tilde: QuantumState, noise_slice, ops, params: CslParams,
                        dt: float, h0=None, volume_element: float = 1.0) -> QuantumState:
    """One Itô step of the norm-preserving equation, renormalized on exit.

    Operators must be diagonal in one basis.
    """
    if abs(psi_tilde.norm_squared - 1.0) > 2 * NORM_TOL:
        raise InvalidParameterError("step_normalized_sse expects a unit-norm state")
    return _single_step(psi_tilde, noise_slice, ops, params, dt, h0, volume_element,
                        normalized=True)


def girsanov_normalize(traj: Trajectory):
    """Normalize the states of a linear trajectory; return them with the
    final weight <ψ|ψ> used by the cooked measure."""
    normalized = []
    for st in traj.states:
        if st.norm_squared <= 0.0:
            raise DegenerateTrajectoryError("zero-norm state in trajectory")
        normalized.append(st.normalized())
    return normalized, traj.states[-1].norm_squared


def signal_field(traj: Trajectory, ops, params: CslParams) -> np.ndarray:
    """Reconstruct w_s(x) = 2√γ <M_σ(x)>_s + b_s(x) along a physical-measure
    trajectory (states must be normalized; noise holds b)."""
    mats = [as_matrix(o) for o in ops]
    n_steps, n_sites = traj.noise.values.shape
    out = np.array(traj.noise.values, dtype=float)
    root = 2.0 * np.sqrt(params.gamma)
    for k in range(n_steps):
        psi = traj.states[k]
        for x, m in enumerate(mats):
            out[k, x] += root * psi.expectation(m)
    return out


# ---------------------------------------------------------------------------
# batched ensemble engine
# ---------------------------------------------------------------------------

@dataclass
class CslScenario:
    """Grid, operators and initial state for an ensemble run."""

    grid: LatticeGrid
    params: CslParams
    mass_ops: list
    psi0: np.ndarray
    h0: object = None
    record_stride: int = 10

    def __post_init__(self):
        mdiag = diagonals(self.mass_ops)
        if mdiag is None:
            raise InvalidParameterError(
                "ensemble engine requires collapse operators diagonal in one basis")
        psi0 = np.asarray(self.psi0, dtype=complex)
        if psi0.shape != (mdiag.shape[1],):
            raise InvalidParameterError(
                f"psi0 must be a vector of the operator dimension {mdiag.shape[1]}")
        if not np.all(np.isfinite(psi0)):
            raise InvalidParameterError("psi0 must be finite")
        norm = np.linalg.norm(psi0)
        if norm == 0.0:
            raise InvalidParameterError("psi0 must have non-zero norm")
        self.psi0 = psi0 / norm
        if self.record_stride < 1:
            raise InvalidParameterError("record_stride must be at least 1")

    def record_steps(self) -> np.ndarray:
        steps = np.arange(0, self.grid.n_steps + 1, self.record_stride)
        if steps[-1] != self.grid.n_steps:
            steps = np.append(steps, self.grid.n_steps)
        return steps


@dataclass
class EnsembleStats:
    """Block-summed ensemble records for jackknife error estimates."""

    record_times: np.ndarray
    rho_block_totals: np.ndarray        # (n_blocks, n_rec, dim, dim)
    block_counts: np.ndarray
    weights: np.ndarray                 # (n_traj,) final linear weights (or 1)
    probe_values: np.ndarray            # (n_traj, n_rec, n_probes) <M(x_p)>
    collapse_sites: np.ndarray = None   # (n_traj,) argmax site or -1
    max_norm_drift: float = 0.0

    @property
    def n_traj(self) -> int:
        return len(self.weights)

    def rho_mean(self) -> np.ndarray:
        """Ensemble mean of the final recorded density matrix."""
        return self.rho_block_totals.sum(axis=0)[-1] / self.n_traj

    def trace_distance_to(self, target):
        """Jackknife trace distance of the final recorded mean to target."""
        return trace_distance_jackknife(self.rho_block_totals[:, -1],
                                        self.block_counts, target)


def _chunk_starts(edges: np.ndarray) -> list:
    """Block indices at which chunks start, then the block count: chunks are
    consecutive whole blocks of at most CHUNK_ROWS rows, or one larger block."""
    starts = [0]
    for b in range(1, len(edges) - 1):
        if edges[b + 1] - edges[starts[-1]] > CHUNK_ROWS:
            starts.append(b)
    return starts + [len(edges) - 1]


def _shared_zeros(shape, dtype=float) -> np.ndarray:
    """Zeros in an anonymous shared mapping, so that what a forked worker
    writes into them the caller reads."""
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype, count).reshape(shape)


def _run_chunks(scenario: CslScenario, operands, normalized: bool, master_seed: int,
                edges: np.ndarray, probe_diag: np.ndarray, out, chunks) -> float:
    """Step each chunk (first block, stop block) of `chunks` as one batch.

    Writes into `out` = (ρ totals per block, probe records, final weights
    or collapse sites) at the chunk's blocks and rows; returns the largest
    norm drift.
    """
    rho_blocks, probes, finals = out
    grid = scenario.grid
    rec_lookup = {int(s): i for i, s in enumerate(scenario.record_steps())}
    rows = max(edges[stop] - edges[first] for first, stop in chunks)
    slab_steps = min(grid.n_steps, max(1, SLAB_ELEMENTS // (rows * grid.n_sites)))
    slab = np.empty((rows, slab_steps, grid.n_sites))
    streams = NormalSlabs(rows)
    scale = _noise_scale(grid)
    max_drift = 0.0

    for first, stop in chunks:
        lo, hi = edges[first], edges[stop]
        blocks = [(b, edges[b] - lo, edges[b + 1] - lo) for b in range(first, stop)]
        streams.start(master_seed, range(lo, hi))
        states = np.tile(scenario.psi0, (hi - lo, 1))

        def record(step):
            ri = rec_lookup.get(step)
            if ri is None:
                return
            for b, b_lo, b_hi in blocks:
                part = states[b_lo:b_hi]
                rho_blocks[b, ri] += np.einsum("na,nb->ab", part, part.conj())
            if probe_diag.shape[1]:
                p = np.abs(states) ** 2
                probes[lo:hi, ri, :] = (p / _row_sums(p)) @ probe_diag

        record(0)
        for k in range(grid.n_steps):
            j = k % slab_steps
            if j == 0:
                noise = streams.fill(slab[:hi - lo, :min(slab_steps, grid.n_steps - k)])
                noise *= scale
            states, drift = _step(states, noise[:, j], operands, normalized)
            max_drift = max(max_drift, drift)
            record(k + 1)
        check_finite(states, "non-finite amplitudes", grid.n_steps)
        if normalized:
            pops = np.abs(states) ** 2
            collapsed = pops.max(axis=1) > COLLAPSE_THRESHOLD
            finals[lo:hi] = np.where(collapsed, pops.argmax(axis=1), -1)
        else:
            finals[lo:hi] = np.einsum("na,na->n", states.conj(), states).real
    return max_drift


def _worker_count() -> int:
    """CPUs this process may run on; 1 where forking is unavailable or
    unsafe (a thread other than this one would not survive the fork)."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _reply(conn, run, chunks):
    """Worker body: send back `run(chunks)`, or the exception it raised."""
    try:
        reply = run(chunks)
    except Exception as exc:        # re-raised, typed, by the caller
        reply = exc
    conn.send(reply)


def _in_workers(run, chunks) -> float:
    """`run(chunks)` with the chunks dealt round-robin over up to
    `_worker_count()` processes: the caller steps the first share and forks
    a worker for each other one, which writes into the shared outputs and
    replies with its largest drift. No worker outlives the call."""
    n = min(_worker_count(), len(chunks))
    if n == 1:
        return run(chunks)
    import multiprocessing
    context = multiprocessing.get_context("fork")
    if context.current_process().daemon:    # may not have children
        return run(chunks)
    workers = []
    try:
        for i in range(1, n):
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_reply, args=(send, run, chunks[i::n]))
            worker.start()
            send.close()
            workers.append((worker, receive))
        drifts = [run(chunks[::n])]
        for worker, receive in workers:
            try:
                reply = receive.recv()
            except EOFError:
                worker.join()
                raise CollapseMcError(
                    f"ensemble worker exited with code {worker.exitcode}") from None
            if isinstance(reply, Exception):
                raise reply
            drifts.append(reply)
    finally:
        for worker, receive in workers:
            worker.join()
            receive.close()
    return max(drifts)


def _run_ensemble(scenario: CslScenario, n_traj: int, master_seed: int,
                  normalized: bool, probe_sites=(), n_blocks: int = N_BLOCKS) -> EnsembleStats:
    if n_traj < 1:
        raise InvalidParameterError("n_traj must be at least 1")
    grid = scenario.grid
    operands = _step_operands(scenario.mass_ops, scenario.params, grid.time_step,
                              scenario.h0, grid.volume_element)
    probe_diag = operands[1][list(probe_sites)].T
    rec_steps = scenario.record_steps()
    dim = len(scenario.psi0)
    edges = block_edges(n_traj, n_blocks)
    starts = _chunk_starts(edges)

    out = (_shared_zeros((len(edges) - 1, len(rec_steps), dim, dim), complex),
           _shared_zeros((n_traj, len(rec_steps), len(probe_sites))),
           _shared_zeros(n_traj, int if normalized else float))
    run = partial(_run_chunks, scenario, operands, normalized, master_seed, edges,
                  probe_diag, out)
    max_drift = _in_workers(run, list(zip(starts[:-1], starts[1:])))
    return EnsembleStats(
        record_times=rec_steps * grid.time_step,
        rho_block_totals=out[0],
        block_counts=np.diff(edges),
        weights=np.ones(n_traj) if normalized else out[2],
        probe_values=out[1],
        collapse_sites=out[2] if normalized else None,
        max_norm_drift=max_drift)


def run_linear_ensemble(scenario: CslScenario, n_traj: int, master_seed: int,
                        n_blocks: int = N_BLOCKS) -> EnsembleStats:
    """Ensemble of linear trajectories; rho records are E[|ψ><ψ|] sums."""
    return _run_ensemble(scenario, n_traj, master_seed, normalized=False,
                         n_blocks=n_blocks)


def run_normalized_ensemble(scenario: CslScenario, n_traj: int, master_seed: int,
                            probe_sites=()) -> EnsembleStats:
    """Physical-measure ensemble of the normalized equation; a trajectory
    counts as collapsed onto its most populated site when that population
    exceeds COLLAPSE_THRESHOLD."""
    return _run_ensemble(scenario, n_traj, master_seed, normalized=True,
                         probe_sites=probe_sites)


def run_trajectory(scenario: CslScenario, master_seed: int, index: int = 0,
                   normalized: bool = True) -> Trajectory:
    """Single full-resolution trajectory (states at every step): trajectory
    `index` of the ensembles run with the same scenario and seed."""
    grid = scenario.grid
    noise = WhiteNoiseRealization.draw(grid, master_seed, index)
    operands = _step_operands(scenario.mass_ops, scenario.params, grid.time_step,
                              scenario.h0, grid.volume_element)
    amps = scenario.psi0[None, :]
    states = [QuantumState(scenario.psi0.copy())]
    for k in range(grid.n_steps):
        amps, _ = _step(amps, noise.values[k:k + 1], operands, normalized)
        states.append(QuantumState(amps[0]))
    check_finite(amps, "non-finite amplitudes", grid.n_steps)
    weight = 1.0 if normalized else states[-1].norm_squared
    return Trajectory(states=states, weight=weight, noise=noise, seed=master_seed)


@dataclass
class MartingaleReport:
    times: np.ndarray
    means: np.ndarray
    ses: np.ndarray
    initial: float
    max_deviation_in_se: float
    passed: bool


def martingale_check(stats: EnsembleStats, probe_index: int,
                     initial: float) -> MartingaleReport:
    """Check E[<M(x)>_t] = <M(x)>_0 at every recorded time, within 3 SE.

    stats must come from a physical-measure (normalized) ensemble with the
    probe recorded; `initial` is the exact t=0 expectation.
    """
    vals = stats.probe_values[:, :, probe_index]
    means = vals.mean(axis=0)
    ses = vals.std(axis=0, ddof=1) / np.sqrt(stats.n_traj)
    # records where all trajectories agree (t=0) are exact up to roundoff;
    # flooring the SE keeps their ratio at the roundoff scale instead of 0/0
    floor = 1e-10 * max(1.0, abs(initial))
    dev = np.abs(means - initial) / np.maximum(ses, floor)
    worst = float(dev.max())
    return MartingaleReport(times=stats.record_times, means=means, ses=ses,
                            initial=initial, max_deviation_in_se=worst,
                            passed=bool(worst < 3.0))


@dataclass
class AmplificationFit:
    rate: float
    r_squared: float
    times: np.ndarray
    coherences: np.ndarray
    n_particles: int


def effective_cat_ops(grid: LatticeGrid, spec: CatStateSpec, params: CslParams) -> list:
    """Collapse operators restricted to the 2-dimensional {|L>, |R>} space.

    All N particles sit at the same peak position, so M_σ(x) acts as
    N·m·g_σ(x − y_peak) on each branch.
    """
    if spec.separation < 5.0 * params.sigma:
        raise InvalidParameterError("cat peaks must satisfy separation >= 5 sigma")
    peaks = np.stack([spec.site_left, spec.site_right])
    gauss = smearing(grid.spatial_points, peaks, params.sigma)    # (n_x, 2)
    return diagonal_ops(spec.n_particles * params.masses[0] * gauss)


def cat_decoherence_rate(grid: LatticeGrid, spec: CatStateSpec, params: CslParams) -> float:
    """Closed-form off-diagonal decay rate of the effective 2-state model:
    (γ/2)·a³·Σ_x (M_L(x) − M_R(x))²."""
    diag = diagonals(effective_cat_ops(grid, spec, params))
    diff = diag[:, 0] - diag[:, 1]
    return 0.5 * params.gamma * grid.volume_element * float((diff ** 2).sum())


def amplification_rate(spec: CatStateSpec, params: CslParams, grid: LatticeGrid,
                       n_traj: int = 4000, master_seed: int = 11) -> AmplificationFit:
    """Fit the exponential decay of the cat-state coherence.

    Runs the normalized collapse dynamics in the effective 2-state space
    for 2.5 decay times, then a weighted least-squares line through log|ρ_LR(t)|, discarding the
    first 10% of points and anything at the Monte-Carlo noise floor. Raises
    FitError when R² < 0.99.
    """
    ops = effective_cat_ops(grid, spec, params)
    rate_est = cat_decoherence_rate(grid, spec, params)
    if rate_est <= 0:
        raise InvalidParameterError("cat scenario has vanishing collapse rate")
    dt = min(choose_dt(params, ops, grid.volume_element), 0.05 / rate_est)
    horizon = 2.5 / rate_est
    n_steps = max(40, int(np.ceil(horizon / dt)))
    run_grid = LatticeGrid(grid.spatial_points, grid.spacing,
                           horizon / n_steps, n_steps)
    scenario = CslScenario(grid=run_grid, params=params, mass_ops=ops,
                           psi0=np.array([1.0, 1.0]) / np.sqrt(2.0),
                           record_stride=max(1, n_steps // 40))
    stats = run_normalized_ensemble(scenario, n_traj, master_seed)

    totals = stats.rho_block_totals
    nrec = totals.shape[1]
    coh = np.empty(nrec)
    coh_se = np.empty(nrec)
    for ri in range(nrec):
        coh[ri], coh_se[ri] = jackknife_statistic(
            totals[:, ri], stats.block_counts, lambda m: abs(m[0, 1]))
    times = stats.record_times

    lo = max(1, int(0.1 * nrec))
    keep = (np.arange(nrec) >= lo) & (coh > 1e-6) & (coh > 5.0 * coh_se)
    if keep.sum() < 3:
        raise FitError("too few usable points for coherence fit",
                       times=times, values=coh, r_squared=0.0)
    x = times[keep]
    y = np.log(coh[keep])
    wts = (coh[keep] / coh_se[keep]) ** 2
    wsum = wts.sum()
    xm = (wts * x).sum() / wsum
    ym = (wts * y).sum() / wsum
    slope = (wts * (x - xm) * (y - ym)).sum() / (wts * (x - xm) ** 2).sum()
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    ss_res = (wts * resid ** 2).sum()
    ss_tot = (wts * (y - ym) ** 2).sum()
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    if r2 < 0.99:
        raise FitError("coherence decay fit below R^2 = 0.99",
                       times=x, values=coh[keep], r_squared=float(r2))
    return AmplificationFit(rate=float(-slope), r_squared=float(r2),
                            times=times, coherences=coh,
                            n_particles=spec.n_particles)


def emit_trajectory_rows(trajectories, ops, dt: float, probe_sites,
                         record_stride: int = 1) -> list:
    """CSV-ready rows (seed, t, weight, <M(x)> per probe, norm error)."""
    mats = [as_matrix(o) for o in ops]
    rows = []
    for traj in trajectories:
        n_steps = len(traj.states) - 1
        for k in range(0, n_steps + 1, record_stride):
            st = traj.states[k]
            row = {
                "seed": traj.seed,
                "t": k * dt,
                "weight": st.norm_squared,
                "norm_error": abs(np.sqrt(st.norm_squared) - 1.0),
            }
            for p in probe_sites:
                row[f"m_probe_{p}"] = st.expectation(mats[p])
            rows.append(row)
    return rows
