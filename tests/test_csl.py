import multiprocessing
import os
import threading

import numpy as np
import pytest
from scipy.linalg import expm

from collapsemc import csl, workers
from collapsemc.errors import (CollapseMcError, DegenerateTrajectoryError, FitError,
                               InvalidParameterError, NumericFailureError)
from collapsemc.hilbert import (CslParams, DensityMatrix, LatticeGrid,
                                LatticeOperator, QuantumState, diagonals, evolve_lindblad,
                                hopping_hamiltonian, mass_density_diagonals,
                                point_mass_ops, trace_distance)
from collapsemc.mcstats import block_edges
from collapsemc.streams import stream


def two_site(gamma=0.2, mass=1.0, spacing=1.0, dt=0.02, n_steps=100, hop=0.0,
             p_left=0.3):
    grid = LatticeGrid.line(2, spacing, dt, n_steps)
    params = CslParams(gamma=gamma, sigma=1.0, masses=(mass,))
    ops = point_mass_ops(grid, mass)
    h0 = hopping_hamiltonian(grid, hop) if hop else None
    psi0 = np.array([np.sqrt(p_left), np.sqrt(1.0 - p_left)], dtype=complex)
    return csl.CslScenario(grid=grid, params=params, mass_ops=ops, psi0=psi0,
                           h0=h0, record_stride=max(1, n_steps // 10))


# -------------------------------------------------------------- white noise

def test_white_noise_variance():
    grid = LatticeGrid.line(4, 0.8, 0.05, 3000)
    noise = csl.WhiteNoiseRealization.draw(grid, master_seed=1)
    target = 1.0 / (grid.time_step * grid.volume_element)
    sample_var = noise.values.var()
    n = noise.values.size
    se = target * np.sqrt(2.0 / n)
    assert n >= 10_000
    assert abs(sample_var - target) < 5 * se


def test_white_noise_determinism():
    grid = LatticeGrid.line(2, 1.0, 0.1, 10)
    a = csl.WhiteNoiseRealization.draw(grid, master_seed=7, index=3)
    b = csl.WhiteNoiseRealization.draw(grid, master_seed=7, index=3)
    c = csl.WhiteNoiseRealization.draw(grid, master_seed=7, index=4)
    np.testing.assert_array_equal(a.values, b.values)
    assert np.any(a.values != c.values)


@pytest.mark.parametrize("indices", [[0, 1, 2], [7, 2, 7, 40, 2 ** 64 - 1], []])
def test_noise_batch_equals_per_index_streams(indices):
    """Each row is the white noise of its own stream (master seed, index)."""
    grid = LatticeGrid.line(3, 0.8, 0.05, 17)
    scale = 1.0 / np.sqrt(grid.time_step * grid.volume_element)
    expected = np.empty((len(indices), grid.n_steps, grid.n_sites))
    for row, idx in enumerate(indices):
        expected[row] = stream(11, idx).standard_normal((grid.n_steps, grid.n_sites))
    assert np.array_equal(csl._noise_batch(grid, 11, indices), expected * scale)


# -------------------------------------------------------------------- steps

def test_linear_step_zero_gamma_is_unitary():
    scen = two_site(gamma=0.0, hop=0.4)
    psi = QuantumState(scen.psi0.copy())
    out = csl.step_linear_sse(psi, np.zeros(2), scen.mass_ops,
                              scen.params, scen.grid.time_step, h0=scen.h0,
                              volume_element=scen.grid.volume_element)
    u = expm(-1j * scen.grid.time_step * scen.h0.entries)
    np.testing.assert_allclose(out.amplitudes, u @ psi.amplitudes, atol=1e-12)


def test_linear_step_scalar_closed_form():
    """1-site, constant noise w: the exact solution of the resulting ODE is
    exp[(sqrt(gamma) m w - gamma m^2 / 2) t]. Euler converges at first order,
    so Richardson extrapolation of dt and dt/2 runs hits 1e-8."""
    gamma, mass, w, horizon = 0.3, 1.2, 0.7, 1.0
    params = CslParams(gamma=gamma, sigma=1.0, masses=(mass,))
    grid1 = LatticeGrid.line(1, 1.0, 1e-4, 1)
    ops = point_mass_ops(grid1, mass)

    def run(dt):
        psi = QuantumState(np.array([1.0 + 0.0j]))
        for _ in range(int(round(horizon / dt))):
            psi = csl.step_linear_sse(psi, np.array([w]), ops, params, dt)
        return psi.amplitudes[0]

    coarse = run(2e-4)
    fine = run(1e-4)
    extrapolated = 2.0 * fine - coarse
    exact = np.exp((np.sqrt(gamma) * mass * w - 0.5 * gamma * mass ** 2) * horizon)
    assert extrapolated == pytest.approx(exact, rel=1e-8)


def test_linear_ensemble_matches_lindblad():
    scen = two_site(gamma=0.2, dt=0.01, n_steps=300, hop=0.3)
    stats = csl.run_linear_ensemble(scen, 6000, master_seed=2)
    target = evolve_lindblad(
        DensityMatrix(np.outer(scen.psi0, scen.psi0.conj())), scen.h0,
        scen.mass_ops, scen.params.gamma, scen.grid.horizon,
        volume_element=scen.grid.volume_element)
    td, se = stats.trace_distance_to(target)
    assert td < 3.0 * se


def test_normalized_step_requires_unit_norm():
    scen = two_site()
    bad = QuantumState(np.array([2.0, 0.0], dtype=complex))
    with pytest.raises(InvalidParameterError):
        csl.step_normalized_sse(bad, np.zeros(2), scen.mass_ops, scen.params,
                                0.01)


@pytest.mark.parametrize("step", [csl.step_linear_sse, csl.step_normalized_sse])
def test_single_step_rejects_non_diagonal_operator(step):
    scen = two_site()
    mixing = LatticeOperator(np.array([[1.0, 0.5], [0.5, 0.0]]))
    psi = QuantumState(scen.psi0.copy())
    with pytest.raises(InvalidParameterError):
        step(psi, np.zeros(2), [mixing, scen.mass_ops[1]], scen.params, 0.01)


def test_normalized_trajectory_norm_preserved():
    scen = two_site(gamma=0.3, dt=0.005, n_steps=10_000 // 10)
    traj = csl.run_trajectory(scen, master_seed=3, normalized=True)
    norms = [abs(np.sqrt(s.norm_squared) - 1.0) for s in traj.states]
    assert max(norms) < 1e-6


# ----------------------------------------------------------------- girsanov

def test_girsanov_weight_mean_one():
    scen = two_site(gamma=0.25, dt=0.02, n_steps=150)
    stats = csl.run_linear_ensemble(scen, 8000, master_seed=4)
    mean = stats.weights.mean()
    se = stats.weights.std(ddof=1) / np.sqrt(len(stats.weights))
    assert abs(mean - 1.0) < 3 * se


def test_girsanov_eigenstate_fixed_point_and_lognormal_weight():
    scen = two_site(gamma=0.4, dt=0.01, n_steps=200, p_left=1.0)
    n = 4000
    logw = np.empty(n)
    for i in range(min(n, 200)):
        traj = csl.run_trajectory(scen, master_seed=5, index=i, normalized=False)
        states, weight = csl.girsanov_normalize(traj)
        np.testing.assert_allclose(states[-1].amplitudes,
                                   scen.psi0, atol=1e-9)
        logw[i] = np.log(weight)
    logw = logw[:200]
    # exact solution: log w = 2 sqrt(g) a^3 m B_t - 2 g a^3 m^2 t
    gamma, mass, vol = 0.4, 1.0, 1.0
    t = scen.grid.horizon
    mean_expect = -2.0 * gamma * vol * mass ** 2 * t * 1.0
    var_expect = 4.0 * gamma * vol * mass ** 2 * t
    # Euler discretization shifts the mean at O(dt); allow for it
    se = np.sqrt(var_expect / len(logw))
    assert abs(logw.mean() - mean_expect) < 5 * se + 0.05 * abs(mean_expect)
    assert abs(logw.var(ddof=1) - var_expect) < 5 * var_expect * np.sqrt(2.0 / len(logw))


def test_zero_noise_weight_matches_deterministic_decay():
    scen = two_site(gamma=0.3, dt=1e-3, n_steps=1000, p_left=1.0)
    psi = QuantumState(scen.psi0.copy())
    for k in range(scen.grid.n_steps):
        psi = csl.step_linear_sse(psi, np.zeros(2), scen.mass_ops, scen.params,
                                  scen.grid.time_step,
                                  volume_element=scen.grid.volume_element)
    # eigenstate: <M^2> integrated = m^2 t, so the weight is exp(-gamma m^2 a^3 t)
    expected = np.exp(-scen.params.gamma * scen.grid.horizon)
    assert psi.norm_squared == pytest.approx(expected, rel=2e-3)


def test_girsanov_degenerate_trajectory():
    grid = LatticeGrid.line(2, 1.0, 0.1, 1)
    noise = csl.WhiteNoiseRealization.draw(grid, 1)
    traj = csl.Trajectory(states=[QuantumState(np.array([0.0, 0.0j]))],
                          weight=0.0, noise=noise)
    with pytest.raises(DegenerateTrajectoryError):
        csl.girsanov_normalize(traj)


def test_statistical_equivalence_of_the_two_pictures():
    """Physical-measure ensemble of the normalized equation against the
    Girsanov-reweighted linear ensemble at the same horizon."""
    scen = two_site(gamma=0.3, dt=0.01, n_steps=120, hop=0.2)
    n = 6000
    norm_stats = csl.run_normalized_ensemble(scen, n, master_seed=6)
    rho_phys = norm_stats.rho_mean()

    lin_stats = csl.run_linear_ensemble(scen, n, master_seed=7)
    rho_lin = lin_stats.rho_mean()          # E[|psi><psi|], already reweighted
    rho_lin = rho_lin / np.trace(rho_lin).real
    td = trace_distance(DensityMatrix(0.5 * (rho_phys + rho_phys.conj().T)),
                        DensityMatrix(0.5 * (rho_lin + rho_lin.conj().T)))
    _, se_n = norm_stats.trace_distance_to(
        DensityMatrix(0.5 * (rho_lin + rho_lin.conj().T)))
    assert td < 3.5 * se_n + 0.01


# ------------------------------------------------------------- signal field

def test_signal_field_zero_gamma_is_white():
    scen = two_site(gamma=0.0, dt=0.05, n_steps=400)
    traj = csl.run_trajectory(scen, master_seed=8, normalized=True)
    w = csl.signal_field(traj, scen.mass_ops, scen.params)
    np.testing.assert_array_equal(w, traj.noise.values)
    target_sd = 1.0 / np.sqrt(scen.grid.time_step * scen.grid.volume_element)
    mean = w.mean()
    assert abs(mean) < 5 * target_sd / np.sqrt(w.size)


def test_signal_field_collapsed_state_time_average():
    scen = two_site(gamma=0.2, dt=0.02, n_steps=2000, p_left=1.0)
    traj = csl.run_trajectory(scen, master_seed=9, normalized=True)
    w = csl.signal_field(traj, scen.mass_ops, scen.params)
    m_eig = 1.0        # site-0 point mass eigenvalue
    target = 2.0 * np.sqrt(scen.params.gamma) * m_eig
    noise_sd = 1.0 / np.sqrt(scen.grid.time_step * scen.grid.volume_element)
    se = noise_sd / np.sqrt(scen.grid.n_steps)
    assert abs(w[:, 0].mean() - target) < 5 * se


def test_signal_field_ensemble_mean_tracks_state():
    scen = two_site(gamma=0.25, dt=0.02, n_steps=60)
    n = 300
    acc = None
    exp_acc = None
    for i in range(n):
        traj = csl.run_trajectory(scen, master_seed=10, index=i, normalized=True)
        w = csl.signal_field(traj, scen.mass_ops, scen.params)
        m_vals = np.array([[s.expectation(op.entries) for op in scen.mass_ops]
                           for s in traj.states[:-1]])
        acc = w if acc is None else acc + w
        exp_acc = m_vals if exp_acc is None else exp_acc + m_vals
    mean_w = acc / n
    mean_m = 2.0 * np.sqrt(scen.params.gamma) * exp_acc / n
    noise_sd = 1.0 / np.sqrt(scen.grid.time_step * scen.grid.volume_element)
    se = noise_sd / np.sqrt(n)
    assert np.abs(mean_w - mean_m).max() < 4 * se


# --------------------------------------------------------------- martingale

def test_martingale_eigenstate_exact():
    scen = two_site(gamma=0.3, dt=0.02, n_steps=100, p_left=1.0)
    stats = csl.run_normalized_ensemble(scen, 500, master_seed=11,
                                        probe_sites=(0,))
    report = csl.martingale_check(stats, probe_index=0, initial=1.0)
    assert report.passed
    np.testing.assert_allclose(report.means, 1.0, atol=1e-9)


def test_martingale_zero_gamma_constant():
    scen = two_site(gamma=0.0, dt=0.02, n_steps=100)
    stats = csl.run_normalized_ensemble(scen, 500, master_seed=12,
                                        probe_sites=(0,))
    report = csl.martingale_check(stats, probe_index=0, initial=0.3)
    assert report.passed
    np.testing.assert_allclose(report.means, 0.3, atol=1e-9)


def test_martingale_two_site_superposition():
    scen = two_site(gamma=0.25, dt=0.02, n_steps=10, p_left=0.3)
    # horizon 5/gamma-rate with coarse records
    rate = 0.25
    dt = 0.04
    n_steps = int(5.0 / rate / dt)
    scen = two_site(gamma=0.25, dt=dt, n_steps=n_steps, p_left=0.3)
    stats = csl.run_normalized_ensemble(scen, 8000, master_seed=13,
                                        probe_sites=(0,))
    report = csl.martingale_check(stats, probe_index=0, initial=0.3)
    assert report.passed, report.max_deviation_in_se


# ------------------------------------------------------------ amplification

def test_cat_spec_validation():
    with pytest.raises(InvalidParameterError):
        csl.CatStateSpec(n_particles=0, site_left=np.zeros(3), site_right=np.ones(3))
    params = CslParams(gamma=0.1, sigma=1.0, masses=(1.0,))
    grid = LatticeGrid.line(10, 1.0, 1.0, 1)
    close = csl.CatStateSpec(n_particles=1, site_left=np.zeros(3),
                             site_right=np.array([2.0, 0.0, 0.0]))
    with pytest.raises(InvalidParameterError):
        csl.effective_cat_ops(grid, close, params)


def test_cat_ops_equal_mass_density_at_the_peak_sites():
    # the amplification_csl geometry: spacing sigma, peaks on sites 3 and 9
    grid = LatticeGrid.line(13, 1.0, 1.0, 1)
    params = CslParams(gamma=0.02, sigma=1.0, masses=(1.0,))
    spec = csl.CatStateSpec(n_particles=1, site_left=grid.spatial_points[3],
                            site_right=grid.spatial_points[9])
    cat = diagonals(csl.effective_cat_ops(grid, spec, params))
    assert np.array_equal(cat, mass_density_diagonals(grid, params)[:, [3, 9]])


def test_amplification_single_particle_rate():
    sigma, sep = 1.0, 6.0
    grid = LatticeGrid.line(14, sigma, 1.0, 1)
    params = CslParams(gamma=0.02, sigma=sigma, masses=(1.0,))
    left = np.array([3.0, 0.0, 0.0])
    right = np.array([3.0 + sep, 0.0, 0.0])
    spec = csl.CatStateSpec(n_particles=1, site_left=left, site_right=right)
    fit = csl.amplification_rate(spec, params, grid, n_traj=2500, master_seed=14)
    analytic = csl.cat_decoherence_rate(grid, spec, params)
    assert fit.rate == pytest.approx(analytic, rel=0.10)
    assert fit.r_squared > 0.99


def test_choose_dt_rule():
    grid = LatticeGrid.line(2, 1.0, 0.1, 1)
    params = CslParams(gamma=0.5, sigma=1.0, masses=(2.0,))
    ops = point_mass_ops(grid, 2.0)
    dt = csl.choose_dt(params, ops, grid.volume_element)
    assert params.gamma * 4.0 * grid.volume_element * dt == pytest.approx(1e-2)


# ------------------------------------------------------------ reproducibility

def test_trajectory_seed_determinism():
    scen = two_site(gamma=0.2, dt=0.02, n_steps=50)
    t1 = csl.run_trajectory(scen, master_seed=15, index=2)
    t2 = csl.run_trajectory(scen, master_seed=15, index=2)
    for a, b in zip(t1.states, t2.states):
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    t1.check_weight()


@pytest.mark.parametrize("hop", [0.0, 0.3])
@pytest.mark.parametrize("normalized", [False, True])
def test_trajectory_equals_ensemble_row(normalized, hop):
    """A single trajectory is row `index` of the ensemble: final weight
    (linear) or final probe value (normalized)."""
    scen = two_site(gamma=0.3, dt=0.02, n_steps=60, hop=hop)
    n = 20
    if normalized:
        stats = csl.run_normalized_ensemble(scen, n, master_seed=18, probe_sites=(0,))
    else:
        stats = csl.run_linear_ensemble(scen, n, master_seed=18)
    for i in (0, 7, n - 1):
        traj = csl.run_trajectory(scen, master_seed=18, index=i, normalized=normalized)
        if normalized:
            measured = traj.states[-1].expectation(scen.mass_ops[0].entries)
            expected = stats.probe_values[i, -1, 0]
        else:
            measured, expected = traj.weight, stats.weights[i]
        assert measured == pytest.approx(expected, rel=1e-12)


def test_ensemble_independent_of_blocking():
    scen = two_site(gamma=0.2, dt=0.02, n_steps=50)
    s1 = csl.run_linear_ensemble(scen, 300, master_seed=16, n_blocks=10)
    s2 = csl.run_linear_ensemble(scen, 300, master_seed=16, n_blocks=50)
    np.testing.assert_allclose(s1.rho_mean(), s2.rho_mean(), atol=1e-13)
    np.testing.assert_array_equal(s1.weights, s2.weights)


def line_scenario(n_sites, hop=0.0, n_steps=23):
    """Unequal amplitudes on a line: with three or more sites the in-order
    and pairwise row sums differ, so a wrong summation order shows."""
    grid = LatticeGrid.line(n_sites, 1.0, 0.02, n_steps)
    params = CslParams(gamma=0.3, sigma=1.0, masses=(1.0,))
    h0 = hopping_hamiltonian(grid, hop) if hop else None
    psi0 = np.sqrt(np.arange(1.0, n_sites + 1.0)) * np.exp(0.4j * np.arange(n_sites))
    return csl.CslScenario(grid=grid, params=params, mass_ops=point_mass_ops(grid, 1.0),
                           psi0=psi0, h0=h0, record_stride=5)


def numpy_row_sums(x):
    return x.sum(axis=1, keepdims=True)


def per_block_reference(scenario, n_traj, master_seed, normalized, probe_sites, n_blocks):
    """The ensemble loop before chunking: each jackknife block on its own, in
    batches of at most 512 rows, with its full-horizon noise drawn at once."""
    grid = scenario.grid
    operands = csl._step_operands(scenario.mass_ops, scenario.params, grid.time_step,
                                  scenario.h0, grid.volume_element)
    probe_diag = operands[1][list(probe_sites)].T
    rec_lookup = {int(s): i for i, s in enumerate(scenario.record_steps())}
    dim = len(scenario.psi0)
    edges = block_edges(n_traj, n_blocks)
    rho = np.zeros((len(edges) - 1, len(rec_lookup), dim, dim), dtype=complex)
    weights = np.ones(n_traj)
    probes = np.zeros((n_traj, len(rec_lookup), len(probe_sites)))
    sites = np.full(n_traj, -1)
    max_drift = 0.0
    for b in range(len(edges) - 1):
        for lo in range(edges[b], edges[b + 1], 512):
            hi = min(lo + 512, edges[b + 1])
            noise = csl._noise_batch(grid, master_seed, np.arange(lo, hi))
            states = np.tile(scenario.psi0, (hi - lo, 1))
            for k in range(grid.n_steps + 1):
                if k:
                    states, drift = csl._step(states, noise[:, k - 1, :], operands,
                                              normalized)
                    max_drift = max(max_drift, drift)
                ri = rec_lookup.get(k)
                if ri is not None:
                    rho[b, ri] += np.einsum("na,nb->ab", states, states.conj())
                    p = np.abs(states) ** 2
                    probes[lo:hi, ri, :] = (p / p.sum(axis=1, keepdims=True)) @ probe_diag
            pops = np.abs(states) ** 2
            if normalized:
                sites[lo:hi] = np.where(pops.max(axis=1) > csl.COLLAPSE_THRESHOLD,
                                        pops.argmax(axis=1), -1)
            else:
                weights[lo:hi] = np.einsum("na,na->n", states.conj(), states).real
    return rho, weights, probes, sites if normalized else None, max_drift


def assert_ensemble_equals_reference(monkeypatch, scenario, n_traj, normalized, n_blocks,
                                     chunk_rows, slab_elements):
    probe_sites = (0, scenario.grid.n_sites - 1)
    with monkeypatch.context() as m:
        m.setattr(csl, "_row_sums", numpy_row_sums)
        expected = per_block_reference(scenario, n_traj, 21, normalized, probe_sites,
                                       n_blocks)
    monkeypatch.setattr(csl, "CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(csl, "SLAB_ELEMENTS", slab_elements)
    stats = csl._run_ensemble(scenario, n_traj, 21, normalized, probe_sites, n_blocks)
    measured = (stats.rho_block_totals, stats.weights, stats.probe_values,
                stats.collapse_sites, stats.max_norm_drift)
    for name, got, want in zip(("rho_block_totals", "weights", "probe_values",
                                "collapse_sites", "max_norm_drift"), measured, expected):
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("slab_elements", [1, 50, 1 << 18])
@pytest.mark.parametrize("chunk_rows, n_blocks", [
    (3, 50),            # one block per chunk (blocks of 2 or 3 rows)
    (7, 50),            # several blocks, 131 rows not a multiple of the chunk
    (10 ** 6, 50),      # every block in one chunk
    (20, 4),            # blocks of 32 or 33 rows, each larger than the chunk
])
@pytest.mark.parametrize("hop", [0.0, 0.3])
@pytest.mark.parametrize("normalized", [False, True])
def test_chunked_ensemble_equals_per_block_loop(monkeypatch, normalized, hop, chunk_rows,
                                                n_blocks, slab_elements):
    """Chunks of whole blocks with slab noise give the per-block run bit for
    bit. A 50-number slab is 2 steps of a 7-row, 3-site chunk, so the 23
    steps split unevenly; 1 gives one-step slabs."""
    assert_ensemble_equals_reference(monkeypatch, line_scenario(3, hop), 131, normalized,
                                     n_blocks, chunk_rows, slab_elements)


@pytest.mark.parametrize("normalized", [False, True])
def test_chunked_ensemble_equals_per_block_loop_on_nine_sites(monkeypatch, normalized):
    """Nine sites and nine states: every row sum takes numpy's pairwise path."""
    assert_ensemble_equals_reference(monkeypatch, line_scenario(9, 0.3), 61, normalized,
                                     10, 13, 300)


STATS_FIELDS = ("record_times", "rho_block_totals", "block_counts", "weights",
                "probe_values", "collapse_sites", "max_norm_drift")


def run_with_workers(monkeypatch, n_workers, scenario, n_traj, normalized, n_blocks):
    monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
    return csl._run_ensemble(scenario, n_traj, 21, normalized,
                             (0, scenario.grid.n_sites - 1), n_blocks)


@pytest.mark.parametrize("n_workers", [1, 2, 3, 64])
@pytest.mark.parametrize("chunk_rows, n_blocks", [
    (7, 50),            # 24 chunks of 5 to 7 rows, the last one of 3
    (20, 4),            # 4 chunks of one block each, 32 or 33 rows > CHUNK_ROWS
])
@pytest.mark.parametrize("hop", [0.0, 0.3])
@pytest.mark.parametrize("normalized", [False, True])
def test_ensemble_in_workers_equals_serial(monkeypatch, normalized, hop, chunk_rows,
                                           n_blocks, n_workers):
    """Chunks dealt over forked workers give the in-process run bit for bit,
    in every field; 64 workers is more than there are chunks."""
    scenario = line_scenario(3, hop)
    monkeypatch.setattr(csl, "CHUNK_ROWS", chunk_rows)
    serial = run_with_workers(monkeypatch, 1, scenario, 131, normalized, n_blocks)
    parallel = run_with_workers(monkeypatch, n_workers, scenario, 131, normalized, n_blocks)
    for name in STATS_FIELDS:
        assert np.array_equal(getattr(parallel, name), getattr(serial, name)), name
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("chunk_rows, n_forks", [(10 ** 6, 0), (70, 1)])
def test_workers_forked_are_one_fewer_than_shares(monkeypatch, fork_count, chunk_rows,
                                                  n_forks):
    """One chunk runs in-process and forks nothing; two chunks on two
    workers fork one, since the caller steps its own share."""
    monkeypatch.setattr(csl, "CHUNK_ROWS", chunk_rows)
    run_with_workers(monkeypatch, 2, line_scenario(3), 131, True, 50)
    assert len(fork_count) == n_forks
    assert multiprocessing.active_children() == []


def test_worker_count_is_the_cpu_affinity_on_one_thread():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    assert workers.worker_count() == cpus
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10.0,))
    other.start()
    try:
        assert workers.worker_count() == 1
    finally:
        release.set()
        other.join(10.0)
    assert not other.is_alive()


def run_and_send(send, scenario):
    stats = csl._run_ensemble(scenario, 131, 21, True, (0, 2), 50)
    send.send([getattr(stats, name) for name in STATS_FIELDS])


def test_daemonic_caller_steps_every_chunk_itself(monkeypatch):
    """A daemonic process may not have children, so its ensembles run
    in-process instead of failing to start a worker."""
    monkeypatch.setattr(csl, "CHUNK_ROWS", 7)
    scenario = line_scenario(3)
    serial = run_with_workers(monkeypatch, 1, scenario, 131, True, 50)
    monkeypatch.setattr(workers, "worker_count", lambda: 2)
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    daemon = context.Process(target=run_and_send, args=(send, scenario), daemon=True)
    daemon.start()
    send.close()
    try:
        assert receive.poll(60.0)
        fields = receive.recv()
    finally:
        daemon.join(60.0)
        receive.close()
    assert daemon.exitcode == 0
    for name, got in zip(STATS_FIELDS, fields):
        assert np.array_equal(got, getattr(serial, name)), name


def fail_in_workers(real, failure):
    """`_run_chunks` that fails in every process but the caller's."""
    caller = os.getpid()

    def run(*args):
        if os.getpid() != caller:
            failure()
        return real(*args)

    return run


def raise_numeric_failure():
    raise NumericFailureError("non-finite amplitudes", step_index=17)


def test_worker_failure_reaches_the_caller_typed(monkeypatch):
    monkeypatch.setattr(csl, "_run_chunks", fail_in_workers(csl._run_chunks,
                                                            raise_numeric_failure))
    monkeypatch.setattr(csl, "CHUNK_ROWS", 7)
    with pytest.raises(NumericFailureError, match="^non-finite amplitudes$") as info:
        run_with_workers(monkeypatch, 3, line_scenario(3), 131, True, 50)
    assert info.value.step_index == 17
    assert multiprocessing.active_children() == []


def test_worker_exit_without_reply_is_an_error(monkeypatch):
    monkeypatch.setattr(csl, "_run_chunks", fail_in_workers(csl._run_chunks,
                                                            lambda: os._exit(3)))
    monkeypatch.setattr(csl, "CHUNK_ROWS", 7)
    with pytest.raises(CollapseMcError, match="^ensemble worker exited with code 3$"):
        run_with_workers(monkeypatch, 2, line_scenario(3), 131, False, 50)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n_rows", [1, 2, 5, 64, 1000])
def test_row_sums_equal_numpy_sum(n_rows):
    rng = np.random.default_rng(n_rows)
    for n_cols in range(1, 21):
        x = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-15, 16, (n_rows, n_cols))
        assert np.array_equal(csl._row_sums(x), x.sum(axis=1, keepdims=True)), n_cols


@pytest.mark.parametrize("psi0, match", [
    ([0.0, 0.0], "^psi0 must have non-zero norm$"),
    ([np.nan, 1.0], "^psi0 must be finite$"),
    ([np.inf, 1.0], "^psi0 must be finite$"),
    ([1.0, 0.0, 0.0], "^psi0 must be a vector of the operator dimension 2$"),
    ([[1.0, 0.0]], "^psi0 must be a vector of the operator dimension 2$"),
])
def test_scenario_rejects_bad_psi0(psi0, match):
    scen = two_site()
    with pytest.raises(InvalidParameterError, match=match):
        csl.CslScenario(grid=scen.grid, params=scen.params, mass_ops=scen.mass_ops,
                        psi0=np.array(psi0))


@pytest.mark.parametrize("stride", [0, -1])
def test_scenario_rejects_record_stride_below_one(stride):
    scen = two_site()
    with pytest.raises(InvalidParameterError, match="^record_stride must be at least 1$"):
        csl.CslScenario(grid=scen.grid, params=scen.params, mass_ops=scen.mass_ops,
                        psi0=scen.psi0, record_stride=stride)


@pytest.mark.parametrize("run", [csl.run_linear_ensemble, csl.run_normalized_ensemble])
@pytest.mark.parametrize("n_traj", [0, -4])
def test_ensembles_reject_n_traj_below_one(run, n_traj):
    with pytest.raises(InvalidParameterError, match="^n_traj must be at least 1$"):
        run(two_site(), n_traj, master_seed=3)


def test_emit_trajectory_rows():
    scen = two_site(gamma=0.2, dt=0.02, n_steps=20)
    trajs = [csl.run_trajectory(scen, master_seed=17, index=i) for i in range(2)]
    rows = csl.emit_trajectory_rows(trajs, scen.mass_ops, scen.grid.time_step,
                                    probe_sites=(0, 1), record_stride=5)
    assert len(rows) == 2 * 5
    assert set(rows[0]) == {"seed", "t", "weight", "norm_error",
                            "m_probe_0", "m_probe_1"}
    assert rows[0]["t"] == 0.0
    assert rows[0]["m_probe_0"] == pytest.approx(0.3, abs=1e-12)
