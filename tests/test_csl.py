import numpy as np
import pytest
from scipy.linalg import expm

from collapsemc import csl
from collapsemc.errors import (DegenerateTrajectoryError, FitError,
                               InvalidParameterError)
from collapsemc.hilbert import (CslParams, DensityMatrix, LatticeGrid,
                                LatticeOperator, QuantumState, diagonals, evolve_lindblad,
                                hopping_hamiltonian, mass_density_diagonals,
                                point_mass_ops, trace_distance)
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
