import multiprocessing
import os

import numpy as np
import pytest

from collapsemc import gaussian_field as gf
from collapsemc import nonmarkov as nm
from collapsemc import workers
from collapsemc.errors import (DegenerateEnsembleError, InvalidParameterError,
                               NumericFailureError, UnsupportedRegimeError)
from collapsemc.hilbert import DensityMatrix, QuantumState, trace_distance
from collapsemc.mcstats import mean_se


def make_phase(n_steps=4, n_sites=2, seed=0, scale=0.12, relation="zero",
               coupling=1.0, dt=0.25):
    """Random admissible spacetime kernel with diagonal point couplings."""
    rng = np.random.default_rng(seed)
    p = n_steps * n_sites
    a = scale * (rng.normal(size=(p, 2 * p)) + 1j * rng.normal(size=(p, 2 * p)))
    gamma = a @ a.conj().T
    if relation == "zero":
        s = np.zeros((p, p), dtype=complex)
    elif relation == "general":
        s = a @ a.T
    elif relation == "covariance":
        b = scale * rng.normal(size=(p, 2 * p))
        gamma = (b @ b.T).astype(complex)
        s = gamma.copy()
    else:
        raise ValueError(relation)
    pair = gf.KernelPair(gamma=gamma, relation=s)
    times = (np.arange(n_steps) + 0.5) * dt
    couplings = [np.diag([coupling if x == a_ else 0.0 for x in range(2)]).astype(complex)
                 for a_ in range(n_sites)]
    return nm.build_influence_phase(pair, couplings, times, dt, volume_element=1.0)


def clipped_phase():
    """Phase and factor of an indefinite kernel clipped within an infinite
    floor: the factor keeps fewer columns than the 2P of the stacked matrix."""
    rng = np.random.default_rng(20)
    p = 8
    a = 0.2 * (rng.normal(size=(p, 2 * p)) + 1j * rng.normal(size=(p, 2 * p)))
    evals, evecs = np.linalg.eigh(a @ a.conj().T)
    evals[0] = -0.02                                  # force indefiniteness
    gamma = (evecs * evals) @ evecs.conj().T
    pair = gf.KernelPair(gamma=0.5 * (gamma + gamma.conj().T),
                         relation=np.zeros((p, p), dtype=complex), psd_floor=np.inf)
    couplings = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    return nm.build_influence_phase(pair, couplings, (np.arange(4) + 0.5) * 0.25, 0.25)


PSI0 = np.array([np.sqrt(0.35), np.sqrt(0.65)], dtype=complex)


def rho0():
    return DensityMatrix(np.outer(PSI0, PSI0.conj()))


# -------------------------------------------------------------- influence

def test_influence_zero_coupling_is_identity():
    phase, _ = make_phase(coupling=0.0)
    out = nm.influence_phase_apply(phase, rho0())
    np.testing.assert_allclose(out.entries, rho0().entries, atol=1e-15)


def test_influence_preserves_trace_and_diagonal():
    phase, _ = make_phase(relation="general", seed=3)
    out = nm.influence_phase_apply(phase, rho0())
    assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.diag(out.entries), np.diag(rho0().entries),
                               atol=1e-13)
    out.validate()


def test_influence_rejects_noncommuting_couplings():
    phase, _ = make_phase()
    phase.couplings[0] = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(UnsupportedRegimeError):
        nm.influence_phase_apply(phase, rho0())


def test_influence_partial_steps_interpolates():
    phase, _ = make_phase(n_steps=6, seed=9)
    full = nm.influence_phase_apply(phase, rho0())
    part = nm.influence_phase_apply(phase, rho0(), n_steps=0)
    np.testing.assert_allclose(part.entries, rho0().entries, atol=1e-15)
    mid = nm.influence_phase_apply(phase, rho0(), n_steps=3)
    assert abs(mid.entries[0, 1]) > abs(full.entries[0, 1])


# ---------------------------------------------------- closed form and steps

def test_memory_free_steps_equal_closed_form():
    # S = D kills the memory kernel: the trajectory is the product of the
    # per-step field exponentials alone
    phase, factor = make_phase(relation="covariance", seed=5)
    assert np.abs(phase.auxiliary_relation_kernel()).max() < 1e-12
    xi = gf.sample_field(factor, seed=8)
    states = nm.linear_states(phase, xi.values[None, :], PSI0)[0]
    psi = QuantumState(PSI0.copy())
    for k in range(phase.n_steps):
        psi = nm.step_linear_nonmarkov(psi, xi, None, phase, k)
    np.testing.assert_allclose(psi.amplitudes, states[-1], rtol=1e-12)


def test_eta_average_reproduces_closed_form():
    phase, factor = make_phase(relation="zero", seed=6)
    xi = gf.sample_field(factor, seed=4)
    target = nm.linear_states(phase, xi.values[None, :], PSI0)[0][-1]
    relf = gf.relation_factor(phase.auxiliary_relation_kernel())
    n_eta = 200_000
    eta = gf.sample_relation_fields(relf, n_eta, seed=11)
    j = phase.sources()
    kets = np.exp(-1j * ((xi.values[None, :] + eta) @ j.T)) * PSI0[None, :]
    est = kets.mean(axis=0)
    se = kets.std(axis=0) / np.sqrt(n_eta)
    assert np.all(np.abs(est - target) <= 5 * np.abs(se) + 1e-12)


def test_step_index_validation():
    phase, factor = make_phase()
    xi = gf.sample_field(factor, seed=1)
    psi = QuantumState(PSI0.copy())
    with pytest.raises(InvalidParameterError):
        nm.step_linear_nonmarkov(psi, xi, None, phase, phase.n_steps)


def test_unraveling_condition_closed_form_ensemble():
    phase, factor = make_phase(relation="general", seed=12, scale=0.15)
    oracle = nm.influence_phase_apply(phase, rho0())
    ens = nm.run_field_ensemble(phase, factor, PSI0, 6000, master_seed=3)
    rho = np.einsum("na,nb->ab", ens.final_states, ens.final_states.conj()) / 6000
    td = trace_distance(DensityMatrix(0.5 * (rho + rho.conj().T)), oracle)
    # simple scale: entry MC noise ~ spread/sqrt(n)
    assert td < 0.03


def test_unraveling_condition_pair_ensemble():
    phase, factor = make_phase(relation="zero", seed=13, scale=0.12)
    oracle = nm.influence_phase_apply(phase, rho0())
    stats = nm.run_pair_ensemble(phase, factor, PSI0, 8000, master_seed=5)
    td, se = stats.trace_distance_to(oracle)
    assert td < 3.0 * se


def test_pair_ensemble_determinism():
    phase, factor = make_phase(seed=14)
    s1 = nm.run_pair_ensemble(phase, factor, PSI0, 500, master_seed=9)
    s2 = nm.run_pair_ensemble(phase, factor, PSI0, 500, master_seed=9)
    np.testing.assert_array_equal(s1.rho, s2.rho)


def test_indefinite_kernel_clipped_consistently():
    """A kernel pair with small negative stacked eigenvalues gets clipped;
    sampler and oracle share the clipped kernel so the unraveling holds."""
    phase, factor = clipped_phase()
    assert factor.clipped_mass > 0.0
    # clipped covariance is PSD
    assert np.linalg.eigvalsh(phase.kernel.gamma).min() > -1e-10
    oracle = nm.influence_phase_apply(phase, rho0())
    ens = nm.run_field_ensemble(phase, factor, PSI0, 4000, master_seed=2)
    rho = np.einsum("na,nb->ab", ens.final_states, ens.final_states.conj()) / 4000
    assert trace_distance(DensityMatrix(0.5 * (rho + rho.conj().T)), oracle) < 0.05


# ------------------------------------------------------------ field measure

def test_girsanov_weights_mean_one_and_zero_coupling():
    phase, factor = make_phase(relation="zero", seed=15)
    ens = nm.run_field_ensemble(phase, factor, PSI0, 5000, master_seed=6)
    cooked = nm.girsanov_field_measure(ens.samples, ens.final_states)
    mean, se = cooked.weight_mean_se()
    assert abs(mean - 1.0) < 3 * se

    phase0, factor0 = make_phase(coupling=0.0, seed=15)
    ens0 = nm.run_field_ensemble(phase0, factor0, PSI0, 100, master_seed=6)
    cooked0 = nm.girsanov_field_measure(ens0.samples, ens0.final_states)
    np.testing.assert_allclose(cooked0.weights, 1.0, atol=1e-12)


def test_girsanov_degenerate_ensemble():
    with pytest.raises(DegenerateEnsembleError):
        nm.girsanov_field_measure(np.zeros((3, 4), dtype=complex),
                                  np.zeros((3, 2), dtype=complex))


def test_weighted_two_point_refinement_consistency():
    """Cooked-measure two-point function at n samples agrees with the
    doubled-sample estimate within combined errors."""
    phase, factor = make_phase(relation="zero", seed=16, scale=0.2)

    def cooked_gamma(n, seed):
        ens = nm.run_field_ensemble(phase, factor, PSI0, n, master_seed=seed)
        cooked = nm.girsanov_field_measure(ens.samples, ens.final_states)
        vals = ens.samples[:, :, None] * ens.samples.conj()[:, None, :]
        mean, spread = cooked.expectation(vals)
        return mean, spread

    g1, s1 = cooked_gamma(4000, 21)
    g2, s2 = cooked_gamma(16000, 22)
    comb = np.sqrt(np.abs(s1) ** 2 + np.abs(s2) ** 2)
    assert np.all(np.abs(g1 - g2) <= 4.0 * comb + 1e-12)
    # and the correction relative to the a-priori covariance is visible
    assert np.abs(g2 - phase.kernel.gamma).max() > 0.0


# -------------------------------------------------------------- beable shift

def test_beable_shift_zero_coupling():
    phase, factor = make_phase(coupling=0.0)
    states = np.tile(PSI0, (phase.n_steps + 1, 1))
    shift = nm.beable_shift(states, phase)
    np.testing.assert_allclose(shift, 0.0, atol=1e-15)


def test_beable_shift_frozen_eigenstate_quadrature():
    phase, factor = make_phase(seed=17, coupling=1.3)
    states = np.zeros((phase.n_steps + 1, 2), dtype=complex)
    states[:, 0] = 1.0
    shift = nm.beable_shift(states, phase)
    j = phase.sources()
    d = phase.kernel.gamma
    direct = np.zeros(d.shape[0], dtype=complex)
    for p in range(d.shape[0]):
        acc = 0.0 + 0.0j
        for q in range(d.shape[0]):
            acc += d[p, q] * j[0, q]
        direct[p] = 1j * acc
    assert np.abs(shift - direct).max() <= 1e-8 * np.abs(direct).max()


def test_beable_shift_linear_in_coupling():
    phase1, _ = make_phase(seed=18, coupling=0.7)
    phase2, _ = make_phase(seed=18, coupling=1.4)
    states = np.zeros((phase1.n_steps + 1, 2), dtype=complex)
    states[:, 0] = np.sqrt(0.5)
    states[:, 1] = np.sqrt(0.5)
    s1 = nm.beable_shift(states, phase1)
    s2 = nm.beable_shift(states, phase2)
    np.testing.assert_allclose(s2, 2.0 * s1, rtol=1e-12)


def test_beable_shift_requires_zero_relation():
    phase, _ = make_phase(relation="general", seed=19)
    states = np.tile(PSI0, (phase.n_steps + 1, 1))
    with pytest.raises(UnsupportedRegimeError):
        nm.beable_shift(states, phase)


def test_beable_additivity_identity():
    phase, factor = make_phase(seed=23)
    ens = nm.run_field_ensemble(phase, factor, PSI0, 200, master_seed=8)
    cooked = nm.cooked_ensemble(phase, ens)
    np.testing.assert_allclose(cooked.beables() - cooked.samples,
                               cooked.beable_shifts, atol=1e-14)


def test_beable_shift_running_convention_differs():
    phase, factor = make_phase(seed=24)
    ens = nm.run_field_ensemble(phase, factor, PSI0, 3, master_seed=9)
    probs_states = ens.states
    final = nm.beable_shift(probs_states, phase, convention="final_time")
    running = nm.beable_shift(probs_states, phase, convention="running")
    assert final.shape == running.shape
    assert np.abs(final - running).max() > 0.0
    # the running field ignores kernel entries with later source times
    with pytest.raises(InvalidParameterError):
        nm.beable_shift(probs_states, phase, convention="bogus")


# ---------------------------------------------------------------- boundaries

def test_boundary_identity_recovers_girsanov():
    phase, factor = make_phase(seed=25)
    ens = nm.run_field_ensemble(phase, factor, PSI0, 400, master_seed=12)
    spec = nm.BoundarySpec(rho_in=rho0(), rho_out=np.eye(2, dtype=complex))
    wfe = nm.boundary_reweight(ens.samples, spec, ens.final_states)
    base = nm.girsanov_field_measure(ens.samples, ens.final_states)
    np.testing.assert_allclose(wfe.weights, base.weights, rtol=1e-12)


def test_boundary_orthogonal_raises_degenerate():
    phase, factor = make_phase(coupling=0.0)
    ens = nm.run_field_ensemble(phase, factor, np.array([1.0, 0.0]), 50,
                                master_seed=13)
    spec = nm.BoundarySpec(rho_in=DensityMatrix(np.diag([1.0, 0.0]).astype(complex)),
                           rho_out=np.diag([0.0, 1.0]).astype(complex))
    with pytest.raises(DegenerateEnsembleError):
        nm.boundary_reweight(ens.samples, spec, ens.final_states)


def test_boundary_projector_shifts_field_mean_consistently():
    phase, factor = make_phase(seed=26, scale=0.25)
    proj = np.diag([1.0, 0.0]).astype(complex)
    spec = nm.BoundarySpec(rho_in=rho0(), rho_out=proj)

    def conditional_mean(n, seed):
        ens = nm.run_field_ensemble(phase, factor, PSI0, n, master_seed=seed)
        wfe = nm.boundary_reweight(ens.samples, spec, ens.final_states)
        mean, spread = wfe.expectation(ens.samples)
        return mean, spread

    m1, s1 = conditional_mean(3000, 31)
    m2, s2 = conditional_mean(12000, 32)
    comb = np.sqrt(np.abs(s1) ** 2 + np.abs(s2) ** 2)
    assert np.all(np.abs(m1 - m2) <= 4.0 * comb + 1e-12)
    # conditioning on the projector moves the mean away from zero
    assert np.abs(m2).max() > 3.0 * np.abs(s2).max()


def test_boundary_spec_validation():
    with pytest.raises(InvalidParameterError):
        nm.BoundarySpec(rho_in=rho0(), rho_out=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidParameterError):
        nm.BoundarySpec(rho_in=rho0(), rho_out=np.diag([-1.0, 0.0]))
    with pytest.raises(InvalidParameterError):
        nm.BoundarySpec(rho_in=rho0(), rho_out=np.zeros((2, 2)))


# ------------------------------------------------------------- persistence

def test_ensemble_checkpoint_roundtrip(tmp_path):
    phase, factor = make_phase(seed=27)
    ens = nm.run_field_ensemble(phase, factor, PSI0, 64, master_seed=14)
    cooked = nm.cooked_ensemble(phase, ens)
    base = tmp_path / "ckpt"
    nm.save_ensemble(base, cooked, kernel_hash=factor.kernel_hash, master_seed=14)
    loaded, manifest = nm.load_ensemble(base)
    np.testing.assert_array_equal(loaded.samples, cooked.samples)
    np.testing.assert_array_equal(loaded.weights, cooked.weights)
    np.testing.assert_array_equal(loaded.beable_shifts, cooked.beable_shifts)
    assert manifest["kernel_hash"] == factor.kernel_hash
    assert manifest["n_samples"] == 64


def test_ensemble_checkpoint_without_shifts_is_one_file(tmp_path):
    rng = np.random.default_rng(4)
    wfe = nm.WeightedFieldEnsemble(samples=rng.normal(size=(5, 3)) + 1j,
                                   weights=rng.uniform(size=5))
    nm.save_ensemble(tmp_path / "plain", wfe, master_seed=3)
    loaded, manifest = nm.load_ensemble(tmp_path / "plain")
    assert [p.name for p in tmp_path.iterdir()] == ["plain"]
    np.testing.assert_array_equal(loaded.samples, wfe.samples)
    np.testing.assert_array_equal(loaded.weights, wfe.weights)
    assert loaded.beable_shifts is None
    assert manifest == {"kernel_hash": "", "master_seed": 3, "n_samples": 5}


# ------------------------------------------------------------ stream contract

def test_field_ensemble_rows_follow_stream_contract():
    phase, factor = make_phase(seed=29)
    ens = nm.run_field_ensemble(phase, factor, PSI0, nm.FIELD_CHUNK + 2, master_seed=16)
    for i in (0, 1, nm.FIELD_CHUNK):
        np.testing.assert_array_equal(ens.samples[i],
                                      gf.sample_fields(factor, 1, 16, 3 * i)[0])


def test_pair_ensemble_block_rebuilds_from_streams():
    """Block 1 of a 100-sample run holds samples 2 and 3: ξ, the ket's η and
    the bra's η′ come from streams 3i, 3i + 1 and 3i + 2."""
    phase, factor = make_phase(seed=30, relation="general")
    stats = nm.run_pair_ensemble(phase, factor, PSI0, 100, master_seed=17)
    assert list(stats.block_counts[:2]) == [2, 2]
    j = phase.sources()
    relf = gf.relation_factor(phase.auxiliary_relation_kernel())
    rows = [2, 3]
    xi = np.concatenate([gf.sample_fields(factor, 1, 17, 3 * i) for i in rows])

    def branch(offset):
        eta = np.concatenate([gf.sample_relation_fields(relf, 1, 17, 3 * i + offset)
                              for i in rows])
        return np.exp(-1j * ((xi + eta) @ j.T)) * PSI0[None, :]

    ket, bra = branch(1), branch(2)
    assert np.array_equal(stats.block_totals[1], np.einsum("na,nb->ab", ket, bra.conj()))


@pytest.mark.parametrize("lo, hi", [(0, 5), (nm.FIELD_CHUNK - 3, nm.FIELD_CHUNK + 3)])
def test_draw_rows_equal_one_sample_draws(lo, hi):
    """Every row of a block, on a clipped factor and across a FIELD_CHUNK
    boundary, is the one-sample draw of its own stream, bit for bit."""
    phase, factor = clipped_phase()
    assert factor.factor.shape[1] < 2 * factor.n_points
    relf = gf.relation_factor(phase.auxiliary_relation_kernel())
    xi = nm._draw_rows(gf.field_rows, factor, 18, lo, hi, 0)
    assert np.array_equal(xi, np.concatenate(
        [gf.sample_fields(factor, 1, 18, 3 * i) for i in range(lo, hi)]))
    for offset in (1, 2):
        eta = nm._draw_rows(gf.relation_field_rows, relf, 18, lo, hi, offset)
        assert np.array_equal(eta, np.concatenate(
            [gf.sample_relation_fields(relf, 1, 18, 3 * i + offset) for i in range(lo, hi)]))


def test_field_ensemble_determinism():
    phase, factor = make_phase(seed=28)
    e1 = nm.run_field_ensemble(phase, factor, PSI0, 100, master_seed=15)
    e2 = nm.run_field_ensemble(phase, factor, PSI0, 100, master_seed=15)
    np.testing.assert_array_equal(e1.samples, e2.samples)
    np.testing.assert_array_equal(e1.states, e2.states)


# ------------------------------------------------------------ input checks

ENSEMBLES = {"field": nm.run_field_ensemble, "pair": nm.run_pair_ensemble}


@pytest.mark.parametrize("ensemble", sorted(ENSEMBLES))
@pytest.mark.parametrize("n_samples", [0, -3, 2.5, True, "4", None])
def test_ensembles_refuse_bad_n_samples(ensemble, n_samples):
    phase, factor = make_phase(seed=33)
    with pytest.raises(InvalidParameterError, match="^n_samples must be an integer >= 1$"):
        ENSEMBLES[ensemble](phase, factor, PSI0, n_samples, 1)


@pytest.mark.parametrize("ensemble", sorted(ENSEMBLES))
@pytest.mark.parametrize("psi0", [[0.6, 0.8, 0.0], [0.6], [[0.6, 0.8]], [np.nan, 1.0],
                                  [1.0, np.inf]])
def test_ensembles_refuse_bad_psi0(ensemble, psi0):
    phase, factor = make_phase(seed=33)
    with pytest.raises(InvalidParameterError,
                       match="^psi0 must be a finite vector of length 2$"):
        ENSEMBLES[ensemble](phase, factor, psi0, 10, 1)


def test_ensembles_take_numpy_integer_sample_counts():
    phase, factor = make_phase(seed=33)
    field = nm.run_field_ensemble(phase, factor, PSI0, np.int64(5), 1)
    assert np.array_equal(field.states, nm.run_field_ensemble(phase, factor, PSI0, 5, 1).states)
    pair = nm.run_pair_ensemble(phase, factor, PSI0, np.int64(5), 1)
    assert np.array_equal(pair.rho, nm.run_pair_ensemble(phase, factor, PSI0, 5, 1).rho)


# ------------------------------------------------------------ forked workers

def field_run(monkeypatch, n_workers, phase, factor, n_samples):
    monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
    return nm.run_field_ensemble(phase, factor, PSI0, n_samples, 19)


def pair_run(monkeypatch, n_workers, phase, factor, n_samples):
    monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
    return nm.run_pair_ensemble(phase, factor, PSI0, n_samples, 19)


@pytest.mark.parametrize("n_workers", [1, 2, 3, 64])
@pytest.mark.parametrize("field_chunk, n_samples", [
    (7, 100),           # 15 chunks, the last one of 2 rows
    (40, 100),          # 3 chunks, fewer than most worker counts
])
def test_field_ensemble_in_workers_equals_serial(monkeypatch, field_chunk, n_samples,
                                                 n_workers):
    """Chunks dealt over forked workers give the in-process samples and
    states bit for bit; 64 workers is more than there are chunks."""
    phase, factor = make_phase(seed=31, relation="general")
    monkeypatch.setattr(nm, "FIELD_CHUNK", field_chunk)
    serial = field_run(monkeypatch, 1, phase, factor, n_samples)
    parallel = field_run(monkeypatch, n_workers, phase, factor, n_samples)
    assert np.array_equal(parallel.samples, serial.samples)
    assert np.array_equal(parallel.states, serial.states)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n_workers", [1, 2, 3, 64])
@pytest.mark.parametrize("n_samples", [131, 7])
def test_pair_ensemble_in_workers_equals_serial(monkeypatch, n_samples, n_workers):
    """Jackknife blocks dealt over forked workers give the in-process totals
    bit for bit: 50 blocks of 2 or 3 samples, or 7 blocks of one."""
    phase, factor = make_phase(seed=32, relation="general")
    serial = pair_run(monkeypatch, 1, phase, factor, n_samples)
    parallel = pair_run(monkeypatch, n_workers, phase, factor, n_samples)
    for name in ("rho", "block_totals", "block_counts", "n_samples", "clipped_mass"):
        assert np.array_equal(getattr(parallel, name), getattr(serial, name)), name
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("run, n_samples, n_forks", [
    (field_run, nm.FIELD_CHUNK, 0),         # one chunk
    (field_run, nm.FIELD_CHUNK + 1, 1),
    (pair_run, 1, 0),                       # one block
    (pair_run, 2, 1),
])
def test_one_unit_ensemble_forks_nothing(monkeypatch, fork_count, run, n_samples, n_forks):
    """An ensemble of one unit runs in-process; two units on two workers
    fork one, since the caller runs its own share."""
    phase, factor = make_phase(seed=33)
    run(monkeypatch, 2, phase, factor, n_samples)
    assert len(fork_count) == n_forks
    assert multiprocessing.active_children() == []


def fail_in_workers(real):
    """A unit runner that raises a NumericFailureError in every process but
    the caller's."""
    caller = os.getpid()

    def run(*args):
        if os.getpid() != caller:
            raise NumericFailureError("non-finite amplitude", step_index=17)
        return real(*args)

    return run


@pytest.mark.parametrize("run, runner", [(field_run, "_field_chunks"),
                                         (pair_run, "_pair_blocks")])
def test_worker_failure_reaches_the_caller_typed(monkeypatch, run, runner):
    monkeypatch.setattr(nm, runner, fail_in_workers(getattr(nm, runner)))
    monkeypatch.setattr(nm, "FIELD_CHUNK", 7)
    phase, factor = make_phase(seed=34)
    with pytest.raises(NumericFailureError, match="^non-finite amplitude$") as info:
        run(monkeypatch, 3, phase, factor, 100)
    assert info.value.step_index == 17
    assert multiprocessing.active_children() == []


def test_ensemble_inside_a_worker_runs_in_process(monkeypatch, fork_count):
    """A share never forks again: an ensemble run inside the worker's share
    or the caller's steps every chunk itself and equals the serial run."""
    phase, factor = make_phase(seed=35)
    monkeypatch.setattr(nm, "FIELD_CHUNK", 7)
    serial = field_run(monkeypatch, 1, phase, factor, 50)

    def nested(units):
        before = len(fork_count)
        ens = nm.run_field_ensemble(phase, factor, PSI0, 50, 19)
        return len(fork_count) - before, ens.samples.copy(), ens.states.copy()

    monkeypatch.setattr(workers, "worker_count", lambda: 2)
    caller, worker = workers.in_workers(nested, [0, 1])
    assert (caller[0], worker[0]) == (0, 0)
    assert len(fork_count) == 1
    for _, samples, states in (caller, worker):
        assert np.array_equal(samples, serial.samples)
        assert np.array_equal(states, serial.states)
    assert multiprocessing.active_children() == []
