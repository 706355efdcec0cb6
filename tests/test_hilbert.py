import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsemc.errors import IntegrationFailureError, InvalidParameterError
from collapsemc.hilbert import (CslParams, DensityMatrix, LatticeGrid,
                                QuantumState, build_mass_density, diagonal_ops,
                                diagonals, evolve_lindblad,
                                hopping_hamiltonian, mass_density_diagonals,
                                point_mass_ops, site_density_ops, trace_distance)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


# ---------------------------------------------------------------- grid/types

def test_grid_invariants():
    grid = LatticeGrid.line(4, 0.5, 0.1, 10)
    assert grid.volume_element == 0.5 ** 3
    assert grid.n_sites == 4
    with pytest.raises(InvalidParameterError):
        LatticeGrid.line(3, -1.0, 0.1, 5)
    with pytest.raises(InvalidParameterError):
        LatticeGrid.line(3, 1.0, 0.0, 5)
    pts = np.zeros((2, 3))
    with pytest.raises(InvalidParameterError):
        LatticeGrid(pts, 1.0, 0.1, 5)


def test_state_norm_cache():
    psi = QuantumState(np.array([3.0, 4.0j]))
    assert psi.norm_squared == pytest.approx(25.0, rel=1e-14)
    with pytest.raises(InvalidParameterError):
        QuantumState(np.array([1.0, 0.0]), norm_squared=2.0)


def test_density_matrix_validation():
    random_density(4, 0).validate()
    bad = DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))
    with pytest.raises(InvalidParameterError):
        bad.validate()


def test_csl_params_validation():
    with pytest.raises(InvalidParameterError):
        CslParams(gamma=-1.0, sigma=1.0)
    with pytest.raises(InvalidParameterError):
        CslParams(gamma=1.0, sigma=0.0)
    with pytest.raises(InvalidParameterError):
        CslParams(gamma=1.0, sigma=1.0, masses=())


# ------------------------------------------------------------- mass density

def test_mass_density_point_limit():
    # sigma much smaller than the spacing: delta-concentrated diagonal
    grid = LatticeGrid.line(3, 1.0, 0.1, 1)
    params = CslParams(gamma=1.0, sigma=0.05, masses=(1.0,))
    ops = build_mass_density(grid, params)
    on_site = (2 * np.pi) ** (-1.5) / 0.05 ** 3
    m1 = ops[1].entries
    assert m1[1, 1].real == pytest.approx(on_site, rel=1e-12)
    off = np.abs(np.diag(m1)[[0, 2]]).max()
    assert off < 1e-12 * on_site


def test_mass_density_entry_ratio_at_sigma():
    # ratio between the particle site and a site one sigma away is e^{-1/2}
    sigma = 0.7
    grid = LatticeGrid.line(2, sigma, 0.1, 1)
    params = CslParams(gamma=1.0, sigma=sigma, masses=(2.5,))
    diags = mass_density_diagonals(grid, params)
    ratio = diags[1, 0] / diags[0, 0]
    assert ratio == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_mass_density_normalization_large_grid():
    # sum_x a^3 M(x) should act as mass * identity for sigma >= 2a
    a = 1.0
    grid = LatticeGrid.box((13, 13, 13), a, 0.1, 1)
    params = CslParams(gamma=1.0, sigma=2.0 * a, masses=(1.7,))
    diags = mass_density_diagonals(grid, params)
    total = grid.volume_element * diags.sum(axis=0)
    center = np.argmin(np.linalg.norm(grid.spatial_points
                                      - grid.spatial_points.mean(axis=0), axis=1))
    assert total[center] == pytest.approx(1.7, rel=0.01)


def test_mass_density_operators_hermitian_psd_commuting():
    grid = LatticeGrid.line(3, 1.0, 0.1, 1)
    params = CslParams(gamma=1.0, sigma=1.5, masses=(1.0,))
    ops = build_mass_density(grid, params)
    for op in ops:
        assert op.is_hermitian()
        assert np.linalg.eigvalsh(op.entries).min() >= 0.0
    # diagonal construction: commutators vanish exactly
    for a in ops:
        for b in ops:
            comm = a.entries @ b.entries - b.entries @ a.entries
            assert np.abs(comm).max() == 0.0


def test_mass_density_two_particles():
    grid = LatticeGrid.line(3, 1.0, 0.1, 1)
    params = CslParams(gamma=1.0, sigma=0.8, masses=(1.0, 2.0))
    diags = mass_density_diagonals(grid, params, n_particles=2)
    assert diags.shape == (3, 9)
    # configuration (1, 2): particle of mass 1 at site 1, mass 2 at site 2
    single = mass_density_diagonals(grid, params, n_particles=1)
    expected = single[:, 1] + 2.0 * single[:, 2]
    np.testing.assert_allclose(diags[:, 1 * 3 + 2], expected, rtol=1e-12)


def test_mass_density_invalid_inputs():
    grid = LatticeGrid.line(3, 1.0, 0.1, 1)
    with pytest.raises(InvalidParameterError):
        CslParams(gamma=1.0, sigma=-0.5, masses=(1.0,))
    params = CslParams(gamma=1.0, sigma=1.0, masses=(1.0,))
    with pytest.raises(InvalidParameterError):
        mass_density_diagonals(grid, params, n_particles=0)


def test_site_density_resolution_of_identity():
    grid = LatticeGrid.line(5, 0.7, 0.1, 1)
    ops = site_density_ops(grid)
    total = grid.volume_element * sum(op.entries for op in ops)
    np.testing.assert_allclose(total, np.eye(5), atol=1e-14)


# ------------------------------------------------------------------ lindblad

def test_diagonal_ops_inverts_diagonals():
    rows = np.arange(6.0).reshape(2, 3) - 2.0
    ops = diagonal_ops(rows)
    assert [op.dim for op in ops] == [3, 3]
    assert all(op.is_hermitian() for op in ops)
    np.testing.assert_array_equal(diagonals(ops), rows)


def test_lindblad_zero_generator_is_identity():
    rho = random_density(3, 1)
    out = evolve_lindblad(rho, None, [], 0.0, 7.3)
    np.testing.assert_allclose(out.entries, rho.entries, atol=1e-14)


def test_lindblad_two_site_decoherence_oracle():
    """Closed-form 2x2 oracle: for diagonal collapse operators the
    off-diagonal decays as exp(-Gamma t) with
    Gamma = (gamma/2) a^3 sum_x (M_x[0,0] - M_x[1,1])^2."""
    gamma, mass, t = 0.4, 1.3, 2.5
    grid = LatticeGrid.line(2, 0.9, 0.1, 1)
    ops = point_mass_ops(grid, mass)
    vol = grid.volume_element
    rho0 = DensityMatrix(np.array([[0.3, 0.25 - 0.1j], [0.25 + 0.1j, 0.7]]))
    out = evolve_lindblad(rho0, None, ops, gamma, t, volume_element=vol)
    diffs = [np.real(op.entries[0, 0] - op.entries[1, 1]) for op in ops]
    rate = 0.5 * gamma * vol * sum(d * d for d in diffs)
    expected = rho0.entries[0, 1] * np.exp(-rate * t)
    assert out.entries[0, 1] == pytest.approx(expected, rel=1e-8)
    np.testing.assert_allclose(np.diag(out.entries), np.diag(rho0.entries),
                               atol=1e-10)


def test_lindblad_trace_and_positivity_random():
    grid = LatticeGrid.line(8, 1.0, 0.1, 1)
    gamma = 0.3
    params = CslParams(gamma=gamma, sigma=1.2, masses=(1.0,))
    ops = build_mass_density(grid, params)
    h0 = hopping_hamiltonian(grid, 0.4)
    rho = random_density(8, 7)
    out = evolve_lindblad(rho, h0, ops, gamma, 10.0 / gamma,
                          volume_element=grid.volume_element)
    assert abs(np.trace(out.entries).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(out.entries).min() > -1e-9
    out.validate(eig_floor=-1e-9)


def test_lindblad_diagonal_fixed_point():
    grid = LatticeGrid.line(4, 1.0, 0.1, 1)
    gamma = 0.5
    params = CslParams(gamma=gamma, sigma=0.8, masses=(1.0,))
    ops = build_mass_density(grid, params)
    rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    out = evolve_lindblad(rho, None, ops, gamma, 3.0,
                          volume_element=grid.volume_element)
    np.testing.assert_allclose(out.entries, rho.entries, atol=1e-9)


def test_lindblad_rejects_negative_time():
    with pytest.raises(InvalidParameterError):
        evolve_lindblad(random_density(2, 3), None, [], 0.1, -1.0)


# ------------------------------------------------------------ trace distance

def test_trace_distance_basics():
    rho = random_density(3, 5)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    e0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    e1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    assert trace_distance(e0, e1) == pytest.approx(1.0, rel=1e-12)
    a = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
    b = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    # eigenvalues of the difference are +-0.1, so the distance is 0.1
    assert trace_distance(a, b) == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(InvalidParameterError):
        trace_distance(random_density(2, 1), random_density(3, 2))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10 ** 6))
def test_trace_distance_symmetry_property(dim, seed):
    r1 = random_density(dim, seed)
    r2 = random_density(dim, seed + 1)
    d12 = trace_distance(r1, r2)
    assert d12 == pytest.approx(trace_distance(r2, r1), rel=1e-12)
    assert 0.0 <= d12 <= 1.0 + 1e-12
