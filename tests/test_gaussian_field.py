import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsemc import gaussian_field as gf
from collapsemc.errors import (InvalidParameterError, NotPositiveSemidefiniteError,
                               NumericFailureError)


def random_admissible_pair(n, seed, scale=1.0, psd_floor=None):
    """xi = A z for real standard z gives an admissible (Gamma, S) pair."""
    rng = np.random.default_rng(seed)
    a = scale * (rng.normal(size=(n, 2 * n)) + 1j * rng.normal(size=(n, 2 * n)))
    return gf.KernelPair(gamma=a @ a.conj().T, relation=a @ a.T, psd_floor=psd_floor)


# ---------------------------------------------------------------- factoring

def test_factor_white_noise_moments():
    n = 4
    pair = gf.KernelPair(gamma=np.eye(n, dtype=complex),
                         relation=np.zeros((n, n), dtype=complex))
    factor = gf.factor_kernel(pair)
    assert factor.clipped_mass == 0.0
    xi = gf.sample_fields(factor, 100_000, seed=1)
    emp = xi.conj().T @ xi / len(xi)
    se = 5.0 / np.sqrt(len(xi))
    np.testing.assert_allclose(emp, np.eye(n), atol=5 * se)
    emp_rel = xi.T @ xi / len(xi)
    np.testing.assert_allclose(emp_rel, 0.0, atol=5 * se)


def test_factor_clips_tiny_negative_eigenvalue():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    gamma = q @ np.diag([1.0, 0.5, 0.2, -1e-12]) @ q.T
    pair = gf.KernelPair(gamma=gamma.astype(complex),
                         relation=np.zeros((4, 4), dtype=complex),
                         psd_floor=1e-9)
    factor = gf.factor_kernel(pair)
    assert factor.clipped_mass == pytest.approx(1e-12, rel=1e-3)
    recon = factor.reconstruct()
    clipped = q @ np.diag([1.0, 0.5, 0.2, 0.0]) @ q.T
    target = 0.5 * np.block([[clipped, np.zeros((4, 4))],
                             [np.zeros((4, 4)), clipped]])
    np.testing.assert_allclose(recon, target, atol=1e-8)


def test_factor_errors_below_floor():
    gamma = np.diag([1.0, -1e-6]).astype(complex)
    pair = gf.KernelPair(gamma=gamma, relation=np.zeros((2, 2), dtype=complex),
                         psd_floor=1e-9)
    with pytest.raises(NotPositiveSemidefiniteError) as exc:
        gf.factor_kernel(pair)
    assert exc.value.min_eigenvalue == pytest.approx(-1e-6, rel=1e-6)


def test_relation_equals_covariance_gives_real_field():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 6))
    gamma = (a @ a.T).astype(complex)
    pair = gf.KernelPair(gamma=gamma, relation=gamma.copy())
    factor = gf.factor_kernel(pair)
    xi = gf.sample_fields(factor, 2000, seed=2)
    assert np.abs(xi.imag).max() < 1e-8


def test_kernel_pair_validation():
    with pytest.raises(InvalidParameterError):
        gf.KernelPair(gamma=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                      relation=np.zeros((2, 2), dtype=complex))
    with pytest.raises(InvalidParameterError):
        gf.KernelPair(gamma=np.eye(2, dtype=complex),
                      relation=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10 ** 6))
def test_factor_roundtrip_property(n, seed):
    pair = random_admissible_pair(n, seed)
    factor = gf.factor_kernel(pair)
    np.testing.assert_allclose(factor.reconstruct(), pair.stacked_real(),
                               atol=1e-8 * max(1.0, np.abs(pair.gamma).max()))


# ----------------------------------------------------------------- sampling

def test_sample_seed_determinism():
    pair = random_admissible_pair(3, 11)
    factor = gf.factor_kernel(pair)
    s1 = gf.sample_field(factor, seed=42)
    s2 = gf.sample_field(factor, seed=42)
    np.testing.assert_array_equal(s1.values, s2.values)
    s3 = gf.sample_field(factor, seed=43)
    assert np.any(s3.values != s1.values)


def test_sampler_moments_and_mean():
    pair = random_admissible_pair(4, 21, scale=0.8)
    factor = gf.factor_kernel(pair)
    n = 100_000
    xi = gf.sample_fields(factor, n, seed=3)
    mean = xi.mean(axis=0)
    mean_se = xi.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(mean.real) < 5 * mean_se)
    assert np.all(np.abs(mean.imag) < 5 * mean_se)

    # per-entry SE from the spread of the products xi_i xi_j^*
    gm = np.einsum("ni,nj->ij", xi, xi.conj()) / n
    second = np.einsum("ni,nj->ij", np.abs(xi) ** 2, np.abs(xi) ** 2) / n
    gm_se = np.sqrt(np.maximum(second - np.abs(gm) ** 2, 0.0) / n)
    assert np.all(np.abs(gm - pair.gamma) <= 5 * gm_se + 1e-12)
    sm = np.einsum("ni,nj->ij", xi, xi) / n
    assert np.all(np.abs(sm - pair.relation) <= 5 * gm_se + 1e-12)


def test_sampler_error_scales_like_inverse_sqrt_n():
    pair = random_admissible_pair(4, 33)
    factor = gf.factor_kernel(pair)

    def gamma_err(n, seed):
        xi = gf.sample_fields(factor, n, seed)
        gm = np.einsum("ni,nj->ij", xi, xi.conj()) / n
        return np.linalg.norm(gm - pair.gamma)

    # average over independent repetitions to stabilize the ratio
    errs_small = np.mean([gamma_err(2000, 100 + k) for k in range(12)])
    errs_big = np.mean([gamma_err(8000, 200 + k) for k in range(12)])
    ratio = errs_small / errs_big
    assert 1.0 < ratio < 4.0          # expect ~2, within a factor 2


# ------------------------------------------------- characteristic functional

def test_characteristic_trivial_cases():
    pair = random_admissible_pair(3, 8)
    emp, ana, se = gf.characteristic_check(pair, np.zeros(3), np.zeros(3),
                                           n_samples=10)
    assert emp == 1.0 + 0.0j
    assert ana == 1.0 + 0.0j

    # test function in xi alone with S = 0: the exponent vanishes
    pair0 = gf.KernelPair(gamma=pair.gamma,
                          relation=np.zeros((3, 3), dtype=complex))
    a = np.array([0.3, -0.2, 0.1], dtype=complex)
    emp, ana, se = gf.characteristic_check(pair0, a, np.zeros(3), n_samples=50_000,
                                           seed=5)
    assert ana == pytest.approx(1.0 + 0.0j)
    assert abs(emp - ana) < 5 * se


def test_characteristic_single_point_e():
    pair = gf.KernelPair(gamma=np.array([[1.0]], dtype=complex),
                         relation=np.array([[0.0]], dtype=complex))
    emp, ana, se = gf.characteristic_check(pair, np.array([1.0]), np.array([1.0]),
                                           n_samples=1_000_000, seed=7)
    assert ana == pytest.approx(np.e, rel=1e-12)
    assert abs(emp - ana) < 5 * se


def test_characteristic_random_pairs():
    rng = np.random.default_rng(17)
    for k in range(20):
        pair = random_admissible_pair(4, 1000 + k, scale=0.4)
        a = 0.5 * (rng.normal(size=4) + 1j * rng.normal(size=4))
        b = 0.5 * (rng.normal(size=4) + 1j * rng.normal(size=4))
        emp, ana, se = gf.characteristic_check(pair, a, b, n_samples=60_000,
                                               seed=k)
        assert abs(emp - ana) <= 5 * se, f"pair {k}: {emp} vs {ana} (se={se})"


# ---------------------------------------------------------------- psd probe

def test_verify_psd_on_factored_kernel():
    pair = random_admissible_pair(5, 9)
    report = gf.verify_psd(pair.gamma, trials=200, seed=1)
    assert report.min_eigenvalue > -1e-9
    assert report.min_quadratic_form >= -1e-9
    assert report.trials == 200


def test_verify_psd_flags_indefinite_kernel():
    d = np.diag([1.0, -0.3]).astype(complex)
    report = gf.verify_psd(d, trials=500, seed=2)
    oracle = float(np.linalg.eigvalsh(d).min())
    assert report.min_eigenvalue == pytest.approx(oracle, rel=1e-12)
    assert report.min_quadratic_form < 0.0


# ---------------------------------------------------------------- reweighting

def test_quartic_identity_at_zero():
    spec = gf.QuarticReweightSpec(strength=0.0, epsilon=0.0)
    rng = np.random.default_rng(1)
    xi = rng.normal(size=(50, 6)) + 1j * rng.normal(size=(50, 6))
    ens = gf.reweight_quartic(xi, spec)
    np.testing.assert_array_equal(ens.weights, np.ones(50))


def test_quartic_requires_regulator():
    with pytest.raises(InvalidParameterError):
        gf.QuarticReweightSpec(strength=0.1, epsilon=0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_quartic_weight_bound_property(seed):
    spec = gf.QuarticReweightSpec(strength=0.3, epsilon=0.1)
    rng = np.random.default_rng(seed)
    xi = 2.0 * (rng.normal(size=(20, 5)) + 1j * rng.normal(size=(20, 5)))
    vol = 0.7
    ens = gf.reweight_quartic(xi, spec, volume_element=vol)
    bound = gf.quartic_weight_bound(spec, n_points=5, volume_element=vol)
    assert np.all(np.isfinite(ens.log_weights))
    assert np.all(ens.log_weights <= np.log(bound) + 1e-12)
    # at moderate field amplitude the literal weights stay strictly positive
    xi_mod = 0.3 * xi
    ens_mod = gf.reweight_quartic(xi_mod, spec, volume_element=vol)
    assert np.all(ens_mod.weights > 0.0)


def test_quartic_first_order_derivative_matches_covariance():
    """d/dlambda of the tilted expectation at lambda=0 equals the covariance
    with the quartic observable under the epsilon-regulated measure."""
    n_pts, n = 4, 120_000
    eps, delta = 0.05, 5e-3
    pair = gf.KernelPair(gamma=np.eye(n_pts, dtype=complex),
                         relation=np.zeros((n_pts, n_pts), dtype=complex))
    factor = gf.factor_kernel(pair)

    def tilted_mean(xi, lam):
        w = np.exp(gf.quartic_log_weights(
            xi, gf.QuarticReweightSpec(strength=lam, epsilon=eps)))
        obs = np.abs(xi[:, 0]) ** 2
        return (obs * w).sum() / w.sum()

    xi_a = gf.sample_fields(factor, n, seed=31)
    fd = (tilted_mean(xi_a, +delta) - tilted_mean(xi_a, -delta)) / (2 * delta)

    xi_b = gf.sample_fields(factor, n, seed=32)
    w0 = np.exp(gf.quartic_log_weights(
        xi_b, gf.QuarticReweightSpec(strength=0.0, epsilon=eps)))
    obs = np.abs(xi_b[:, 0]) ** 2
    tilt = 2.0 * np.imag(xi_b ** 4).sum(axis=1)
    wn = w0 / w0.sum()
    cov = (wn * obs * tilt).sum() - (wn * obs).sum() * (wn * tilt).sum()
    se_cov = np.sqrt((wn ** 2 * (obs - (wn * obs).sum()) ** 2
                      * (tilt - (wn * tilt).sum()) ** 2).sum())
    assert fd == pytest.approx(cov, abs=3 * max(se_cov, 1e-3))


def test_quartic_rejects_nonfinite():
    spec = gf.QuarticReweightSpec(strength=1.0, epsilon=1e-300)
    xi = 1e80 * np.ones((1, 2), dtype=complex)
    with pytest.raises(NumericFailureError):
        gf.reweight_quartic(xi, spec)


# ------------------------------------------------------------- relation field

def test_relation_field_matches_prescribed_kernel():
    rng = np.random.default_rng(44)
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    c = 0.3 * (c + c.T)
    fac = gf.relation_factor(c)
    eta = gf.sample_relation_fields(fac, 200_000, seed=6)
    emp = np.einsum("ni,nj->ij", eta, eta) / len(eta)
    spread = np.einsum("ni,nj->ij", np.abs(eta) ** 2, np.abs(eta) ** 2) / len(eta)
    se = np.sqrt(spread / len(eta))
    assert np.all(np.abs(emp - c) <= 5 * se + 1e-12)


# ------------------------------------------------------------- serialization

def test_field_sample_serialization_roundtrip(tmp_path):
    pair = random_admissible_pair(3, 55)
    factor = gf.factor_kernel(pair)
    xi = gf.sample_fields(factor, 7, seed=9)
    path = tmp_path / "samples.bin"
    meta = {"seed": 9, "kernel_hash": pair.hash()}
    gf.save_field_samples(path, xi, meta)
    loaded, meta2 = gf.load_field_samples(path)
    np.testing.assert_array_equal(loaded, xi)
    assert meta2 == meta


def test_field_sample_file_is_one_npz(tmp_path):
    path = tmp_path / "samples.bin"
    gf.save_field_samples(path, np.ones((2, 3), dtype=complex))
    assert [p.name for p in tmp_path.iterdir()] == ["samples.bin"]
    samples, meta = gf.load_field_samples(path)
    np.testing.assert_array_equal(samples, np.ones((2, 3)))
    assert meta == {}


@pytest.mark.parametrize("damage", ["random", "empty", "truncated"])
def test_load_field_samples_rejects_unreadable_file_naming_path(tmp_path, damage):
    path = tmp_path / "samples.bin"
    gf.save_field_samples(path, np.ones((4, 4), dtype=complex), {"seed": 1})
    raw = path.read_bytes()
    path.write_bytes({"random": np.random.default_rng(0).bytes(256), "empty": b"",
                      "truncated": raw[:len(raw) // 2]}[damage])
    with pytest.raises(InvalidParameterError, match="samples.bin"):
        gf.load_field_samples(path)
