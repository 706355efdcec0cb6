import dataclasses
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from collapsemc import gaussian_field as gf
from collapsemc import propagators as pg
from collapsemc.errors import InvalidParameterError, QuadratureFailureError

EULER_GAMMA = 0.5772156649015329


def k0_integral_oracle(x: float) -> float:
    """Independent oracle: K0(x) = int_0^inf exp(-x cosh t) dt by trapezoid.

    The integrand decays doubly exponentially, so a fine trapezoid on a
    truncated interval is accurate to machine precision.
    """
    t_max = np.arccosh(745.0 / x) if x < 745.0 else 1.0
    t = np.linspace(0.0, t_max, 20001)
    f = np.exp(-x * np.cosh(t))
    return float(np.trapezoid(f, t))


def spec(mb=1.0, lam=10.0, g=1.0):
    return pg.PropagatorSpec(boson_mass=mb, cutoff=lam, coupling=g)


# ---------------------------------------------------------- momentum oracle
# Sharp-cutoff momentum integrals, the independent oracle for the
# position-space engine: the signed sum over masses of term(ang, ω),
# ang = p²·j₀(pr)/(2π²) from the angular integration, on one grid rule.
# pmax = multiplier·max(heaviest mass, 1/cell_dt), the 1/cell_dt term only
# when cell_dt > 0; panels resolve r + span + cell_dt + 2/(lightest mass),
# span being the largest |time| in the term, with at least 32 panels.

def _panel_nodes(pmax, n_panels):
    """Composite 8-node Gauss-Legendre nodes/weights on [0, pmax]."""
    xg, wg = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, pmax, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1] - edges[0])
    p = (mid[:, None] + half * xg[None, :]).ravel()
    w = np.broadcast_to(half * wg[None, :], (n_panels, len(wg))).ravel()
    return p, w


def _radial_integral(integrand, pmax, osc_scale, what="integral"):
    """`integrand(p)` (last axis over p) on [0, pmax], on n panels and on 2n;
    QuadratureFailureError if they differ by more than 1e-6 relative."""
    n_panels = max(32, 2 * int(np.ceil(pmax * max(osc_scale, 1e-12) / np.pi)))
    results = [np.asarray(integrand(p)) @ w
               for p, w in (_panel_nodes(pmax, n) for n in (n_panels, 2 * n_panels))]
    return pg._refined(*results, 1e-6, what)


def momentum_integral(s, term, r, span, cell_dt=0.0, masses=None, multiplier=50.0):
    """Σ sign·∫ dp term(ang, ω) over the signed `masses`, by default the PV
    pair (m_b, +1), (Λ, −1). `_radial_integral` is looked up at call time,
    so a test can replace it."""
    masses = masses or ((s.boson_mass, 1.0), (s.cutoff, -1.0))
    heaviest = max(m for m, _ in masses)
    pmax = multiplier * (max(heaviest, 1.0 / cell_dt) if cell_dt > 0.0 else heaviest)
    # panels must also resolve the dispersion turnover at p ~ mass
    osc = r + span + cell_dt + 2.0 / min(m for m, _ in masses)

    def integrand(p):
        ang = p * p * np.sinc(p * r / np.pi) / (2.0 * np.pi ** 2)
        return sum(sign * term(ang, np.sqrt(p * p + mass * mass)) for mass, sign in masses)

    return _radial_integral(integrand, pmax, osc, "momentum oracle")


def vacuum_propagator(s, x, y, mass, multiplier=50.0):
    """Single-mass D^m(x, y) = ∫ d³p e^{−iωΔt + ip·Δx}/(2(2π)³ω) between
    events x, y = (t, 3-vector)."""
    if not 0.0 < mass < math.inf:
        raise InvalidParameterError("mass must be positive and finite")
    dt, r = x[0] - y[0], float(np.linalg.norm(np.subtract(x[1:], y[1:])))
    return complex(momentum_integral(
        s, lambda ang, om: ang * np.exp(-1j * om * dt) / (2.0 * om), r, abs(dt),
        masses=((mass, 1.0),), multiplier=multiplier))


def pv_momentum(s, lags, r, cell_dt=0.0, multiplier=50.0):
    """PV propagator at separation r and each lag: pointwise at cell_dt = 0,
    else cell-averaged, each mass term weighted by sinc²(ω·cell_dt/2)."""
    lags = np.asarray(lags, dtype=float)

    def term(ang, om):
        w = ang / (2.0 * om) * np.sinc(0.5 * om * cell_dt / np.pi) ** 2
        return np.exp(-1j * np.outer(lags, om)) * w[None, :]

    return momentum_integral(s, term, r, float(np.max(np.abs(lags))), cell_dt,
                             multiplier=multiplier)


def g_t_momentum(s, r, horizon, multiplier=50.0):
    """G_T as the momentum integral of (1 - cos(T omega))/omega^3."""
    return float(momentum_integral(
        s, lambda ang, om: ang * (1.0 - np.cos(horizon * om)) / om ** 3,
        r, horizon, multiplier=multiplier))


# ------------------------------------------------------------------- bessel

def test_k0_against_integral_representation():
    for x in (0.3, 1.0, 2.0, 5.0):
        assert pg.bessel_k0(x) == pytest.approx(k0_integral_oracle(x), rel=1e-10)


def test_k0_large_argument_asymptotics():
    x = 20.0
    asym = np.sqrt(np.pi / (2 * x)) * np.exp(-x) * (1.0 - 1.0 / (8 * x))
    assert pg.bessel_k0(x) == pytest.approx(asym, rel=1e-3)


def test_k0_small_argument_series():
    x = 1e-4
    series = -np.log(x / 2.0) - EULER_GAMMA
    assert pg.bessel_k0(x) == pytest.approx(series, rel=1e-6)


def test_k0_domain_error():
    with pytest.raises(InvalidParameterError):
        pg.bessel_k0(0.0)
    with pytest.raises(InvalidParameterError):
        pg.bessel_k0(-1.0)


def test_k0_derivative_is_minus_k1():
    h = 1e-5
    for x in (0.7, 1.5, 4.0):
        fd = (pg.bessel_k0(x + h) - pg.bessel_k0(x - h)) / (2 * h)
        assert fd == pytest.approx(-pg.bessel_k1(x), rel=1e-6)


# --------------------------------------------------------------- propagator

def test_spec_invariants():
    with pytest.raises(InvalidParameterError):
        pg.PropagatorSpec(boson_mass=2.0, cutoff=1.0)
    with pytest.raises(InvalidParameterError):
        pg.PropagatorSpec(boson_mass=0.0, cutoff=1.0)
    with pytest.raises(InvalidParameterError):
        pg.PropagatorSpec(boson_mass=1.0, cutoff=10.0, coupling=-1.0)


@pytest.mark.parametrize("field", ["boson_mass", "cutoff", "coupling"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_spec_rejects_non_finite_fields(field, value):
    """A non-finite field is refused by name; an infinite cutoff or coupling
    would otherwise reach the quadrature (math domain error, overflow) or
    give an infinite or NaN exponent."""
    kw = {"boson_mass": 1.0, "cutoff": 10.0, "coupling": 1.0, field: value}
    with pytest.raises(InvalidParameterError, match=f"^{field} must be finite$"):
        pg.PropagatorSpec(**kw)


@pytest.mark.parametrize("mass", [np.inf, np.nan, 0.0, -1.0])
def test_vacuum_propagator_rejects_bad_mass(mass):
    """An infinite or NaN mass is refused by name, not left to overflow in
    the panel count of the momentum integral."""
    with pytest.raises(InvalidParameterError, match="^mass must be positive and finite$"):
        vacuum_propagator(spec(), (0.0, 0.0, 0.0, 0.0), (1.0, 0.5, 0.0, 0.0), mass)


@pytest.mark.parametrize("cell_dt", [0.0, -0.1, np.inf, -np.inf, np.nan])
def test_pv_paths_reject_bad_cell_dt(cell_dt):
    """Every path is cell-averaged, so cell_dt = 0 (the old pointwise cutoff
    kernel) and a negative or non-finite cell_dt are refused before any
    integral."""
    match = "^cell_dt must be positive and finite$"
    with pytest.raises(InvalidParameterError, match=match):
        pg.pv_propagator(spec(), (0.0, 0.0, 0.0, 0.0), (0.1, 0.5, 0.0, 0.0), cell_dt)
    with pytest.raises(InvalidParameterError, match=match):
        pg.pv_kernel_matrix(pg.PropagatorSpec(1.0, 10.0), [0.05, 0.15], np.zeros((1, 3)),
                            cell_dt=cell_dt)


@pytest.mark.parametrize("field, value", [("r", np.nan), ("r", np.inf),
                                          ("mass", np.nan), ("mass", np.inf)])
def test_g_infinity_rejects_non_finite(field, value):
    """NaN and inf are refused by name, not returned as NaN or 0."""
    kw = {"r": 1.0, "mass": 1.0, field: value}
    with pytest.raises(InvalidParameterError, match=f"^{field} must be positive and finite$"):
        pg.g_infinity(spec(), **kw)


@pytest.mark.parametrize("r", [np.nan, np.inf])
def test_omega_infinity_rejects_non_finite_r(r):
    """A NaN r no longer gives NaN, nor an infinite one the plateau."""
    with pytest.raises(InvalidParameterError, match="^r must be positive and finite$"):
        pg.omega_infinity(spec(), r)


@pytest.mark.parametrize("field, value", [("r", np.nan), ("r", np.inf),
                                          ("horizon", np.nan), ("horizon", np.inf)])
def test_omega_from_quadrature_rejects_non_finite(field, value):
    """Refused by name before the G_T evaluators, which raised an untyped
    ValueError (math domain error, NaN to integer)."""
    kw = {"r": 1.0, "horizon": 5.0, field: value}
    with pytest.raises(InvalidParameterError, match=f"^{field} must be positive and finite$"):
        pg.omega_from_quadrature(spec(), **kw)


@pytest.mark.parametrize("field, value", [("r", np.nan), ("r", np.inf), ("r", -1.0),
                                          ("r", -6.0), ("horizon", np.nan),
                                          ("horizon", np.inf)])
def test_g_t_quadrature_rejects_non_finite(field, value):
    """G_T accepts r = 0 (it is G_T(0)), so r is refused only when negative
    or non-finite. At T = 5, r = -1 gave 0.11258 against G_T(1) = 0.01726,
    and r = -6 an untyped math domain error."""
    kw = {"r": 1.0, "horizon": 5.0, field: value}
    match = f"^{field} must be {'non-negative' if field == 'r' else 'positive'} and finite$"
    with pytest.raises(InvalidParameterError, match=match):
        pg.g_t_quadrature(spec(), **kw)


@pytest.mark.parametrize("field, times, points", [
    ("times", [], np.zeros((1, 3))), ("times", [0.05, np.nan], np.zeros((1, 3))),
    ("times", [[0.05, 0.15]], np.zeros((1, 3))), ("points", [0.05], np.zeros((2, 2))),
    ("points", [0.05], np.zeros((0, 3))), ("points", [0.05], [[0.0, np.inf, np.nan]]),
])
def test_pv_kernel_matrix_rejects_bad_times_and_points(field, times, points):
    """Empty times raised IndexError, a NaN an untyped ValueError, and
    (n, 2) points were taken silently; each is now refused by name."""
    with pytest.raises(InvalidParameterError, match=f"^{field} must be a non-empty"):
        pg.pv_kernel_matrix(spec(), times, points, 0.1)


def test_pv_kernel_matrix_refuses_uneven_times():
    """Every block is read off the lags t_k − t_0, so at times 0.05, 0.15,
    0.45 entry (2, 1) was 0.6906 − 1.6999i where `pv_propagator` gives
    −0.6971 − 0.4458i. Uneven times are refused; rounding in the spacing
    is not."""
    s = pg.PropagatorSpec(1.0, 10.0)
    with pytest.raises(InvalidParameterError, match="^times must be equally spaced$"):
        pg.pv_kernel_matrix(s, [0.05, 0.15, 0.45], np.zeros((1, 3)), 0.1)
    times = np.linspace(0.05, 0.75, 8)
    assert len(set(np.diff(times))) > 1
    kern = pg.pv_kernel_matrix(s, times, np.zeros((1, 3)), 0.1)
    val = pg.pv_propagator(s, (times[6], 0.0, 0.0, 0.0), (times[1], 0.0, 0.0, 0.0), 0.1)
    assert kern[6, 1] == pytest.approx(val, rel=1e-9)


@pytest.mark.parametrize("field", ["x", "y"])
@pytest.mark.parametrize("event", [(np.nan, 0.0, 0.0, 0.0), (0.1, np.nan, 0.0, 0.0),
                                   (0.1, 0.0, 0.0, np.inf), (0.1, 0.0, 0.0),
                                   (0.1, 0.0, 0.0, 0.0, 0.0), [[0.1, 0.0, 0.0, 0.0]]])
def test_pv_propagator_rejects_bad_events(field, event):
    """A NaN time or coordinate raised an untyped ValueError from the panel
    cuts, and a 3-component event a broadcast error; each is now refused by
    name."""
    kw = {"x": (0.3, 0.0, 0.0, 0.0), "y": (0.1, 0.5, 0.0, 0.0), field: event}
    with pytest.raises(InvalidParameterError,
                       match=f"^{field} must be a finite event \\(t, x, y, z\\)$"):
        pg.pv_propagator(spec(), cell_dt=0.1, **kw)


def test_vacuum_propagator_hermitian_and_translation_invariant():
    s = spec()
    rng = np.random.default_rng(2)
    for _ in range(4):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        c = rng.normal(size=4)
        dxy = vacuum_propagator(s, x, y, mass=1.0)
        dyx = vacuum_propagator(s, y, x, mass=1.0)
        assert abs(dxy - np.conj(dyx)) < 1e-10 * max(1.0, abs(dxy))
        shifted = vacuum_propagator(s, x + c, y + c, mass=1.0)
        assert abs(dxy - shifted) < 1e-10 * max(1.0, abs(dxy))


def simpson_propagator_oracle(r, mass, n_nodes, multiplier=50.0):
    """Brute-force equal-time radial quadrature at the oracle's cutoff."""
    scale = max(r, 1.0 / mass)
    pmax = multiplier * max(mass, 1.0 / scale)
    p = np.linspace(0.0, pmax, 2 * n_nodes + 1)
    om = np.sqrt(p * p + mass * mass)
    f = p * p * np.sinc(p * r / np.pi) / (2.0 * om) / (2.0 * np.pi ** 2)
    h = p[1] - p[0]
    return float(h / 3.0 * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-2:2].sum()))


def test_vacuum_propagator_equal_time_vs_brute_force():
    s = spec()
    mass = 1.0
    r = 1.0 / mass
    val = vacuum_propagator(s, np.array([0.0, r, 0.0, 0.0]), np.zeros(4), mass=mass)
    oracle = simpson_propagator_oracle(r, mass, n_nodes=400_000)
    assert abs(val.imag) < 1e-12
    assert val.real == pytest.approx(oracle, rel=1e-6)


def test_pv_kernel_matrix_matches_pointwise_propagator():
    s = spec()
    dt = 0.2
    times = (np.arange(4) + 0.5) * dt
    pts = np.array([[0.0, 0.0, 0.0], [0.8, 0.0, 0.0]])
    kern = pg.pv_kernel_matrix(s, times, pts, cell_dt=dt)
    assert np.abs(kern - kern.conj().T).max() < 1e-12 * np.abs(kern).max()
    # spot-check one off-diagonal entry against the scalar evaluator
    val = pg.pv_propagator(s, np.array([times[2], 0.0, 0.0, 0.0]),
                           np.array([times[0], 0.8, 0.0, 0.0]), cell_dt=dt)
    assert kern[2 * 2 + 0, 0 * 2 + 1] == pytest.approx(val, rel=1e-9)


def test_cell_average_total_equals_double_time_integral():
    """dt^2 times the full lattice sum of the cell-averaged kernel is the
    exact double-time integral, i.e. the (1 - cos)/omega^3 quadrature."""
    s = spec()
    horizon, n_t = 1.6, 8
    dt = horizon / n_t
    times = (np.arange(n_t) + 0.5) * dt
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    kern = pg.pv_kernel_matrix(s, times, pts, cell_dt=dt)
    for (i, j, r) in ((0, 0, 0.0), (0, 1, 1.0)):
        block = kern[i::2, j::2]
        lattice = dt * dt * float(block.real.sum())
        continuum = pg.g_t_quadrature(s, r, horizon)
        assert lattice == pytest.approx(continuum, rel=2e-6)


# ------------------------------------------------------------ closed forms

def test_g_infinity_value_and_monotonicity():
    s = spec()
    assert pg.g_infinity(s, 1.0, 1.0) == pytest.approx(
        2.0 * pg.bessel_k0(1.0) / (2 * np.pi) ** 2, rel=1e-12)
    rs = np.geomspace(0.01, 100.0, 25)
    vals = [pg.g_infinity(s, r, 1.0) for r in rs]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))
    with pytest.raises(InvalidParameterError):
        pg.g_infinity(s, 0.0, 1.0)


def test_omega_infinity_from_g_identity():
    """Omega from the G combination (coincident-point PV limit is
    2 ln(Lambda/m)/(2pi)^2) reproduces the closed form to 1e-12."""
    s = spec(g=1.7)
    r = 2.3
    g_pv = pg.g_infinity(s, r, s.boson_mass) - pg.g_infinity(s, r, s.cutoff)
    g_coincident = 2.0 * np.log(s.cutoff / s.boson_mass) / (2 * np.pi) ** 2
    omega = 0.5 * s.coupling ** 2 * (g_pv - g_coincident)
    assert omega == pytest.approx(pg.omega_infinity(s, r), rel=1e-12)


def test_omega_infinity_limits_and_sign():
    s = spec(g=1.3)
    # coincident-point limit: PV subtraction cancels the divergence
    assert abs(pg.omega_infinity(s, 1e-8 / s.cutoff)) < 1e-6 * s.coupling ** 2
    rs = np.geomspace(0.01, 100.0, 30)
    vals = np.array([pg.omega_infinity(s, r) for r in rs])
    assert np.all(vals <= 0.0)
    assert np.all(np.diff(vals) <= 1e-12)      # non-increasing in r
    assert vals.min() >= pg.omega_plateau(s) - 1e-12
    with pytest.raises(InvalidParameterError):
        pg.omega_infinity(s, -1.0)


def test_omega_plateau_large_separation():
    s = spec(lam=100.0, g=1.0)
    target = -np.log(100.0) / (2 * np.pi) ** 2
    assert pg.omega_infinity(s, 100.0) == pytest.approx(target, rel=5e-3)


def test_omega_plateau_cutoff_doubling():
    s1 = spec(lam=50.0, g=0.8)
    s2 = spec(lam=100.0, g=0.8)
    shift = pg.omega_plateau(s2) - pg.omega_plateau(s1)
    assert shift == pytest.approx(-(0.8 ** 2) * np.log(2.0) / (2 * np.pi) ** 2,
                                  rel=1e-12)


def test_omega_midregime_log_law():
    g = 1.0
    s = spec(lam=1e4, g=g)
    # at the geometric-mean separation the bare log law carries the known
    # K0 constant offset (ln 2 - gamma_E)/ln(r Lambda) ~ 2.5%
    r_gm = np.sqrt(1.0 / s.cutoff)
    val = pg.omega_infinity(s, r_gm)
    refined = -(g * g / (2 * np.pi) ** 2) * (np.log(r_gm * s.cutoff)
                                             - (np.log(2.0) - EULER_GAMMA))
    assert val == pytest.approx(refined, rel=1e-3)
    bare = -(g * g / (2 * np.pi) ** 2) * np.log(r_gm * s.cutoff)
    assert val == pytest.approx(bare, rel=0.03)
    # a mid-regime point where the bare law does hold within 2%
    r_mid = 0.05
    val_mid = pg.omega_infinity(s, r_mid)
    bare_mid = -(g * g / (2 * np.pi) ** 2) * np.log(r_mid * s.cutoff)
    assert val_mid == pytest.approx(bare_mid, rel=0.02)


def test_omega_from_quadrature_zero_coupling():
    s = spec(g=0.0)
    assert pg.omega_from_quadrature(s, 1.0, 10.0) == 0.0


def test_omega_from_quadrature_converges_to_closed_form():
    s = spec(lam=10.0, g=1.0)
    mb = s.boson_mass
    quad = pg.omega_from_quadrature(s, 10.0 / mb, 200.0 / mb)
    closed = pg.omega_infinity(s, 10.0 / mb)
    assert quad == pytest.approx(closed, rel=0.01)


def test_omega_from_quadrature_settles_onto_limit():
    """Convergence in the horizon is oscillatory (the 1 - cos ringing
    overshoots the plateau by ~3e-3 of its depth at T ~ 2/m_b), so
    monotonicity and the lower bound hold only within a small slack that
    shrinks with T."""
    s = spec(lam=5.0, g=1.0)
    r = 2.0
    horizons = [4.0, 8.0, 16.0, 32.0]
    vals = [pg.omega_from_quadrature(s, r, t) for t in horizons]
    lim = pg.omega_infinity(s, r)
    level = abs(pg.omega_plateau(s))
    slack = 2e-3 * level
    assert all(b <= a + slack for a, b in zip(vals[:-1], vals[1:]))
    assert all(v >= lim - slack for v in vals)
    assert vals[-1] == pytest.approx(lim, rel=0.02)
    # the overshoot below the limit at very small horizons is real
    early = pg.omega_from_quadrature(s, r, 2.0)
    assert early < lim


def test_omega_from_quadrature_checks_horizon_at_zero_coupling():
    with pytest.raises(InvalidParameterError):
        pg.omega_from_quadrature(spec(lam=10.0, g=0.0), 1.0, -5.0)


def test_quadrature_failure_raises():
    def nasty(p):
        return np.sin(40.0 * p)

    with pytest.raises(QuadratureFailureError):
        _radial_integral(nasty, pmax=60.0, osc_scale=0.0)


def test_tabulate_omega_rows():
    s = spec(lam=10.0, g=1.0)
    rows = pg.tabulate_omega(s, [0.5, 1.0], horizon=20.0)
    assert [r["r"] for r in rows] == [0.5, 1.0]
    for row in rows:
        assert row["omega_infinity"] == pg.omega_infinity(s, row["r"])
        assert row["g_infinity"] == pg.g_infinity(s, row["r"], s.boson_mass)


def test_equal_time_pv_kernel_psd_report_matches_eigen_oracle():
    """Spatial PV kernel on an 8-point line at Lambda = 3 m_b: the psd probe
    must report exactly the eigenvalue oracle of the discretized kernel."""
    s = spec(lam=3.0)
    pts = np.array([[0.5 * i, 0.0, 0.0] for i in range(8)])
    kern = np.empty((8, 8), dtype=complex)
    for i in range(8):
        for j in range(8):
            kern[i, j] = pv_momentum(s, [0.0], float(np.linalg.norm(pts[i] - pts[j])))[0]
    kern = 0.5 * (kern + kern.conj().T)
    report = gf.verify_psd(kern, trials=200, seed=3)
    oracle = float(np.linalg.eigvalsh(kern).min())
    assert report.min_eigenvalue == pytest.approx(oracle, rel=1e-12)


# -------------------------------------------------------- radial integral

def _stacked_pv_like(p):
    """Stacked complex integrand of the shape `pv_momentum` integrates."""
    lags = np.array([0.0, 0.3, 1.1, 2.5])
    om = np.sqrt(p * p + 1.0)
    return np.exp(-1j * np.outer(lags, om)) * (p * p * np.sinc(p / np.pi) / om)[None, :]


def _blocked_oracle(integrand, p, block_panels, cores):
    """`integrand(p)` evaluated block by block, blocks of `block_panels`
    eight-node panels filled on `cores` threads: the evaluation the serial
    integral replaced, kept here as its reference."""
    step = block_panels * 8
    first = np.asarray(integrand(p[:step]))
    vals = np.empty(first.shape[:-1] + (len(p),), dtype=first.dtype)
    vals[..., :step] = first

    def fill(a):
        vals[..., a:a + step] = integrand(p[a:a + step])

    with ThreadPoolExecutor(max_workers=cores) as pool:
        list(pool.map(fill, range(step, len(p), step)))
    return vals


@pytest.mark.parametrize("block_panels", [16, 50, 128])
@pytest.mark.parametrize("cores", [1, 4, 16])
def test_blocked_radial_integral_is_bit_identical(block_panels, cores):
    """The serial integral is exactly the stacked integrand on the doubled
    grid (2·2⌈pmax·osc/π⌉ = 512 panels) contracted with its weights, equal
    bit for bit to the same integrand evaluated in blocks on any number of
    threads, and it starts no thread of its own."""
    p, w = _panel_nodes(40.0, 512)
    assert len(p) > 3 * block_panels * 8           # several blocks
    threads_before = threading.active_count()
    result = _radial_integral(_stacked_pv_like, 40.0, 10.0)
    assert threading.active_count() == threads_before
    assert result.shape == (4,)
    assert np.array_equal(result, _stacked_pv_like(p) @ w)
    blocked = _blocked_oracle(_stacked_pv_like, p, block_panels, cores)
    assert np.array_equal(result, blocked @ w)


def test_tabulate_omega_rows_equal_uncached_quadrature():
    s = spec(lam=10.0, g=1.0)
    r_values, horizon = [0.5, 1.0, 3.0], 20.0
    pg.g_t_quadrature.cache_clear()
    rows = pg.tabulate_omega(s, r_values, horizon)
    assert pg.g_t_quadrature.cache_info().hits == len(r_values) - 1   # G_T(0)
    for row, r in zip(rows, r_values):
        pg.g_t_quadrature.cache_clear()
        assert row["omega_horizon"] == pg.omega_from_quadrature(s, r, horizon)


def test_g_t_quadrature_failure_is_not_cached(monkeypatch):
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        raise QuadratureFailureError("refinement failed", estimates=(0.0, 1.0))

    monkeypatch.setattr(pg, "_refined", failing)
    pg.g_t_quadrature.cache_clear()
    s = spec(lam=7.0)
    for _ in range(2):
        with pytest.raises(QuadratureFailureError):
            pg.g_t_quadrature(s, 1.25, 3.0)
    assert len(calls) == 2


# ---------------------------------------------------------------- grid rule

def _grid_rule(masses, r, span, multiplier):
    """(pmax, osc_scale) of the one momentum-grid rule at cell_dt = 0."""
    return multiplier * max(masses), r + span + 2.0 / min(masses)


def test_every_propagator_hands_the_one_grid_rule_to_the_integrator(monkeypatch):
    """Masses are powers of two, so 1/(1/m) == m and a scale-based cutoff
    max(m, 1/max(r, 1/m)) reads exactly m."""
    grids = []

    def record(integrand, pmax, osc_scale, what="integral"):
        grids.append((pmax, osc_scale))
        return integrand(np.array([1.0]))[..., 0]

    monkeypatch.setitem(globals(), "_radial_integral", record)
    s = spec(mb=0.5, lam=4.0)
    x, y = np.array([0.7, 1.0, 2.0, 2.0]), np.zeros(4)     # Δt = 0.7, r = 3
    vacuum_propagator(s, x, y, mass=2.0, multiplier=20.0)
    pv_momentum(s, [0.7], 3.0, multiplier=20.0)
    assert grids == [
        _grid_rule([2.0], 3.0, 0.7, 20.0),
        _grid_rule([0.5, 4.0], 3.0, 0.7, 20.0),
    ]


def test_position_space_engine_has_no_momentum_cutoff():
    """The spec carries no momentum-cutoff field and the package no momentum
    integrator: every evaluator in `propagators` is position-space."""
    assert [f.name for f in dataclasses.fields(pg.PropagatorSpec)] == [
        "boson_mass", "cutoff", "coupling"]
    assert not hasattr(pg, "_radial_integral")


# ---------------------------------------------------------- position space

def test_g_t_position_space_is_the_limit_of_the_momentum_cutoff():
    """At r = 0 the sharp cutoff is the only error, and it closes
    monotonically on the position value; at r > 0 a high cutoff agrees."""
    lam, horizon = 4.0, 3.0
    exact = pg.g_t_quadrature(spec(lam=lam), 0.0, horizon)
    gaps = [abs(g_t_momentum(spec(lam=lam), 0.0, horizon, multiplier=m) - exact)
            for m in (50.0, 100.0, 400.0)]
    assert gaps[0] > gaps[1] > gaps[2]
    for r in (0.5, 1.0, 2.0):
        high = g_t_momentum(spec(lam=lam), r, horizon, multiplier=1600.0)
        assert pg.g_t_quadrature(spec(lam=lam), r, horizon) == pytest.approx(high, rel=1e-9)


@pytest.mark.parametrize("r,horizon", [(2.0, 2.5), (0.5, 3.0), (1.0, 7.0)])
def test_g_t_direct_integral_equals_infinite_horizon_plus_tail(r, horizon):
    s = spec(lam=10.0)
    assert pg._g_t_direct(s, r, horizon) == pytest.approx(
        pg._g_t_tail(s, r, horizon), rel=1e-10)


def test_cell_averaged_kernel_sums_to_g_t_and_is_the_cutoff_limit():
    """Delta geometry (Lambda = 5, r = 1, T = 2, 16 steps): dt^2 times each
    block sum is G_T, and every entry is nearer the position value at a
    cutoff of x400 than at x50."""
    s = spec(lam=5.0)
    horizon, n_t = 2.0, 16
    dt = horizon / n_t
    times = (np.arange(n_t) + 0.5) * dt
    kern = pg.pv_kernel_matrix(s, times, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                               cell_dt=dt)
    lags = times - times[0]
    for j, r in ((0, 0.0), (1, 1.0)):
        block = kern[0::2, j::2]
        assert dt * dt * float(block.real.sum()) == pytest.approx(
            pg.g_t_quadrature(s, r, horizon), rel=1e-10)
        exact = pg._cell_averaged(s, lags, r, dt)
        assert np.abs(block[:, 0] - exact).max() < 1e-14 * np.abs(exact).max()
        gap50, gap400 = (np.abs(pv_momentum(s, lags, r, dt, multiplier=m) - exact)
                         for m in (50.0, 400.0))
        assert np.all(gap400 < gap50)


def test_cell_averaged_kernel_is_microcausal():
    """Im D = 0 outside the light cone, so a cross-site cell-averaged entry
    with |lag| + dt < r is exactly real."""
    s = spec(lam=10.0)
    horizon, n_t = 2.0, 8
    dt = horizon / n_t
    times = (np.arange(n_t) + 0.5) * dt
    pts = np.array([[0.0, 0.0, 0.0], [1.2, 0.0, 0.0], [4.0, 0.0, 0.0]])
    kern = pg.pv_kernel_matrix(s, times, pts, cell_dt=dt).reshape(n_t, 3, n_t, 3)
    lag = np.abs(times[:, None] - times[None, :])
    r = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    outside = lag[:, None, :, None] + dt < r[None, :, None, :]
    assert outside.sum() > n_t * n_t * 4                  # every 0-2 and 1-2 entry, and more
    assert np.all(kern.imag[outside] == 0.0)
    assert np.abs(kern.imag[~outside]).max() > 1e-3       # inside the cone it is not
    # cat geometry: peaks 40 apart, T = 20, so every cross entry is spacelike
    cat = spec(lam=50.0)
    dt = 20.0 / 16
    times = (np.arange(16) + 0.5) * dt
    kern = pg.pv_kernel_matrix(cat, times, np.array([[0.0, 0.0, 0.0], [40.0, 0.0, 0.0]]),
                               cell_dt=dt)
    assert np.all(kern[0::2, 1::2].imag == 0.0)
