import math

import numpy as np
import pytest

from branchpde.lifetimes import (
    LifetimeModel,
    exponential_model,
    tabulated_model,
    validate_assumption_h,
)


def sample_lifetime(model: LifetimeModel, u: float) -> float:
    """Inverse-CDF lifetime sample from a uniform variate in [0, 1)."""
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform variate must lie in [0, 1), got {u}")
    return model.inverse_cdf(u)


def test_exponential_basics():
    m = exponential_model(1.0)
    assert m.survival(0.0) == 1.0
    assert m.rho_star(0.5) == pytest.approx(math.exp(-0.5))
    m2 = exponential_model(2.0)
    assert m2.rho_star(0.5) == pytest.approx(2.0 * math.exp(-1.0))
    with pytest.raises(ValueError):
        exponential_model(0.0)


def test_a_model_needs_its_rho_star_when_it_is_built():
    m = exponential_model(1.0)
    with pytest.raises(TypeError, match="rho_star"):
        LifetimeModel(m.kind, m.lam, m.density, m.survival, m.inverse_cdf)


def test_exponential_survival_bound_is_equality():
    m = exponential_model(1.3)
    for r in np.linspace(0, 5, 50):
        assert m.survival(r) == pytest.approx(math.exp(-1.3 * r), rel=1e-14)


def test_validate_assumption_h():
    rep = validate_assumption_h(exponential_model(1.0), T=1.0)
    assert rep.ok
    assert rep.rho_star == pytest.approx(math.exp(-1.0))
    assert validate_assumption_h(exponential_model(3.0), T=0.1).ok


def test_validate_flags_vanishing_density():
    # triangular density dropping to 0 at r=0.5: rho_*(T) = 0 for T >= 0.5
    m = tabulated_model([(0.0, 2.0), (0.5, 0.0), (1.0, 2.0)], lam=1.0)
    rep = validate_assumption_h(m, T=1.0)
    assert not rep.ok
    assert any("rho_*" in f for f in rep.failures)


def test_validate_flags_survival_violation():
    # all mass on [0, 0.5]: survival hits 0 there, below exp(-lam r)
    m = tabulated_model([(0.0, 1.0), (0.5, 3.0)], lam=1.0)
    rep = validate_assumption_h(m, T=0.2)
    assert not rep.ok


def test_sample_lifetime_inverse_cdf():
    m = exponential_model(1.0)
    assert sample_lifetime(m, 0.0) == 0.0
    assert sample_lifetime(m, 1.0 - math.exp(-1.0)) == pytest.approx(1.0)
    m2 = exponential_model(2.0)
    assert sample_lifetime(m2, 1.0 - math.exp(-2.0)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sample_lifetime(m, 1.0)


def test_empirical_survival_within_dkw_band():
    m = exponential_model(0.7)
    rng = np.random.default_rng(3)
    n = 100_000
    samples = np.array([sample_lifetime(m, float(u)) for u in rng.random(n)])
    eps = math.sqrt(math.log(2.0 / 0.01) / (2.0 * n))  # 99% DKW band
    for r in np.linspace(0.0, 5.0, 21):
        emp = float(np.mean(samples > r))
        assert abs(emp - m.survival(r)) <= eps


def test_tabulated_model_roundtrip():
    # uniform density on [0, 2]
    m = tabulated_model([(0.0, 1.0), (2.0, 1.0)], lam=0.3)
    assert m.density(1.0) == pytest.approx(0.5)
    assert m.survival(1.0) == pytest.approx(0.5)
    assert m.rho_star(1.5) == pytest.approx(0.5)
    assert m.inverse_cdf(0.25) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize(
    "model",
    [exponential_model(0.7), tabulated_model([(0.0, 1.0), (1.0, 0.5), (3.0, 0.2)], lam=1.0)],
    ids=["exponential", "tabulated"],
)
def test_array_calls_agree_with_scalar_calls(model):
    times = np.concatenate([[-1.0, 0.0, 1.0, 3.0, 7.5], np.linspace(-0.5, 4.0, 61)])
    uniforms = np.concatenate([[0.0, 0.5, math.nextafter(1.0, 0.0)], np.linspace(0.0, 0.99, 45)])
    for fn, points in (
        (model.density, times), (model.survival, times), (model.inverse_cdf, uniforms)
    ):
        got = fn(points)
        assert got.shape == points.shape
        assert got.tolist() == [fn(float(p)) for p in points]
        assert isinstance(fn(float(points[1])), float)


def test_tabulated_inverse_cdf_round_trip():
    # rising from a zero density, flat, falling, and falling to zero
    m = tabulated_model([(0.0, 0.0), (1.0, 2.0), (2.0, 2.0), (3.0, 0.5), (4.0, 0.0)], lam=1.0)
    s = np.array([knot + frac for knot in range(4) for frac in (0.0, 0.1, 0.5, 0.9)])
    u = 1.0 - m.survival(s)
    np.testing.assert_allclose(m.inverse_cdf(u), s, rtol=0.0, atol=1e-12)
    assert [m.inverse_cdf(float(v)) for v in u] == m.inverse_cdf(u).tolist()
