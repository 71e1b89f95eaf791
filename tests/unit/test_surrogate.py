"""Unit tests for repro.core.surrogate (paper eq. 14)."""

import numpy as np
import pytest

from repro.core.surrogate import (
    PAPER_SIGMA,
    ErfcSurrogate,
    RectangularSurrogate,
    SigmoidSurrogate,
    SurrogateGradient,
    TriangleSurrogate,
    get_surrogate,
)

ALL_SURROGATES = [ErfcSurrogate(), SigmoidSurrogate(), TriangleSurrogate(),
                  RectangularSurrogate()]


class TestErfcSurrogate:
    def test_paper_sigma_peaks_at_one(self):
        # With sigma = 1/sqrt(2*pi) the pseudo-derivative at 0 equals 1.
        surrogate = ErfcSurrogate(sigma=PAPER_SIGMA)
        assert surrogate.derivative(np.array(0.0)) == pytest.approx(1.0)

    def test_derivative_is_gaussian(self):
        surrogate = ErfcSurrogate(sigma=0.5)
        x = np.linspace(-3, 3, 41)
        expected = np.exp(-x**2 / (2 * 0.25)) / (np.sqrt(2 * np.pi) * 0.5)
        np.testing.assert_allclose(surrogate.derivative(x), expected)

    def test_smooth_step_limits(self):
        surrogate = ErfcSurrogate()
        assert surrogate.smooth_step(np.array(-50.0)) == pytest.approx(0.0)
        assert surrogate.smooth_step(np.array(50.0)) == pytest.approx(1.0)
        assert surrogate.smooth_step(np.array(0.0)) == pytest.approx(0.5)

    def test_smooth_step_derivative_consistency(self):
        """d/dx smooth_step == derivative (central finite differences)."""
        surrogate = ErfcSurrogate()
        x = np.linspace(-2, 2, 21)
        h = 1e-6
        fd = (surrogate.smooth_step(x + h) - surrogate.smooth_step(x - h)) / (2 * h)
        np.testing.assert_allclose(surrogate.derivative(x), fd, rtol=1e-6,
                                   atol=1e-8)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            ErfcSurrogate(sigma=0.0)


@pytest.mark.parametrize("surrogate", ALL_SURROGATES,
                         ids=lambda s: s.name)
class TestAllSurrogates:
    def test_derivative_nonnegative(self, surrogate):
        x = np.linspace(-5, 5, 101)
        assert np.all(surrogate.derivative(x) >= 0.0)

    def test_derivative_symmetric(self, surrogate):
        x = np.linspace(0.01, 4, 50)
        np.testing.assert_allclose(surrogate.derivative(x),
                                   surrogate.derivative(-x))

    def test_derivative_peaks_at_zero(self, surrogate):
        x = np.linspace(-3, 3, 301)
        values = surrogate.derivative(x)
        assert values[150] == pytest.approx(values.max())

    def test_smooth_step_monotone(self, surrogate):
        x = np.linspace(-3, 3, 200)
        steps = np.diff(surrogate.smooth_step(x))
        assert np.all(steps >= -1e-12)

    def test_smooth_step_bounded(self, surrogate):
        x = np.linspace(-10, 10, 200)
        values = surrogate.smooth_step(x)
        assert values.min() >= -1e-9
        assert values.max() <= 1.0 + 1e-9

    def test_integral_matches_analytic_mass(self, surrogate):
        """The pseudo-derivative's total mass matches its analytic value
        (1 for the delta-normalised kernels; 2/beta for SuperSpike's fast
        sigmoid, which is deliberately unnormalised)."""
        x = np.linspace(-30, 30, 120001)
        integral = np.trapezoid(surrogate.derivative(x), x)
        expected = 2.0 / surrogate.beta if surrogate.name == "sigmoid" else 1.0
        assert integral == pytest.approx(expected, rel=0.02)

    def test_callable_interface(self, surrogate):
        x = np.array([0.0, 1.0])
        np.testing.assert_allclose(surrogate(x), surrogate.derivative(x))


class TestRegistry:
    def test_lookup_all_names(self):
        for name in ("erfc", "sigmoid", "triangle", "rectangular"):
            assert isinstance(get_surrogate(name), SurrogateGradient)

    def test_kwargs_forwarded(self):
        surrogate = get_surrogate("erfc", sigma=0.3)
        assert surrogate.sigma == 0.3

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown surrogate"):
            get_surrogate("relu")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SigmoidSurrogate(beta=-1.0)
        with pytest.raises(ValueError):
            TriangleSurrogate(width=0.0)
        with pytest.raises(ValueError):
            RectangularSurrogate(half_width=-0.5)


def _five_op_erfc_derivative(x, sigma):
    """The erfc derivative as five separate passes, negation included."""
    out = np.array(x, dtype=np.float64)
    np.multiply(out, out, out=out)
    np.negative(out, out=out)
    np.divide(out, 2.0 * sigma ** 2, out=out)
    np.exp(out, out=out)
    np.divide(out, np.sqrt(2.0 * np.pi) * sigma, out=out)
    return out


@pytest.mark.parametrize("sigma", [PAPER_SIGMA, 0.5, 1e-3, 3.0])
def test_erfc_derivative_folds_the_negation_bitwise(sigma):
    """Dividing by ``-(2 sigma^2)`` gives the bits of negating first."""
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, -0.0, tiny, -tiny, 1e-160, -1e-160, 1e-300,
                        1e150, -1e150, 1e200, np.finfo(np.float64).max,
                        -np.finfo(np.float64).max, np.inf, -np.inf, 1.0])
    rng = np.random.default_rng(0)
    values = np.concatenate([
        special, rng.normal(size=500), rng.normal(scale=sigma, size=500),
        rng.normal(size=200) * 10.0 ** rng.integers(-320, 300, size=200)])
    surrogate = ErfcSurrogate(sigma=sigma)
    with np.errstate(over="ignore", under="ignore"):
        got = surrogate.derivative(values)
        want = _five_op_erfc_derivative(values, sigma)
    assert got.tobytes() == want.tobytes()


def test_erfc_derivative_keeps_nan_inputs_nan():
    values = np.array([np.nan, -np.nan, 1.0, np.nan])
    got = ErfcSurrogate().derivative(values)
    assert np.array_equal(np.isnan(got), np.isnan(values))
    assert np.array_equal(
        np.isnan(got), np.isnan(_five_op_erfc_derivative(values, PAPER_SIGMA)))
