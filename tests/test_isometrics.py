import numpy as np
import pytest

from opcurves import METRICS, Priors, isometric_gradient, isometric_lines, loss_cp, net_benefit

PRIORS = Priors(pi_p=0.25, pi_n=0.75)


def _line(metric, level, t=None):
    """isometric_lines at the one level: the line's gradient and intercept."""
    gradient, intercepts = isometric_lines(metric, np.array([level]), PRIORS, t)
    assert intercepts.shape == (1,)
    return gradient, float(intercepts[0])


def test_metric_names():
    assert set(METRICS) == {"accuracy", "net_benefit", "brier_loss"}


class TestGradient:
    def test_formula(self):
        g = isometric_gradient(0.2, PRIORS)
        assert g == pytest.approx(0.75 * 0.2 / (0.25 * 0.8), abs=1e-15)

    def test_balanced_priors_at_half_gives_unit_slope(self):
        g = isometric_gradient(0.5, Priors(pi_p=0.5, pi_n=0.5))
        assert g == pytest.approx(1.0, abs=0)

    def test_requires_interior_threshold(self):
        with pytest.raises(ValueError):
            isometric_gradient(0.0, PRIORS)
        with pytest.raises(ValueError):
            isometric_gradient(1.0, PRIORS)


class TestAccuracyLines:
    def test_level_holds_along_line(self):
        gradient, intercept = _line("accuracy", 0.8)
        for fpr in (0.0, 0.1, 0.2):
            tpr = gradient * fpr + intercept
            acc = PRIORS.pi_p * tpr + PRIORS.pi_n * (1.0 - fpr)
            assert acc == pytest.approx(0.8, abs=1e-12)

    def test_gradient_is_prior_ratio(self):
        gradient, _ = _line("accuracy", 0.8)
        assert gradient == pytest.approx(3.0, abs=1e-12)

    def test_rejects_threshold(self):
        with pytest.raises(ValueError):
            _line("accuracy", 0.8, t=0.5)

    def test_rejects_out_of_range_level(self):
        with pytest.raises(ValueError):
            _line("accuracy", 1.2)


class TestNetBenefitLines:
    def test_level_holds_along_line(self):
        gradient, intercept = _line("net_benefit", 0.1, t=0.3)
        for fpr in (0.0, 0.2, 0.5):
            tpr = gradient * fpr + intercept
            assert net_benefit(tpr, fpr, PRIORS, 0.3) == pytest.approx(
                0.1, abs=1e-12)

    def test_zero_level_passes_through_origin(self):
        _, intercept = _line("net_benefit", 0.0, t=0.4)
        assert intercept == pytest.approx(0.0, abs=1e-15)

    def test_shares_gradient_with_brier(self):
        nb, _ = _line("net_benefit", 0.05, t=0.3)
        bl, _ = _line("brier_loss", 0.2, t=0.3)
        assert nb == pytest.approx(bl, abs=0)
        assert nb == pytest.approx(isometric_gradient(0.3, PRIORS), abs=0)

    def test_requires_threshold(self):
        with pytest.raises(ValueError):
            _line("net_benefit", 0.1)

    def test_rejects_unreachable_level(self):
        with pytest.raises(ValueError):
            _line("net_benefit", 0.3, t=0.3)  # above pi_p


class TestBrierLossLines:
    def test_level_holds_along_line(self):
        gradient, intercept = _line("brier_loss", 0.2, t=0.3)
        for fpr in (0.0, 0.2, 0.5):
            tpr = gradient * fpr + intercept
            assert loss_cp(tpr, fpr, PRIORS, 0.3) == pytest.approx(0.2, abs=1e-12)

    def test_zero_loss_passes_through_perfection(self):
        # zero loss forces the (fpr 0, tpr 1) corner
        _, intercept = _line("brier_loss", 0.0, t=0.3)
        assert intercept == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unreachable_level(self):
        bound = 2 * (0.7 * 0.25 + 0.3 * 0.75)
        with pytest.raises(ValueError):
            _line("brier_loss", bound + 0.01, t=0.3)


def test_unknown_metric():
    with pytest.raises(ValueError, match="metric"):
        _line("f1", 0.5, t=0.5)


@pytest.mark.parametrize("levels", [np.array([]), np.array([[0.1, 0.2]])], ids=["empty", "2-d"])
@pytest.mark.parametrize("metric, t", [("accuracy", None), ("net_benefit", 0.3),
                                       ("brier_loss", 0.3)])
def test_levels_must_be_a_non_empty_1d_array(metric, t, levels):
    with pytest.raises(ValueError, match="levels must be a non-empty 1-d array, got shape"):
        isometric_lines(metric, levels, PRIORS, t)


@pytest.mark.parametrize("metric, t, levels", [("accuracy", None, [0.5, 0.6]),
                                               ("net_benefit", 0.3, (0.0, 0.1)),
                                               ("brier_loss", 0.3, [0, 0.25])])
def test_levels_may_be_a_list_or_a_tuple(metric, t, levels):
    gradient, intercepts = isometric_lines(metric, levels, PRIORS, t)
    want = isometric_lines(metric, np.array(levels, dtype=np.float64), PRIORS, t)
    assert gradient == want[0]
    assert intercepts.tolist() == want[1].tolist()
