"""Unit tests for repro.core.loss."""

import numpy as np
import pytest

from repro.common.errors import ShapeError
from repro.core.loss import CrossEntropyRateLoss, VanRossumLoss, softmax


class TestSoftmax:
    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        p = softmax(rng.normal(size=(4, 7)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0)

    def test_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0))

    def test_handles_large_logits(self):
        p = softmax(np.array([[1e4, 0.0]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)


class TestCrossEntropyRateLoss:
    def test_uniform_counts_give_log_classes(self):
        loss = CrossEntropyRateLoss()
        outputs = np.zeros((2, 10, 5))
        value, grad = loss.value_and_grad(outputs, np.array([0, 3]))
        assert value == pytest.approx(np.log(5.0), rel=1e-6)
        assert grad.shape == outputs.shape

    def test_correct_class_spikes_lower_loss(self):
        loss = CrossEntropyRateLoss()
        outputs = np.zeros((1, 10, 3))
        outputs[0, :, 1] = 1.0
        value_right, _ = loss.value_and_grad(outputs, np.array([1]))
        value_wrong, _ = loss.value_and_grad(outputs, np.array([0]))
        assert value_right < value_wrong

    def test_gradient_pushes_correct_class_up(self):
        loss = CrossEntropyRateLoss()
        outputs = np.zeros((1, 10, 3))
        _, grad = loss.value_and_grad(outputs, np.array([2]))
        # Negative gradient on the target class (more spikes -> lower loss).
        assert grad[0, 0, 2] < 0
        assert grad[0, 0, 0] > 0

    def test_gradient_constant_over_time(self):
        loss = CrossEntropyRateLoss()
        rng = np.random.default_rng(1)
        outputs = (rng.random((2, 8, 4)) < 0.3).astype(float)
        _, grad = loss.value_and_grad(outputs, np.array([1, 2]))
        for t in range(1, 8):
            np.testing.assert_allclose(grad[:, t, :], grad[:, 0, :])

    def test_gradient_matches_fd_on_counts(self):
        """The loss is smooth in the output values; FD-check one entry."""
        loss = CrossEntropyRateLoss(count_scale=0.7)
        rng = np.random.default_rng(2)
        outputs = rng.random((2, 6, 4))
        labels = np.array([0, 3])
        _, grad = loss.value_and_grad(outputs, labels)
        eps = 1e-6
        for idx in [(0, 2, 1), (1, 5, 3)]:
            up = outputs.copy()
            up[idx] += eps
            down = outputs.copy()
            down[idx] -= eps
            fd = (loss.value_and_grad(up, labels)[0]
                  - loss.value_and_grad(down, labels)[0]) / (2 * eps)
            assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_predict_argmax_counts(self):
        loss = CrossEntropyRateLoss()
        outputs = np.zeros((2, 5, 3))
        outputs[0, :, 2] = 1.0
        outputs[1, :2, 0] = 1.0
        np.testing.assert_array_equal(loss.predict(outputs), [2, 0])

    def test_metrics(self):
        loss = CrossEntropyRateLoss()
        outputs = np.zeros((2, 5, 3))
        outputs[0, :, 1] = 1.0
        outputs[1, :, 1] = 1.0
        metrics = loss.metrics(outputs, np.array([1, 0]))
        assert metrics["accuracy"] == 0.5

    def test_label_validation(self):
        loss = CrossEntropyRateLoss()
        outputs = np.zeros((2, 5, 3))
        with pytest.raises(ShapeError):
            loss.value_and_grad(outputs, np.array([0, 5]))
        with pytest.raises(ShapeError):
            loss.value_and_grad(outputs, np.array([0]))
        with pytest.raises(ShapeError):
            loss.value_and_grad(np.zeros((2, 5)), np.array([0, 1]))

    @pytest.mark.parametrize("count_scale", [None, 0.5])
    def test_empty_inputs_raise_shape_error(self, count_scale):
        loss = CrossEntropyRateLoss(count_scale)
        with pytest.raises(ShapeError, match="at least one sample"):
            loss.value_and_grad(np.zeros((2, 0, 3)), np.array([0, 1]))
        with pytest.raises(ShapeError, match="at least one sample"):
            loss.value_and_grad(np.zeros((0, 5, 3)),
                                np.zeros(0, dtype=int))


class TestVanRossumLoss:
    def test_zero_for_identical_trains(self):
        loss = VanRossumLoss()
        rng = np.random.default_rng(3)
        spikes = (rng.random((2, 20, 4)) < 0.3).astype(float)
        value, grad = loss.value_and_grad(spikes, spikes.copy())
        assert value == 0.0
        np.testing.assert_allclose(grad, 0.0)

    def test_positive_for_different_trains(self):
        loss = VanRossumLoss()
        a = np.zeros((1, 20, 1))
        b = np.zeros((1, 20, 1))
        a[0, 5, 0] = 1.0
        b[0, 15, 0] = 1.0
        value, _ = loss.value_and_grad(a, b)
        assert value > 0.0

    def test_distance_grows_with_time_offset(self):
        """Near-coincident spikes are closer than distant ones — the
        property that makes the kernel loss a *timing* loss."""
        loss = VanRossumLoss()
        reference = np.zeros((1, 60, 1))
        reference[0, 20, 0] = 1.0
        distances = []
        for offset in (1, 3, 6, 12):
            other = np.zeros((1, 60, 1))
            other[0, 20 + offset, 0] = 1.0
            distances.append(loss.distance(reference, other))
        assert distances == sorted(distances)

    def test_gradient_matches_fd(self):
        loss = VanRossumLoss()
        rng = np.random.default_rng(4)
        outputs = rng.random((2, 15, 3))
        targets = (rng.random((2, 15, 3)) < 0.3).astype(float)
        _, grad = loss.value_and_grad(outputs, targets)
        eps = 1e-6
        for idx in [(0, 0, 0), (1, 7, 2), (0, 14, 1)]:
            up = outputs.copy()
            up[idx] += eps
            down = outputs.copy()
            down[idx] -= eps
            fd = (loss.value_and_grad(up, targets)[0]
                  - loss.value_and_grad(down, targets)[0]) / (2 * eps)
            assert grad[idx] == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_shape_validation(self):
        loss = VanRossumLoss()
        with pytest.raises(ShapeError):
            loss.value_and_grad(np.zeros((1, 5, 2)), np.zeros((1, 5, 3)))
        with pytest.raises(ShapeError):
            loss.value_and_grad(np.zeros((5, 2)), np.zeros((5, 2)))

    @pytest.mark.parametrize("shape", [(0, 5, 2), (2, 0, 2)])
    def test_empty_inputs_raise_shape_error(self, shape):
        loss = VanRossumLoss()
        empty = np.zeros(shape)
        with pytest.raises(ShapeError, match="at least one sample"):
            loss.value_and_grad(empty, empty)
        with pytest.raises(ShapeError, match="at least one sample"):
            loss.distance(empty, empty)

    def test_metrics_key(self):
        loss = VanRossumLoss()
        spikes = np.zeros((1, 10, 2))
        assert "van_rossum" in loss.metrics(spikes, spikes)
