"""Loss functions: values, gradients, sequence handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.loss import CrossEntropyLoss, perplexity, softmax_with_log
from tests.support.nn_reference import log_softmax, softmax


def _probs(logits):
    return softmax_with_log(logits)[0]


def test_softmax_rows_sum_to_one(rng):
    logits = rng.normal(size=(5, 7)) * 10
    probs = _probs(logits)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert (probs >= 0).all()


def test_softmax_handles_large_logits():
    logits = np.array([[1000.0, 1000.0], [-1000.0, 1000.0]])
    probs = _probs(logits)
    assert np.allclose(probs[0], [0.5, 0.5])
    assert np.allclose(probs[1], [0.0, 1.0])


def test_cross_entropy_uniform_logits():
    criterion = CrossEntropyLoss()
    logits = np.zeros((4, 10))
    targets = np.arange(4)
    assert np.isclose(criterion(logits, targets), np.log(10))


def test_cross_entropy_gradient_matches_softmax_minus_onehot(rng):
    criterion = CrossEntropyLoss()
    logits = rng.normal(size=(3, 5))
    targets = np.array([0, 2, 4])
    criterion(logits, targets)
    grad = criterion.backward()
    expected = _probs(logits)
    expected[np.arange(3), targets] -= 1.0
    expected /= 3
    assert np.allclose(grad, expected)


def test_cross_entropy_gradient_finite_difference(rng, gradcheck):
    criterion = CrossEntropyLoss()
    logits = rng.normal(size=(2, 4))
    targets = np.array([1, 3])

    def fn():
        return criterion(logits, targets)

    criterion(logits, targets)
    grad = criterion.backward()
    assert np.abs(grad - gradcheck(fn, logits)).max() < 1e-7


def test_cross_entropy_sequence_logits(rng):
    criterion = CrossEntropyLoss()
    logits = rng.normal(size=(3, 2, 5))  # (T, B, K)
    targets = rng.integers(0, 5, size=(3, 2))
    loss = criterion(logits, targets)
    grad = criterion.backward()
    assert grad.shape == logits.shape
    flat = CrossEntropyLoss()
    assert np.isclose(
        loss, flat(logits.reshape(-1, 5), targets.reshape(-1))
    )


def test_backward_before_forward_raises():
    with pytest.raises(RuntimeError):
        CrossEntropyLoss().backward()


def test_perplexity_is_exp_of_cross_entropy():
    assert np.isclose(perplexity(np.log(50.0)), 50.0)


def _bits_equal(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(96, 300), (1, 1), (5, 7), (3, 4, 10),
                                   (35, 8, 50)])
def test_one_pass_matches_the_two_passes_bit_for_bit(rng, dtype, shape):
    """Probabilities, log-probabilities, the loss and its gradient equal
    what separate ``softmax`` and ``log_softmax`` passes gave, for 2-D
    and ``(T, B, K)`` logits -- saturated rows and signed zeros too."""
    for scale in (1.0, 30.0, 0.0):
        logits = (rng.normal(size=shape) * scale).astype(dtype)
        if scale == 0.0:
            logits[..., ::2] = -0.0
        flat = logits.reshape(-1, shape[-1])
        targets = rng.integers(0, shape[-1], size=shape[:-1])

        probs, log_probs = softmax_with_log(logits)
        assert _bits_equal(probs.reshape(flat.shape), softmax(flat))
        assert _bits_equal(log_probs.reshape(flat.shape), log_softmax(flat))

        criterion = CrossEntropyLoss()
        loss = criterion(logits, targets)
        rows = np.arange(flat.shape[0])
        picked = log_softmax(flat)[rows, targets.reshape(-1)]
        assert loss == float(-picked.mean())
        expected = softmax(flat)
        expected[rows, targets.reshape(-1)] -= 1.0
        expected /= flat.shape[0]
        assert _bits_equal(criterion.backward(), expected.reshape(shape))
