"""Loss functions: values, gradients, sequence handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.loss import CrossEntropyLoss, perplexity, softmax


def test_softmax_rows_sum_to_one(rng):
    logits = rng.normal(size=(5, 7)) * 10
    probs = softmax(logits)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert (probs >= 0).all()


def test_softmax_handles_large_logits():
    logits = np.array([[1000.0, 1000.0], [-1000.0, 1000.0]])
    probs = softmax(logits)
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
    expected = softmax(logits)
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
