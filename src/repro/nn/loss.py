"""Loss functions.

Each loss exposes ``forward(pred, target) -> float`` and
``backward() -> grad_pred``; the gradient is averaged over the batch so
learning rates are batch-size independent, matching the SGD convention
the paper's convergence analysis assumes.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def softmax_with_log(logits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(softmax, log_softmax)`` over the last axis of ``logits`` from one
    shift, ``exp`` and sum: ``shifted - log(sum)`` is the log-softmax a
    separate pass would compute, bit for bit."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1, keepdims=True)
    return exp / total, shifted - np.log(total)


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels.

    Accepts ``(N, K)`` logits with ``(N,)`` labels; also accepts
    ``(T, B, K)`` sequence logits with ``(T, B)`` labels (used by the
    LSTM language model), which are flattened internally.
    """

    def __init__(self) -> None:
        self._probs: Optional[np.ndarray] = None
        self._targets: Optional[np.ndarray] = None
        self._orig_shape: Optional[tuple] = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        self._orig_shape = logits.shape
        if logits.ndim == 3:
            logits = logits.reshape(-1, logits.shape[-1])
            targets = targets.reshape(-1)
        self._probs, log_probs = softmax_with_log(logits)
        self._targets = targets
        n = logits.shape[0]
        return float(-log_probs[np.arange(n), targets].mean())

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        n = self._probs.shape[0]
        grad = self._probs.copy()
        grad[np.arange(n), self._targets] -= 1.0
        grad /= n
        if self._orig_shape is not None and len(self._orig_shape) == 3:
            grad = grad.reshape(self._orig_shape)
        return grad

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(logits, targets)


def perplexity(cross_entropy: float) -> float:
    """Perplexity = exp(cross entropy), the paper's RNN metric."""
    return float(np.exp(cross_entropy))
