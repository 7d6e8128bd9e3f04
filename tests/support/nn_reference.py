"""Frozen kernels the ``repro.nn`` layers are checked against, bit for bit.

Each is the shipped code as it was before the rewrite that replaced it,
kept verbatim in its arithmetic so a test can assert ``array_equal``
(sign bits and dtypes included) between the two:

- :class:`StepwiseLSTM` -- the per-step LSTM: three ``sigmoid`` calls and
  two ``tanh`` calls a step, the recurrent weights cast implicitly on
  every product, one ``concatenate`` per backward step;
- :func:`softmax` and :func:`log_softmax` -- the two passes the
  cross-entropy loss made before one shift, ``exp`` and sum served both.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.recurrent import LSTM


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a ``(N, K)`` logit matrix."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a ``(N, K)`` logit matrix."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class StepwiseLSTM(LSTM):
    """:class:`~repro.nn.recurrent.LSTM` with the per-step forward and
    backward it shipped with; same parameters, same gate layout."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        t_steps, batch, _ = x.shape
        h_dim = self.hidden_size
        w_ih, w_hh = self.params["w_ih"], self.params["w_hh"]
        bias = self.params["bias"]

        h = np.zeros((batch, h_dim))
        c = np.zeros((batch, h_dim))
        gates_cache: List[Tuple[np.ndarray, ...]] = []
        h_seq = np.empty((t_steps, batch, h_dim))
        h_prev_seq = np.empty((t_steps, batch, h_dim))
        c_prev_seq = np.empty((t_steps, batch, h_dim))

        for t in range(t_steps):
            h_prev_seq[t] = h
            c_prev_seq[t] = c
            pre = x[t] @ w_ih.T + h @ w_hh.T + bias
            i_g = F.sigmoid(pre[:, 0 * h_dim: 1 * h_dim])
            f_g = F.sigmoid(pre[:, 1 * h_dim: 2 * h_dim])
            g_g = np.tanh(pre[:, 2 * h_dim: 3 * h_dim])
            o_g = F.sigmoid(pre[:, 3 * h_dim: 4 * h_dim])
            c = f_g * c + i_g * g_g
            tanh_c = np.tanh(c)
            h = o_g * tanh_c
            h_seq[t] = h
            gates_cache.append((i_g, f_g, g_g, o_g, tanh_c, c))

        self._cache = {
            "x": x,
            "gates": gates_cache,
            "h_prev": h_prev_seq,
            "c_prev": c_prev_seq,
        }
        return h_seq

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        x = cache["x"]
        t_steps, batch, _ = x.shape
        h_dim = self.hidden_size
        w_ih, w_hh = self.params["w_ih"], self.params["w_hh"]

        grad_x = np.zeros_like(x)
        dh_next = np.zeros((batch, h_dim))
        dc_next = np.zeros((batch, h_dim))
        d_w_ih = np.zeros_like(w_ih)
        d_w_hh = np.zeros_like(w_hh)
        d_bias = np.zeros_like(self.params["bias"])

        for t in reversed(range(t_steps)):
            i_g, f_g, g_g, o_g, tanh_c, _ = cache["gates"][t]
            c_prev = cache["c_prev"][t]
            h_prev = cache["h_prev"][t]

            dh = grad_out[t] + dh_next
            do = dh * tanh_c
            dc = dh * o_g * (1.0 - tanh_c ** 2) + dc_next
            di = dc * g_g
            df = dc * c_prev
            dg = dc * i_g
            dc_next = dc * f_g

            dpre = np.concatenate(
                [
                    di * i_g * (1.0 - i_g),
                    df * f_g * (1.0 - f_g),
                    dg * (1.0 - g_g ** 2),
                    do * o_g * (1.0 - o_g),
                ],
                axis=1,
            )
            d_w_ih += dpre.T @ x[t]
            d_w_hh += dpre.T @ h_prev
            d_bias += dpre.sum(axis=0)
            grad_x[t] = dpre @ w_ih
            dh_next = dpre @ w_hh

        self.grads["w_ih"] += d_w_ih
        self.grads["w_hh"] += d_w_hh
        self.grads["bias"] += d_bias
        return grad_x
