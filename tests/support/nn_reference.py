"""Reference kernels the ``repro.nn`` layers are checked against, bit for
bit, so a test can assert ``array_equal`` (sign bits and dtypes included)
between the two:

- :class:`StepwiseLSTM` -- the LSTM's arithmetic written one step at a
  time: fresh arrays per step, a per-step tuple cache, one
  ``concatenate`` and the input-gradient product per backward step;
- :func:`softmax` and :func:`log_softmax` -- the two passes the
  cross-entropy loss made before one shift, ``exp`` and sum served both,
  kept as they shipped.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

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
    """:class:`~repro.nn.recurrent.LSTM`'s arithmetic one step at a time;
    same parameters, same gate layout."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        w_ih, w_hh = self.params["w_ih"], self.params["w_hh"]
        bias = self.params["bias"]
        dtype = w_ih.dtype
        x = x.astype(dtype)
        t_steps, batch, _ = x.shape
        h_dim = self.hidden_size
        # sigma(z) = tanh(z / 2) / 2 + 1/2 on the i, f, o blocks
        sigmoid_block = np.arange(4 * h_dim) // h_dim != 2
        scale = np.where(sigmoid_block, 0.5, 1.0).astype(dtype)
        shift = np.where(sigmoid_block, 0.5, 0.0).astype(dtype)
        w_hh_half = np.ascontiguousarray(w_hh.T * scale)

        h = np.zeros((batch, h_dim), dtype)
        c = np.zeros((batch, h_dim), dtype)
        gates_cache: List[Tuple[np.ndarray, ...]] = []
        h_seq = np.empty((t_steps, batch, h_dim), dtype)
        h_prev_seq = np.empty((t_steps, batch, h_dim), dtype)
        c_prev_seq = np.empty((t_steps, batch, h_dim), dtype)

        for t in range(t_steps):
            h_prev_seq[t] = h
            c_prev_seq[t] = c
            z_half = (x[t] @ w_ih.T + bias) * scale + h @ w_hh_half
            act = np.tanh(z_half) * scale + shift
            i_g = act[:, 0 * h_dim: 1 * h_dim]
            f_g = act[:, 1 * h_dim: 2 * h_dim]
            g_g = act[:, 2 * h_dim: 3 * h_dim]
            o_g = act[:, 3 * h_dim: 4 * h_dim]
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
        t_steps, batch, inputs = x.shape
        h_dim = self.hidden_size
        w_ih, w_hh = self.params["w_ih"], self.params["w_hh"]
        grad_out = grad_out.astype(w_ih.dtype)

        grad_x = np.zeros_like(x)
        dh_next = np.zeros((batch, h_dim), x.dtype)
        dc_next = np.zeros((batch, h_dim), x.dtype)
        dpre_steps: List[np.ndarray] = []

        for t in reversed(range(t_steps)):
            i_g, f_g, g_g, o_g, tanh_c, _ = cache["gates"][t]
            c_prev = cache["c_prev"][t]

            dh = grad_out[t] + dh_next
            dc = dh * (o_g * (1.0 - tanh_c ** 2)) + dc_next
            dpre = np.concatenate(
                [
                    dc * (g_g * (i_g * (1.0 - i_g))),
                    dc * (c_prev * (f_g * (1.0 - f_g))),
                    dc * (i_g * (1.0 - g_g ** 2)),
                    dh * (tanh_c * (o_g * (1.0 - o_g))),
                ],
                axis=1,
            )
            dc_next = dc * f_g
            grad_x[t] = dpre @ w_ih
            dh_next = dpre @ w_hh
            dpre_steps.append(dpre)

        # the weight gradients: one product over all T*B rows, in time order
        rows = np.concatenate(dpre_steps[::-1])
        self.grads["w_ih"] += rows.T @ x.reshape(-1, inputs)
        self.grads["w_hh"] += rows.T @ cache["h_prev"].reshape(-1, h_dim)
        self.grads["bias"] += rows.sum(axis=0)
        return grad_x
