"""Recurrent layers for the paper's RNN extension (Section VI).

The paper trains a language model with two stacked LSTM layers on Penn
TreeBank and prunes it with the Intrinsic Sparse Structure (ISS) method:
an ISS component couples one hidden unit across *all* gate blocks of a
layer, the matching column of the next layer's input weights, and so on,
so removing it shrinks the hidden dimension without breaking recurrence.
The weight layout below (gate blocks stacked along the first axis) is
chosen so ISS components are whole rows of each block (the ``"gates"``
axis role in :data:`repro.pruning.plan.COUPLING`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module


class Embedding(Module):
    """Token-id to dense-vector lookup table.

    Weight shape is ``(vocab_size, embedding_dim)``.  Columns of the
    embedding matrix align with LSTM input columns, so ISS pruning can
    shrink ``embedding_dim`` coherently.
    """

    def __init__(self, vocab_size: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.vocab_size = vocab_size
        self.embedding_dim = embedding_dim
        rng = rng if rng is not None else np.random.default_rng(0)
        self.add_param("weight", init.uniform((vocab_size, embedding_dim), rng, 0.1))
        self._ids: Optional[np.ndarray] = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        """Look up ``(T, B)`` integer ids, returning ``(T, B, D)``."""
        self._ids = ids
        return self.params["weight"][ids]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._ids is None:
            raise RuntimeError("backward called before forward")
        np.add.at(self.grads["weight"], self._ids.reshape(-1),
                  grad_out.reshape(-1, self.embedding_dim))
        return grad_out  # ids carry no gradient; return value unused


class LSTM(Module):
    """Single LSTM layer over ``(T, B, I)`` sequences.

    Parameters are laid out with the four gate blocks (input, forget,
    cell, output) stacked along axis 0:

    - ``w_ih``: ``(4*H, I)``
    - ``w_hh``: ``(4*H, H)``
    - ``bias``: ``(4*H,)``

    Hidden unit ``j`` therefore owns rows ``{j, H+j, 2H+j, 3H+j}`` of
    ``w_ih``/``w_hh``/``bias`` plus column ``j`` of ``w_hh`` — the ISS
    component used by structured RNN pruning.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        rng = rng if rng is not None else np.random.default_rng(0)
        self.add_param("w_ih", init.xavier_uniform((4 * hidden_size, input_size), rng))
        self.add_param("w_hh", init.xavier_uniform((4 * hidden_size, hidden_size), rng))
        bias = init.zeros((4 * hidden_size,))
        bias[hidden_size: 2 * hidden_size] = 1.0  # forget-gate bias trick
        self.add_param("bias", bias)
        self._cache: Optional[dict] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the layer over a full sequence, returning all hidden states."""
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
            g_g = F.tanh(pre[:, 2 * h_dim: 3 * h_dim])
            o_g = F.sigmoid(pre[:, 3 * h_dim: 4 * h_dim])
            c = f_g * c + i_g * g_g
            tanh_c = F.tanh(c)
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
        """Backpropagate through time given ``(T, B, H)`` output grads."""
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
