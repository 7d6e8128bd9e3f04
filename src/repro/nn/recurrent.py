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

from typing import Optional, Tuple

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
        self._ids = ids if self.training else None
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
        """Run the layer over a full sequence, returning all hidden states.

        The input products of all steps are one stacked matmul (the same
        BLAS call per step as ``x[t] @ w_ih.T``); a step is then the
        recurrent product, one sigmoid over its whole ``4H`` gate slab
        and a tanh written over the cell block.  States, gates and
        ``tanh(c)`` go to per-call slabs the backward reads; the
        returned states are a view of the ``h`` slab.
        """
        t_steps, batch, _ = x.shape
        h_dim = self.hidden_size
        w_ih, w_hh = self.params["w_ih"], self.params["w_hh"]
        bias = self.params["bias"]
        i_b, f_b, g_b, o_b = _gate_blocks(h_dim)

        x_proj = np.matmul(x, w_ih.T)
        w_hh_t = _state_operand(w_hh.T)
        # h[t] and c[t] are the states step t reads; h[0] = c[0] = 0
        h = np.zeros((t_steps + 1, batch, h_dim))
        c = np.zeros((t_steps + 1, batch, h_dim))
        gates = np.empty((t_steps, batch, 4 * h_dim))
        tanh_c = np.empty((t_steps, batch, h_dim))

        for t in range(t_steps):
            act = gates[t]
            pre = x_proj[t] + h[t] @ w_hh_t
            pre += bias
            F.sigmoid(pre, out=act)
            np.tanh(pre[:, g_b], out=act[:, g_b])
            np.multiply(act[:, f_b], c[t], out=c[t + 1])
            c[t + 1] += act[:, i_b] * act[:, g_b]
            np.tanh(c[t + 1], out=tanh_c[t])
            np.multiply(act[:, o_b], tanh_c[t], out=h[t + 1])

        self._cache = ({"x": x, "h": h, "c": c, "gates": gates,
                        "tanh_c": tanh_c} if self.training else None)
        return h[1:]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate through time given ``(T, B, H)`` output grads.

        Only the recurrence is per step.  The derivative factors are
        computed once over all steps, the i/f/o gradients of a step are
        two slab-wide products, and the input gradient is one stacked
        product after the loop.  The weight gradients stay per step:
        each step's product rounds into the float32 accumulator, and
        that order is part of the bits.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        x, h, c = cache["x"], cache["h"], cache["c"]
        gates, tanh_c = cache["gates"], cache["tanh_c"]
        t_steps, batch, _ = x.shape
        h_dim = self.hidden_size
        w_ih, w_hh = self.params["w_ih"], self.params["w_hh"]
        i_b, f_b, g_b, o_b = _gate_blocks(h_dim)

        d_tanh_c = 1.0 - tanh_c ** 2
        # sigma' / sigma for the i, f, o blocks, tanh' for the cell block
        d_gates = 1.0 - gates
        d_gates[..., g_b] = 1.0 - gates[..., g_b] ** 2
        w_ih_s, w_hh_s = _state_operand(w_ih), _state_operand(w_hh)

        # zeroed, so the cell block a step writes last holds no garbage
        # while the slab-wide products pass over it
        dpre = np.zeros((t_steps, batch, 4 * h_dim))
        dh_next = np.zeros((batch, h_dim))
        dc_next = np.zeros((batch, h_dim))
        d_w_ih = np.zeros_like(w_ih)
        d_w_hh = np.zeros_like(w_hh)
        d_bias = np.zeros_like(self.params["bias"])

        for t in reversed(range(t_steps)):
            act, d = gates[t], dpre[t]
            dh = grad_out[t] + dh_next
            dc = dh * act[:, o_b] * d_tanh_c[t] + dc_next
            np.multiply(dc, act[:, g_b], out=d[:, i_b])
            np.multiply(dc, c[t], out=d[:, f_b])
            np.multiply(dh, tanh_c[t], out=d[:, o_b])
            dc_next = dc * act[:, f_b]
            d *= act
            d *= d_gates[t]
            np.multiply(dc, act[:, i_b], out=d[:, g_b])
            d[:, g_b] *= d_gates[t, :, g_b]

            d_w_ih += d.T @ x[t]
            d_w_hh += d.T @ h[t]
            d_bias += d.sum(axis=0)
            dh_next = d @ w_hh_s

        self.grads["w_ih"] += d_w_ih
        self.grads["w_hh"] += d_w_hh
        self.grads["bias"] += d_bias
        return np.matmul(dpre, w_ih_s).astype(x.dtype, copy=False)


def _gate_blocks(h_dim: int) -> Tuple[slice, slice, slice, slice]:
    """Column slices of the ``(i, f, g, o)`` blocks of a ``4H`` gate row."""
    return tuple(slice(k * h_dim, (k + 1) * h_dim)  # type: ignore[return-value]
                 for k in range(4))


def _state_operand(w: np.ndarray) -> np.ndarray:
    """A float32 weight operand as its products with the float64 state
    see it: the C-ordered float64 copy NumPy's implicit mixed-dtype cast
    hands BLAS, made once per call instead of once per product.  An
    F-ordered cast (``w.T.astype``) changes BLAS's kernel and the bits.
    A float64 weight is passed through as is."""
    if w.dtype == np.float64:
        return w
    return np.ascontiguousarray(w, dtype=np.float64)
