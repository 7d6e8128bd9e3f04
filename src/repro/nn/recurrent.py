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

        Everything computes in the parameters' dtype.  The input products
        of all steps and the bias are one stacked matmul and one add (the
        matmul is the same BLAS call per step as ``x[t] @ w_ih.T``).  The
        i/f/o columns of that slab and of a once-per-call ``w_hh.T`` copy
        are halved, so a step is the recurrent product, one ``tanh`` over
        its whole ``4H`` gate slab and one per-column multiply-add
        (``sigma(z) = tanh(z/2)/2 + 1/2``), then the cell update.  States,
        gates and ``tanh(c)`` go to per-call slabs the backward reads;
        the returned states are a view of the ``h`` slab.
        """
        w_ih, w_hh = self.params["w_ih"], self.params["w_hh"]
        dtype = w_ih.dtype
        x = x.astype(dtype, copy=False)
        t_steps, batch, _ = x.shape
        h_dim = self.hidden_size
        scale, shift = _gate_affine(h_dim, dtype)
        i_b, f_b, g_b, o_b = _gate_blocks(h_dim)

        x_proj = np.matmul(x, w_ih.T)
        x_proj += self.params["bias"]
        x_proj *= scale
        w_hh_t = np.multiply(w_hh.T, scale, order="C")
        # h[t] and c[t] are the states step t reads; h[0] = c[0] = 0
        h = np.zeros((t_steps + 1, batch, h_dim), dtype)
        c = np.zeros((t_steps + 1, batch, h_dim), dtype)
        gates = np.empty((t_steps, batch, 4 * h_dim), dtype)
        tanh_c = np.empty((t_steps, batch, h_dim), dtype)

        for t in range(t_steps):
            act = gates[t]
            np.matmul(h[t], w_hh_t, out=act)
            act += x_proj[t]
            np.tanh(act, out=act)
            act *= scale
            act += shift
            np.multiply(act[:, f_b], c[t], out=c[t + 1])
            c[t + 1] += act[:, i_b] * act[:, g_b]
            np.tanh(c[t + 1], out=tanh_c[t])
            np.multiply(act[:, o_b], tanh_c[t], out=h[t + 1])

        self._cache = ({"x": x, "h": h, "c": c, "gates": gates,
                        "tanh_c": tanh_c} if self.training else None)
        return h[1:]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate through time given ``(T, B, H)`` output grads.

        Only the recurrence is per step.  What a gate's pre-activation
        gradient is per unit of the step's ``dc`` (``dh`` for the output
        gate) is one slab computed before the loop, so a step is two
        products into its ``dpre`` row, the ``dc`` chain and the
        recurrent product.  The input gradient is one stacked product
        and each weight gradient one product over all ``T*B`` rows of
        ``dpre``, after the loop.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        x, h, c = cache["x"], cache["h"], cache["c"]
        gates, tanh_c = cache["gates"], cache["tanh_c"]
        grad_out = grad_out.astype(gates.dtype, copy=False)
        t_steps, batch, inputs = x.shape
        h_dim = self.hidden_size
        w_ih, w_hh = self.params["w_ih"], self.params["w_hh"]
        i_b, f_b, g_b, o_b = _gate_blocks(h_dim)

        # d sigma = sigma (1 - sigma) on i, f, o; d tanh = 1 - g^2 on g,
        # each times the factor it meets in c' = f c + i g, h = o tanh(c)
        dz = 1.0 - gates
        dz *= gates
        dz[..., g_b] = 1.0 - gates[..., g_b] ** 2
        dz[..., i_b] *= gates[..., g_b]
        dz[..., f_b] *= c[:-1]
        dz[..., g_b] *= gates[..., i_b]
        dz[..., o_b] *= tanh_c
        dc_dh = 1.0 - tanh_c ** 2
        dc_dh *= gates[..., o_b]

        dpre = np.empty_like(gates)
        dz_ifg = dz.reshape(t_steps, batch, 4, h_dim)[:, :, :3]
        dpre_ifg = dpre.reshape(t_steps, batch, 4, h_dim)[:, :, :3]
        dh_next = np.zeros((batch, h_dim), gates.dtype)
        dc_next = np.zeros((batch, h_dim), gates.dtype)

        for t in reversed(range(t_steps)):
            dh = grad_out[t] + dh_next
            dc = dh * dc_dh[t]
            dc += dc_next
            np.multiply(dc[:, None], dz_ifg[t], out=dpre_ifg[t])
            np.multiply(dh, dz[t, :, o_b], out=dpre[t, :, o_b])
            dc_next = dc * gates[t, :, f_b]
            dh_next = dpre[t] @ w_hh

        rows = dpre.reshape(-1, 4 * h_dim)
        self.grads["w_ih"] += rows.T @ x.reshape(-1, inputs)
        self.grads["w_hh"] += rows.T @ h[:-1].reshape(-1, h_dim)
        self.grads["bias"] += rows.sum(axis=0)
        return np.matmul(dpre, w_ih)


def _gate_blocks(h_dim: int) -> Tuple[slice, slice, slice, slice]:
    """Column slices of the ``(i, f, g, o)`` blocks of a ``4H`` gate row."""
    return tuple(slice(k * h_dim, (k + 1) * h_dim)  # type: ignore[return-value]
                 for k in range(4))


def _gate_affine(h_dim: int, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column ``(scale, shift)`` of a ``4H`` gate row: ``1/2`` on the
    sigmoid blocks (i, f, o), where ``tanh(z/2)/2 + 1/2`` is the sigmoid,
    and ``(1, 0)`` on the cell block."""
    scale = np.full(4 * h_dim, 0.5, dtype)
    shift = scale.copy()
    scale[2 * h_dim: 3 * h_dim] = 1.0
    shift[2 * h_dim: 3 * h_dim] = 0.0
    return scale, shift
