"""LSTM / Embedding gradient checks, shape behaviour, the dtype contract,
and the slab LSTM against its arithmetic written one step at a time
(``tests/support/nn_reference``)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.models.lstm_lm import build_lstm_lm
from repro.nn.dtype import get_default_dtype, set_default_dtype
from repro.nn.loss import CrossEntropyLoss
from repro.nn.recurrent import LSTM, Embedding
from tests.support.nn_reference import StepwiseLSTM

TOL = 1e-6


@pytest.mark.usefixtures("float64_mode")
def test_lstm_full_gradcheck(rng, gradcheck):
    lstm = LSTM(3, 4, rng=rng)
    x = rng.normal(size=(4, 2, 3))
    target = rng.normal(size=(4, 2, 4))

    def fn():
        return 0.5 * float(((lstm.forward(x) - target) ** 2).sum())

    out = lstm.forward(x)
    lstm.zero_grad()
    grad_x = lstm.backward(out - target)

    for name in ("w_ih", "w_hh", "bias"):
        expected = gradcheck(fn, lstm.params[name])
        assert np.abs(lstm.grads[name] - expected).max() < TOL, name
    expected = gradcheck(fn, x)
    assert np.abs(grad_x - expected).max() < TOL


@pytest.mark.usefixtures("float64_mode")
def test_embedding_gradients_accumulate_repeated_ids(rng):
    embed = Embedding(6, 3, rng=rng)
    ids = np.array([[1, 1], [1, 2]])  # token 1 appears three times
    out = embed.forward(ids)
    embed.zero_grad()
    embed.backward(np.ones_like(out))
    assert np.allclose(embed.grads["weight"][1], 3.0)
    assert np.allclose(embed.grads["weight"][2], 1.0)
    assert np.allclose(embed.grads["weight"][0], 0.0)


def test_lstm_output_shape_and_determinism(rng):
    lstm = LSTM(5, 7, rng=rng)
    x = rng.normal(size=(6, 3, 5)).astype(np.float32)
    out1 = lstm.forward(x)
    out2 = lstm.forward(x)
    assert out1.shape == (6, 3, 7)
    assert np.allclose(out1, out2)


def test_lstm_forget_bias_initialised_to_one(rng):
    lstm = LSTM(3, 4, rng=rng)
    hidden = lstm.hidden_size
    assert np.allclose(lstm.params["bias"][hidden:2 * hidden], 1.0)
    assert np.allclose(lstm.params["bias"][:hidden], 0.0)


def test_embedding_forward_looks_up_rows(rng):
    embed = Embedding(10, 4, rng=rng)
    ids = np.array([[0, 9], [3, 3]])
    out = embed.forward(ids)
    assert out.shape == (2, 2, 4)
    assert np.allclose(out[0, 1], embed.params["weight"][9])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_language_model_computes_in_its_parameters_dtype(rng, dtype):
    """States, cached slabs, logits, the loss gradient and every
    parameter gradient of the LM carry the parameters' dtype."""
    previous = get_default_dtype()
    set_default_dtype(dtype)
    try:
        model = build_lstm_lm(vocab_size=30, embedding_dim=6, hidden_size=5,
                              rng=rng)
    finally:
        set_default_dtype(previous)
    ids = rng.integers(30, size=(4, 3))
    criterion = CrossEntropyLoss()
    seen = {"embedding": model.get("embed").forward(ids)}
    seen["lstm1"] = model.get("lstm1").forward(seen["embedding"])
    seen["lstm2"] = model.get("lstm2").forward(seen["lstm1"])
    seen["logits"] = model.get("decoder").forward(seen["lstm2"])
    criterion(seen["logits"], rng.integers(30, size=(4, 3)))
    seen["loss_grad"] = criterion.backward()
    model.zero_grad()
    grad = model.get("decoder").backward(seen["loss_grad"])
    seen["lstm2_input_grad"] = model.get("lstm2").backward(grad)
    seen["lstm1_input_grad"] = model.get("lstm1").backward(
        seen["lstm2_input_grad"])
    for name in ("lstm1", "lstm2"):
        for key, value in model.get(name)._cache.items():
            seen[f"{name}.cache.{key}"] = value
    for name, value in model.named_parameters():
        seen[f"{name} param"] = value
    for name, value in model.named_grads():
        seen[f"{name} grad"] = value
    assert {key: value.dtype for key, value in seen.items()} == {
        key: np.dtype(dtype) for key in seen}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_saturated_gates_stay_in_the_unit_interval(dtype):
    """Pre-activations up to +-1e4 give finite gates in [0, 1] without a
    floating-point warning, forward or backward."""
    hidden = 6
    lstm = LSTM(1, hidden)
    lstm.params["w_ih"] = np.linspace(-1e4, 1e4, 4 * hidden).reshape(
        -1, 1).astype(dtype)
    lstm.params["w_hh"] = np.full((4 * hidden, hidden), 1e3, dtype)
    lstm.params["bias"] = np.zeros(4 * hidden, dtype)
    lstm.grads = {k: np.zeros_like(v) for k, v in lstm.params.items()}
    x = np.array([1.0, -1.0, 0.5]).reshape(3, 1, 1).astype(dtype)
    with np.errstate(all="raise"):
        out = lstm.forward(x)
        gates = lstm._cache["gates"]
        lstm.backward(np.ones_like(out))
    sigmoid_gates = np.delete(gates, np.s_[2 * hidden: 3 * hidden], axis=2)
    assert gates.dtype == dtype
    assert np.isfinite(gates).all() and np.isfinite(out).all()
    assert sigmoid_gates.min() == 0.0 and sigmoid_gates.max() == 1.0
    assert all(np.isfinite(g).all() for g in lstm.grads.values())


# the shape grid the stepwise oracle is compared over: single steps,
# samples and hidden units included
T_GRID, B_GRID, H_GRID, I_GRID = (1, 3, 12), (1, 2, 8), (1, 5, 34, 48), (1, 17, 24)


def _bits_equal(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _signed_values(rng, shape, dtype):
    """Normal values with signed zeros mixed in."""
    values = rng.normal(scale=2.0, size=shape)
    values[rng.random(shape) < 0.05] = 0.0
    values[rng.random(shape) < 0.05] = -0.0
    return values.astype(dtype)


def _assert_matches_stepwise(rng, x_dtype, grad_dtype):
    mismatches = []
    for t_steps, batch, hidden, inputs in itertools.product(
            T_GRID, B_GRID, H_GRID, I_GRID):
        seed = int(rng.integers(2 ** 31))
        lstm = LSTM(inputs, hidden, rng=np.random.default_rng(seed))
        oracle = StepwiseLSTM(inputs, hidden, rng=np.random.default_rng(seed))
        lstm.zero_grad()
        oracle.zero_grad()
        # two accumulating calls, then an inference forward
        for _ in range(2):
            x = _signed_values(rng, (t_steps, batch, inputs), x_dtype)
            grad = _signed_values(rng, (t_steps, batch, hidden), grad_dtype)
            pairs = [(lstm.forward(x), oracle.forward(x))]
            pairs.append((lstm.backward(grad), oracle.backward(grad)))
            pairs += [(lstm.grads[k], oracle.grads[k]) for k in lstm.grads]
            lstm.eval()
            pairs.append((lstm.forward(x), pairs[0][1]))
            lstm.train()
            if not all(_bits_equal(a, b) for a, b in pairs):
                mismatches.append((t_steps, batch, hidden, inputs))
    assert mismatches == []


@pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
def test_lstm_matches_the_stepwise_oracle_bit_for_bit(rng, x_dtype, grad_dtype):
    """Outputs, input gradients and accumulated parameter gradients of the
    slab LSTM equal the per-step one it replaced, sign bits and dtypes
    included, over the whole shape grid (float32 parameters)."""
    _assert_matches_stepwise(rng, x_dtype, grad_dtype)


@pytest.mark.usefixtures("float64_mode")
def test_lstm_matches_the_stepwise_oracle_with_float64_parameters(rng):
    _assert_matches_stepwise(rng, np.float64, np.float64)
