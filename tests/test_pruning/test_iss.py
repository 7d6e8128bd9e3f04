"""ISS pruning of the LSTM language model (Section VI).

The LSTM goes through the same ``build_pruning_plan`` /
``extract_submodel`` as every other family (it is also one of the
inputs of the parametrised tests in ``test_structured.py``); what stays
here is what only an ISS component can get wrong.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_lstm_lm
from repro.pruning import (
    build_pruning_plan,
    extract_submodel,
    recover_state_dict,
    sparse_state_dict,
)
from repro.pruning.plan import keep_count


@pytest.fixture
def lm(rng):
    return build_lstm_lm(vocab_size=60, embedding_dim=12, hidden_size=16,
                         rng=rng)


@pytest.mark.parametrize("ratio", [0.0, 0.25, 0.5, 0.8])
def test_iss_recovery_equals_sparse(rng, lm, ratio):
    plan = build_pruning_plan(lm, ratio)
    sub = extract_submodel(lm, plan, rng=rng)
    recovered = recover_state_dict(sub.state_dict(), plan, lm.state_dict())
    sparse = sparse_state_dict(lm.state_dict(), plan)
    for key in sparse:
        assert np.allclose(recovered[key], sparse[key]), key


def test_iss_hidden_sizes_shrink_consistently(rng, lm):
    plan = build_pruning_plan(lm, 0.5)
    sub = extract_submodel(lm, plan, rng=rng)
    lstm1, lstm2 = sub.get("lstm1"), sub.get("lstm2")
    assert lstm1.hidden_size == keep_count(16, 0.5)
    assert lstm2.input_size == lstm1.hidden_size
    assert sub.get("decoder").linear.in_features == lstm2.hidden_size


def test_iss_submodel_runs_end_to_end(rng, lm):
    plan = build_pruning_plan(lm, 0.5)
    sub = extract_submodel(lm, plan, rng=rng)
    ids = rng.integers(0, 60, size=(5, 3))
    out = sub.forward(ids)
    assert out.shape == (5, 3, 60)
    sub.zero_grad()
    sub.backward(np.ones_like(out) / out.size)


def test_iss_vocabulary_never_pruned(rng, lm):
    plan = build_pruning_plan(lm, 0.8)
    entry = plan["decoder.linear"]
    assert entry.kept_out.size == 60


def test_iss_gate_rows_selected_coherently(rng, lm):
    """A kept unit keeps its rows in all four gate blocks of w_ih."""
    plan = build_pruning_plan(lm, 0.5)
    sub = extract_submodel(lm, plan, rng=rng)
    entry = plan["lstm1"]
    hidden_full = 16
    hidden_sub = entry.kept_out.size
    src = lm.get("lstm1").params["w_ih"]
    dst = sub.get("lstm1").params["w_ih"]
    for gate in range(4):
        for sub_row, full_unit in enumerate(entry.kept_out):
            assert np.allclose(
                dst[gate * hidden_sub + sub_row],
                src[gate * hidden_full + full_unit],
            )


def test_iss_param_reduction(rng, lm):
    full = lm.num_parameters()
    sub = extract_submodel(lm, build_pruning_plan(lm, 0.6), rng=rng)
    assert sub.num_parameters() < full


def test_iss_identity_plan(rng, lm):
    plan = build_pruning_plan(lm, 0.0)
    sub = extract_submodel(lm, plan, rng=rng)
    ids = rng.integers(0, 60, size=(4, 2))
    assert np.allclose(lm.forward(ids), sub.forward(ids), atol=1e-5)
