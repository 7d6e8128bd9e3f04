"""Structured model pruning and the R2SP residual machinery.

This subpackage implements Section III-B/C of the paper:

- :mod:`repro.pruning.importance` -- l1-norm importance scores for
  convolution filters, fully-connected neurons, and LSTM ISS components;
- :mod:`repro.pruning.plan` -- the :class:`PruningPlan` index record the
  parameter server stores per worker ("we can use a binary vector to
  store the indexes"), and the coupling table saying which array axes a
  layer's units own;
- :mod:`repro.pruning.structured` -- distributed structured pruning for
  every model family (CNN filters and neurons, and the LSTM's Intrinsic
  Sparse Structure components of Section VI): building a plan from a
  global model at a pruning ratio, extracting the sub-model, and
  zero-expanding a trained sub-model back to the global shape (model
  recovery);
- :mod:`repro.pruning.masks` -- sparse models (pruned positions zeroed)
  and residual models (global minus sparse), the two auxiliary objects
  of R2SP;
- :mod:`repro.pruning.error` -- the pruning error ``Q_n^k`` from the
  convergence analysis.
"""

from repro.pruning.plan import (
    LayerPrune,
    PruningPlan,
    plan_signature,
    plan_signature_digest,
)
from repro.pruning.importance import (
    conv_filter_scores,
    linear_neuron_scores,
    lstm_iss_scores,
)
from repro.pruning.structured import (
    build_pruning_plan,
    extract_submodel,
    gather_param,
    recover_state_dict,
    scatter_add_param,
    scatter_assign_param,
)
from repro.pruning.masks import residual_state_dict, sparse_state_dict
from repro.pruning.error import pruning_error

__all__ = [
    "LayerPrune",
    "PruningPlan",
    "conv_filter_scores",
    "linear_neuron_scores",
    "lstm_iss_scores",
    "build_pruning_plan",
    "extract_submodel",
    "gather_param",
    "recover_state_dict",
    "scatter_add_param",
    "scatter_assign_param",
    "sparse_state_dict",
    "residual_state_dict",
    "plan_signature",
    "plan_signature_digest",
    "pruning_error",
]
