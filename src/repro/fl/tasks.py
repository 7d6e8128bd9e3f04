"""Task adapters: one interface for all five of the paper's workloads.

A task bundles a dataset with the matching model family, so the runners
in :mod:`repro.fl.runner` never special-case the workload.  Pruning is
the same two calls for every family (structured l1 pruning; for the
LSTM its units are the ISS components).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.data.loader import BatchIterator
from repro.data.partition import partition_dataset
from repro.data.synthetic import ImageDataset
from repro.data.text import TextDataset
from repro.models import build_model, count_model_flops
from repro.nn.metrics import evaluate_classifier, evaluate_language_model
from repro.nn.module import Module
from repro.pruning import build_pruning_plan, extract_submodel
from repro.pruning.plan import PruningPlan


class _Task:
    """What every task shares: one pruning mechanism for all families."""

    def build_plan(self, model: Module, ratio: float) -> PruningPlan:
        return build_pruning_plan(model, ratio)

    def extract(self, model: Module, plan: PruningPlan,
                rng: np.random.Generator) -> Module:
        return extract_submodel(model, plan, rng=rng)


class ClassificationTask(_Task):
    """Image classification (CNN / AlexNet / VGG-19 / ResNet-50 tasks)."""

    higher_is_better = True
    metric_name = "accuracy"
    #: iterator family a pool child must rebuild (see repro.runtime.pool)
    iterator_kind = "batch"

    def __init__(self, dataset: ImageDataset, model_name: str,
                 model_kwargs: Optional[Dict[str, Any]] = None,
                 non_iid_level: float = 0.0) -> None:
        self.dataset = dataset
        self.model_name = model_name
        self.model_kwargs = dict(model_kwargs or {})
        self.model_kwargs.setdefault("num_classes", dataset.num_classes)
        self.model_kwargs.setdefault("input_shape", dataset.input_shape)
        self.non_iid_level = non_iid_level

    @property
    def name(self) -> str:
        return f"{self.model_name}/{self.dataset.name}"

    @property
    def registry_model(self) -> Optional[Tuple[str, Dict[str, Any]]]:
        """(registry name, kwargs) of the model, for a service client."""
        return self.model_name, self.model_kwargs

    def build_model(self, rng: np.random.Generator) -> Module:
        return build_model(self.model_name, rng=rng, **self.model_kwargs)

    def partition(self, num_workers: int,
                  rng: np.random.Generator) -> List[Tuple[np.ndarray, np.ndarray]]:
        parts = partition_dataset(self.dataset, num_workers, rng,
                                  self.non_iid_level)
        return [
            (self.dataset.train_x[idx], self.dataset.train_y[idx])
            for idx in parts
        ]

    def make_iterator(self, shard: Tuple[np.ndarray, np.ndarray],
                      batch_size: int,
                      rng: np.random.Generator) -> BatchIterator:
        inputs, targets = shard
        return BatchIterator(inputs, targets, batch_size, rng=rng)

    def evaluate(self, model: Module,
                 max_samples: Optional[int] = None) -> Tuple[float, float]:
        xs, ys = self.dataset.test_x, self.dataset.test_y
        if max_samples is not None and xs.shape[0] > max_samples:
            xs, ys = xs[:max_samples], ys[:max_samples]
        return evaluate_classifier(model, xs, ys)

    def count_flops(self, model: Module) -> float:
        return float(count_model_flops(model))


class _SequenceBatchIterator:
    """Samples one ``(T, B)`` sequence batch per local iteration."""

    def __init__(self, inputs: np.ndarray, targets: np.ndarray,
                 rng: np.random.Generator) -> None:
        if inputs.shape[0] == 0:
            raise ValueError("worker received an empty sequence shard")
        self.inputs = inputs
        self.targets = targets
        self.rng = rng

    def next_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        index = int(self.rng.integers(self.inputs.shape[0]))
        return self.inputs[index], self.targets[index]


class LanguageModelTask(_Task):
    """LSTM language modelling on the synthetic PTB corpus (Table IV).

    ``metric`` is the test perplexity, so lower is better.
    """

    higher_is_better = False
    metric_name = "perplexity"
    #: iterator family a pool child must rebuild (see repro.runtime.pool)
    iterator_kind = "sequence"

    def __init__(self, dataset: TextDataset, seq_len: int = 20,
                 lm_batch_size: int = 8,
                 model_kwargs: Optional[Dict[str, Any]] = None) -> None:
        self.dataset = dataset
        self.seq_len = seq_len
        self.lm_batch_size = lm_batch_size
        self.model_kwargs = dict(model_kwargs or {})
        self.model_kwargs.setdefault("vocab_size", dataset.vocab_size)
        self._test_batches = dataset.batchify("test", seq_len, lm_batch_size)

    @property
    def name(self) -> str:
        return f"lstm_lm/{self.dataset.name}"

    @property
    def registry_model(self) -> Tuple[str, Dict[str, Any]]:
        """See :attr:`ClassificationTask.registry_model`."""
        return "lstm_lm", self.model_kwargs

    def build_model(self, rng: np.random.Generator) -> Module:
        return build_model("lstm_lm", rng=rng, **self.model_kwargs)

    def partition(self, num_workers: int,
                  rng: np.random.Generator) -> List[Tuple[np.ndarray, np.ndarray]]:
        inputs, targets = self.dataset.batchify(
            "train", self.seq_len, self.lm_batch_size
        )
        order = rng.permutation(inputs.shape[0])
        shards = np.array_split(order, num_workers)
        return [(inputs[idx], targets[idx]) for idx in shards]

    def make_iterator(self, shard: Tuple[np.ndarray, np.ndarray],
                      batch_size: int,
                      rng: np.random.Generator) -> _SequenceBatchIterator:
        inputs, targets = shard
        return _SequenceBatchIterator(inputs, targets, rng)

    def evaluate(self, model: Module,
                 max_samples: Optional[int] = None) -> Tuple[float, float]:
        inputs, targets = self._test_batches
        if max_samples is not None and inputs.shape[0] > max_samples:
            inputs, targets = inputs[:max_samples], targets[:max_samples]
        return evaluate_language_model(model, inputs, targets)

    def count_flops(self, model: Module) -> float:
        # one "sample" = one (T, B) sequence batch
        return float(
            count_model_flops(model, seq_len=self.seq_len) * self.lm_batch_size
        )
