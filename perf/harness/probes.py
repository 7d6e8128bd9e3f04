"""Probe pass: direct timed calls into public functions of each layer.

Every probe builds fixed seeded inputs (independent of ``--seed``: a
probe measures a kernel, not a workload), makes 3 warm-up calls and
reports the median of 20 timed calls (the whole pass takes about 25 s).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro.bandit.eucb import EUCBAgent
from repro.data.loader import BatchIterator
from repro.experiments import fleet
from repro.experiments.setups import make_bench_task
from repro.fl.aggregation import Contribution, make_aggregator
from repro.fl.checkpoint import decode_checkpoint, encode_checkpoint
from repro.models.flops import count_layer_flops
from repro.nn import functional as F
from repro.nn.batched import train_cohort
from repro.nn.layers import Conv2d, Linear, MaxPool2d
from repro.nn.loss import CrossEntropyLoss
from repro.nn.optim import SGD
from repro.nn.recurrent import LSTM
from repro.pruning.structured import scatter_add_param
from repro.runtime.codec import (
    TrainHyper,
    decode_contribution,
    decode_dispatch,
    encode_contribution,
    encode_dispatch,
)

WARMUP_CALLS = 3
TIMED_CALLS = 20
#: ``--quick`` smoke runs
QUICK_CALLS = 2

#: paper-CNN conv2: 32 -> 64 channels, 5x5, padding 2, 14x14 maps
CONV2 = dict(in_channels=32, out_channels=64, kernel=5, padding=2, size=14)
BATCH = 16
PRUNE_RATIO = 0.5
COHORT_MEMBERS = 128
COHORT_TAU = 2
BANDIT_PLAYS = 2000

#: (value, timed calls behind it)
Reading = Tuple[float, int]


class Meter:
    """Times a callable by the protocol in the module docstring."""

    def __init__(self, quick: bool = False,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls = QUICK_CALLS if quick else TIMED_CALLS

    def __call__(self, fn: Callable[[], object],
                 scale: float = 1e3) -> Reading:
        """Median duration of ``fn()`` times ``scale`` (1e3:
        milliseconds), and the number of timed calls behind it."""
        clock = self.clock
        for _ in range(WARMUP_CALLS):
            fn()
        samples = []
        for _ in range(self.calls):
            start = clock()
            fn()
            samples.append(clock() - start)
        return statistics.median(samples) * scale, len(samples)


def _train_step(model, criterion, optimizer, inputs, targets) -> None:
    """One local SGD iteration, as ``Worker.local_train`` runs it."""
    logits = model.forward(inputs)
    criterion(logits, targets)
    model.zero_grad()
    model.backward(criterion.backward())
    optimizer.step()


def _nn_kernels(out: Dict[str, Reading], measure: Meter) -> None:
    rng = np.random.default_rng(0)
    c = CONV2
    x = rng.normal(size=(BATCH, c["in_channels"], c["size"], c["size"])
                   ).astype(np.float32)
    k, p = c["kernel"], c["padding"]
    cols = F.im2col(x, k, k, 1, p)
    out["nn.im2col_ms"] = measure(lambda: F.im2col(x, k, k, 1, p))
    out["nn.col2im_ms"] = measure(
        lambda: F.col2im(cols, x.shape, k, k, 1, p))

    conv = Conv2d(c["in_channels"], c["out_channels"], k, padding=p,
                  rng=np.random.default_rng(1))
    grad = rng.normal(size=conv.forward(x).shape).astype(np.float32)
    fwd_ms, fwd_n = measure(lambda: conv.forward(x))
    out["nn.conv2d_fwd_ms"] = (fwd_ms, fwd_n)
    out["nn.conv2d_bwd_ms"] = measure(lambda: conv.backward(grad))
    flops = count_layer_flops(
        conv, (c["in_channels"], c["size"], c["size"])) * BATCH
    out["nn.conv2d_gflops"] = (flops / (fwd_ms / 1e3) / 1e9, fwd_n)

    linear = Linear(64 * 7 * 7, 256, rng=np.random.default_rng(2))
    lin_x = rng.normal(size=(BATCH, 64 * 7 * 7)).astype(np.float32)
    lin_g = rng.normal(size=(BATCH, 256)).astype(np.float32)

    def linear_fwd_bwd():
        linear.forward(lin_x)
        linear.backward(lin_g)

    out["nn.linear_fwd_bwd_ms"] = measure(linear_fwd_bwd)

    pool = MaxPool2d(2)
    pool_x = rng.normal(size=(BATCH, 64, 14, 14)).astype(np.float32)
    pool_g = rng.normal(size=pool.forward(pool_x).shape).astype(np.float32)

    def pool_fwd_bwd():
        pool.forward(pool_x)
        pool.backward(pool_g)

    out["nn.maxpool_fwd_bwd_ms"] = measure(pool_fwd_bwd)

    lstm = LSTM(24, 48, rng=np.random.default_rng(3))
    seq = rng.normal(size=(12, 8, 24)).astype(np.float32)
    seq_g = rng.normal(size=lstm.forward(seq).shape).astype(np.float32)

    def lstm_fwd_bwd():
        lstm.forward(seq)
        lstm.backward(seq_g)

    out["nn.lstm_fwd_bwd_ms"] = measure(lstm_fwd_bwd)


def _bench_model(key: str):
    """The bench task ``key``, a freshly built model and one batch."""
    bench = make_bench_task(key)
    task = bench.make_task(0.0)
    model = task.build_model(np.random.default_rng(4))
    shard = task.partition(10, np.random.default_rng(5))[0]
    iterator = task.make_iterator(shard, bench.batch_size,
                                  np.random.default_rng(6))
    return bench, task, model, iterator.next_batch()


def _model_probes(out: Dict[str, Reading],
                  measure: Meter) -> Dict[str, tuple]:
    """Train step, evaluate, plan and extract per model; returns the
    built ``(task, model)`` pairs for the later probes to share."""
    built = {}
    for key in ("cnn", "lstm", "resnet50"):
        bench, task, model, (inputs, targets) = _bench_model(key)
        built[key] = (task, model)
        plan = task.build_plan(model, PRUNE_RATIO)
        out[f"pruning.plan_ms.{key}"] = measure(
            lambda: task.build_plan(model, PRUNE_RATIO))
        extract_rng = np.random.default_rng(7)
        out[f"pruning.extract_ms.{key}"] = measure(
            lambda: task.extract(model, plan, extract_rng))
        if key != "resnet50":
            out[f"fl.tasks.evaluate_ms.{key}"] = measure(
                lambda: task.evaluate(model))
        # trained last: the probes above see the pristine model
        criterion = CrossEntropyLoss()
        optimizer = SGD(model, lr=bench.lr, momentum=bench.momentum,
                        clip_norm=5.0)
        model.train()
        out[f"nn.train_step_ms.{key}"] = measure(
            lambda: _train_step(model, criterion, optimizer, inputs,
                                targets))
    return built


def _cohort_probe(out: Dict[str, Reading], measure: Meter) -> None:
    task = fleet.make_task()
    model = task.build_model(np.random.default_rng(8))
    state = model.state_dict()
    shard = task.partition(1, np.random.default_rng(9))[0]
    iterators = [
        BatchIterator(shard[0], shard[1], 8, rng=np.random.default_rng(m))
        for m in range(COHORT_MEMBERS)
    ]
    out["nn.batched.train_cohort_ms"] = measure(
        lambda: train_cohort(model, state, iterators, COHORT_TAU, lr=0.05,
                             clip_norm=5.0))


def _submodel(task, model, ratio: float, seed: int):
    plan = task.build_plan(model, ratio)
    sub = task.extract(model, plan, np.random.default_rng(seed))
    return plan, sub


def _codec_probes(out: Dict[str, Reading], measure: Meter, task,
                  model) -> None:
    plan, sub = _submodel(task, model, PRUNE_RATIO, 10)
    base = sub.state_dict()
    rng = np.random.default_rng(11)
    trained = {
        key: (value + 0.01 * rng.normal(size=value.shape)
              ).astype(value.dtype)
        for key, value in base.items()
    }
    hyper = TrainHyper(lr=0.05, clip_norm=5.0)
    params = sub.num_parameters()

    def dispatch():
        return encode_dispatch(0, plan, base, tau=3, hyper=hyper)

    frame = dispatch()
    out["runtime.codec.encode_dispatch_ms"] = measure(dispatch)
    out["runtime.codec.decode_dispatch_ms"] = measure(
        lambda: decode_dispatch(frame))

    profiles = {
        "exact": dict(profile="exact"),
        "sparse_quantized": dict(profile="sparse+quantized", base=base,
                                 keep_fraction=0.25, quantize_bits=8),
    }
    for label, kwargs in profiles.items():
        def contribution(kwargs=kwargs):
            return encode_contribution(0, trained, train_loss=0.5,
                                       wall_time_s=0.01, **kwargs)

        reply = contribution()
        profile = kwargs["profile"]
        out[f"runtime.codec.encode_contribution_ms.{label}"] = measure(
            contribution)
        # decoding includes materialising the dense state, as the
        # executor does with every reply
        out[f"runtime.codec.decode_contribution_ms.{label}"] = measure(
            lambda: decode_contribution(
                reply, expect_profile=profile).materialise(base))
        out[f"runtime.codec.bytes_per_param.{label}"] = (
            len(reply) / params, 1)


def _aggregation_probes(out: Dict[str, Reading], measure: Meter, task,
                        model) -> None:
    global_state = model.state_dict()
    ratios = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.25, 0.45]
    contributions = []
    for worker_id, ratio in enumerate(ratios):
        plan, sub = _submodel(task, model, ratio, 20 + worker_id)
        contributions.append(Contribution(
            worker_id=worker_id, sub_state=sub.state_dict(), plan=plan,
            global_state=global_state,
        ))
    for scheme in ("r2sp", "bsp"):
        aggregator = make_aggregator(scheme)
        out[f"fl.aggregation.aggregate_ms.{scheme}"] = measure(
            lambda: aggregator.aggregate(contributions, global_state))

    half = contributions[5]
    names = half.plan.param_names()
    accumulator = {
        key: np.zeros_like(value, dtype=np.float64)
        for key, value in global_state.items()
    }

    def scatter():
        for key, value in half.sub_state.items():
            layer, suffix = names[key]
            scatter_add_param(accumulator[key], suffix, half.plan[layer],
                              value, 0.1)

    out["pruning.scatter_add_ms.cnn"] = measure(scatter)


def _bandit_probe(out: Dict[str, Reading], measure: Meter) -> None:
    rewards = np.random.default_rng(12).uniform(size=BANDIT_PLAYS)
    regions = []

    def plays():
        agent = EUCBAgent(rng=np.random.default_rng(13))
        for reward in rewards:
            agent.select_ratio()
            agent.observe(float(reward))
        regions.append(agent.num_regions)

    per_run_us, calls = measure(plays, scale=1e6)
    out["bandit.play_us"] = (per_run_us / BANDIT_PLAYS, calls)
    out["bandit.regions"] = (float(regions[-1]), 1)


def _checkpoint_probes(out: Dict[str, Reading], measure: Meter,
                       model) -> None:
    # the weight-bearing part of an engine checkpoint: model state plus
    # one cached (plan-free) sub-model state per cache entry
    payload = {
        "format_version": 1, "next_round": 4, "scheduler": "sync",
        "config": None,
        "model_state": model.state_dict(),
        "submodel_cache": {r: model.state_dict() for r in (0.1, 0.2)},
    }
    blob = encode_checkpoint(payload)
    out["fl.checkpoint.encode_ms"] = measure(
        lambda: encode_checkpoint(payload))
    out["fl.checkpoint.decode_ms"] = measure(lambda: decode_checkpoint(blob))


def run_probes(quick: bool = False) -> Dict[str, Reading]:
    """Run every probe; name -> ``(value, timed calls)``.  Units are in
    :mod:`harness.catalog`."""
    readings: Dict[str, Reading] = {}
    measure = Meter(quick=quick)
    _nn_kernels(readings, measure)
    built = _model_probes(readings, measure)
    _cohort_probe(readings, measure)
    cnn_task, cnn_model = built["cnn"]
    # the train-step probe moved the model; the remaining probes only
    # need *a* CNN state, not the pristine one
    _codec_probes(readings, measure, cnn_task, cnn_model)
    _aggregation_probes(readings, measure, cnn_task, cnn_model)
    _bandit_probe(readings, measure)
    _checkpoint_probes(readings, measure, cnn_model)
    return readings
