"""The whole model zoo against a golden cut before the one-walk refactor.

``golden_zoo.json`` was cut at the last commit that still had a
dedicated walker and extractor per block family (``_walk_bottleneck``,
``build_iss_plan``, ``_extract_module`` ...).  It pins, per model and
pruning ratio, a sha256 of every plan entry, of every sub-model array,
of every module's type and public scalar attributes, plus the FLOP and
parameter counts -- so the single coupling-table walk and the
allocation-only extractor are held to the deleted code bit for bit.
Dropout generator states are deliberately not pinned (DESIGN.md 3.3,
"extraction RNG").
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.fleet import _build_mlp
from repro.models import (
    build_alexnet,
    build_cnn,
    build_lstm_lm,
    build_resnet50,
    build_vgg19,
    count_model_flops,
)
from repro.pruning import build_pruning_plan, extract_submodel

GOLDEN = Path(__file__).with_name("golden_zoo.json")
RATIOS = (0.0, 0.3, 0.6)

ZOO = {
    "cnn": lambda rng: build_cnn(rng=rng),
    "alexnet": lambda rng: build_alexnet(width_mult=0.125, rng=rng),
    "vgg19": lambda rng: build_vgg19(width_mult=0.0625, rng=rng),
    # two blocks in stage 1: the second has an identity skip
    "resnet50": lambda rng: build_resnet50(
        width_mult=0.125, blocks_per_stage=(2, 1, 1, 1), rng=rng),
    "lstm": lambda rng: build_lstm_lm(
        vocab_size=60, embedding_dim=12, hidden_size=16, dropout=0.2,
        rng=rng),
    "fleet_mlp": lambda rng: _build_mlp(rng=rng),
}


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _array_bytes(value) -> bytes:
    if value is None:
        return b"none"
    value = np.ascontiguousarray(value)
    return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()


def _scalar_attrs(module) -> dict:
    """Public int/float/bool/str/tuple/None attributes, instance-level
    or class properties alike (so a stored width and a derived one
    digest the same)."""
    names = set(vars(module)) | {
        name for name in dir(type(module))
        if isinstance(getattr(type(module), name), property)
    }
    attrs = {}
    for name in sorted(names):
        if name.startswith("_") or name == "training":
            continue
        value = getattr(module, name)
        if value is None or isinstance(value, (bool, int, float, str, tuple)):
            attrs[name] = repr(value)
    return attrs


def digest_case(plan, sub) -> dict:
    """Everything the golden pins for one (model, ratio)."""
    return {
        "plan": {
            name: _sha(
                f"{entry.kind}|{entry.out_full}|{entry.in_full}".encode(),
                _array_bytes(entry.kept_out), _array_bytes(entry.kept_in),
            )
            for name, entry in plan.items()
        },
        "state": {
            key: _sha(_array_bytes(value))
            for key, value in sub.state_dict().items()
        },
        "modules": {
            name: [type(module).__name__, _scalar_attrs(module)]
            for name, module in sub.named_modules()
        },
        "flops": int(count_model_flops(sub)),
        "params": int(sub.num_parameters()),
    }


def zoo_digests(build_plan=build_pruning_plan, extract=extract_submodel):
    digests = {}
    for name, builder in ZOO.items():
        model = builder(np.random.default_rng(2024))
        for ratio in RATIOS:
            plan = build_plan(model, ratio)
            sub = extract(model, plan, rng=np.random.default_rng(7))
            digests[f"{name}@{ratio}"] = digest_case(plan, sub)
    return digests


@pytest.fixture(scope="module")
def current():
    return zoo_digests()


@pytest.mark.parametrize("name", sorted(ZOO))
@pytest.mark.parametrize("ratio", RATIOS)
def test_zoo_matches_pre_refactor_golden(current, name, ratio):
    golden = json.loads(GOLDEN.read_text())
    key = f"{name}@{ratio}"
    got, want = current[key], golden[key]
    for section in ("plan", "state", "modules"):
        assert list(got[section]) == list(want[section]), (key, section)
        for item in want[section]:
            assert got[section][item] == want[section][item], (
                key, section, item)
    assert got["flops"] == want["flops"]
    assert got["params"] == want["params"]
