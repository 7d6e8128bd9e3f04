"""The clip-norm screen decides exactly what the exact float64 rule does.

:func:`repro.nn.optim.clip_scales` clears a member with one float32 row
dot per gradient block when an upper bound on its total is below
``clip_norm ** 2``, and computes the float64 total only for the rest.
Whatever the screen clears or passes on, the scales must be bit for bit
those of the exact-only rule, on the stacked ``(members, -1)`` view and
on each member alone.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import optim
from repro.nn.batched import train_cohort
from repro.nn.loss import CrossEntropyLoss
from repro.nn.optim import SGD, clip_scales, squared_norm
from tests.test_nn.test_batched import _iterators, _mlp

#: per-member magnitudes: ordinary, subnormal / underflowing squares in
#: float32, and float32 squares that overflow
_MAGNITUDES = (1.0, 1e-3, 1e3, 1e-20, 1e-30, 1e-42, 1e19, 1e20)
_SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-45, 3.4e38, -1e20)


def _exact_scales(blocks, members, clip_norm):
    """The exact-only rule: float64 totals in parameter order, then the
    member optimiser's python-float sqrt and division."""
    totals = np.zeros(members)
    for rows in blocks:
        totals += squared_norm(rows, member_axis=True)
    scales = np.ones(members)
    for index, total in enumerate(totals.tolist()):
        norm = total ** 0.5
        if norm > clip_norm and norm > 0:
            scales[index] = clip_norm / norm
    return scales


def _assert_same_scales(blocks, members, clip_norm):
    want = _exact_scales(blocks, members, clip_norm)
    got = clip_scales(blocks, members, clip_norm)
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for member in range(members):
        alone = clip_scales([rows[member:member + 1] for rows in blocks], 1,
                            clip_norm)
        assert alone.view(np.uint64)[0] == want.view(np.uint64)[member]


@st.composite
def _cohorts(draw):
    members = draw(st.integers(1, 6))
    widths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    magnitudes = np.array(draw(st.lists(st.sampled_from(_MAGNITUDES),
                                        min_size=members,
                                        max_size=members)))
    blocks = [(rng.normal(size=(members, width))
               * magnitudes[:, None]).astype(np.float32)
              for width in widths]
    for _ in range(draw(st.integers(0, 3))):
        block = blocks[draw(st.integers(0, len(blocks) - 1))]
        member = draw(st.integers(0, members - 1))
        position = draw(st.integers(0, block.shape[1] - 1))
        block[member, position] = draw(st.sampled_from(_SPECIALS))
    # a threshold at, one ulp either side of, or near one member's norm
    totals = np.zeros(members)
    for rows in blocks:
        totals += squared_norm(rows, member_axis=True)
    norm = float(totals[draw(st.integers(0, members - 1))]) ** 0.5
    if not np.isfinite(norm) or norm == 0.0:
        norm = 1.0
    nudge = draw(st.sampled_from(("at", "below", "above", "near", "free")))
    if nudge == "below":
        norm = float(np.nextafter(norm, 0.0))
    elif nudge == "above":
        norm = float(np.nextafter(norm, np.inf))
    elif nudge == "near":
        norm *= draw(st.sampled_from((1 - 1e-7, 1 + 1e-7, 0.999, 1.001)))
    elif nudge == "free":
        norm = draw(st.floats(1e-6, 1e6))
    return blocks, members, norm


@settings(max_examples=300, deadline=None)
@given(_cohorts())
def test_screen_scales_are_the_exact_rule(cohort):
    blocks, members, clip_norm = cohort
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_scales(blocks, members, clip_norm)


def test_screen_covers_a_dot_that_drops_small_squares():
    """Every float32 partial sum of the dot starts at 1.0 (64 leading
    ones cover any accumulator layout), so each of the 8 192 squares at
    2**-26 that follow is rounded away: the dot is 32 float32 ulps short
    of the exact total.  A threshold between the two must still clip --
    the bound's gamma_n term is what keeps the screen honest."""
    rows = np.full((1, 64 + 8192), 2.0 ** -13, dtype=np.float32)
    rows[0, :64] = 1.0
    dot = float(np.vecdot(rows, rows)[0])
    total = squared_norm(rows)
    assert (total - dot) / total > 16 * 2.0 ** -24
    clip_norm = ((dot + total) / 2) ** 0.5
    assert clip_scales([rows], 1, clip_norm)[0] < 1.0
    _assert_same_scales([rows], 1, clip_norm)


def test_unscreenable_blocks_take_the_exact_path():
    """float64 gradients and blocks too long for the bound (2 n u >= 1)
    never clear; the exact rule decides them."""
    wide = np.zeros((2, 2 ** 23), dtype=np.float32)
    wide[0, :4] = 3.0
    _assert_same_scales([wide], 2, 5.0)
    _assert_same_scales([wide], 2, 7.0)
    rows = np.random.default_rng(0).normal(size=(3, 50))
    _assert_same_scales([rows], 3, 6.0)
    _assert_same_scales([rows.astype(np.float32), rows], 3, 10.0)


def _count_squared_norm(monkeypatch):
    calls = []

    def counting(grad, member_axis=False):
        calls.append(len(grad))
        return squared_norm(grad, member_axis)

    monkeypatch.setattr(optim, "squared_norm", counting)
    return calls


@pytest.mark.parametrize("clip_norm, exact", [(1e3, False), (1e-3, True)])
def test_a_cohort_under_the_threshold_computes_no_exact_norm(
        monkeypatch, clip_norm, exact):
    calls = _count_squared_norm(monkeypatch)
    build = _mlp(100)
    model = build()
    train_cohort(model, model.state_dict(), _iterators(50, 8), 3, lr=0.05,
                 clip_norm=clip_norm)
    assert bool(calls) is exact

    calls.clear()
    member = build()
    iterator = _iterators(50, 1)[0]
    optimizer = SGD(member, lr=0.05, clip_norm=clip_norm)
    criterion = CrossEntropyLoss()
    inputs, targets = iterator.next_batch()
    criterion(member.forward(inputs), targets)
    member.zero_grad()
    member.backward(criterion.backward())
    grads = {name: grad.copy() for name, grad in member.named_grads()}
    want = float(_exact_scales([g.reshape(1, -1) for g in grads.values()],
                               1, clip_norm)[0])
    optimizer.step()
    assert bool(calls) is exact
    # the per-member path applied the exact rule's scale, bit for bit
    for name, grad in member.named_grads():
        expected = grads[name] * want if want != 1.0 else grads[name]
        assert np.array_equal(grad.view(np.uint32),
                              expected.view(np.uint32)), name
