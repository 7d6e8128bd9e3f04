"""Runtime invariant checkers for the round engine.

:class:`InvariantHook` is a :class:`~repro.fl.hooks.RoundHook` that
re-derives, every round, the properties the engine's round path is
supposed to preserve, using the slow reference implementations as
oracles:

- **plan** -- every dispatched :class:`~repro.pruning.plan.PruningPlan`
  is well-formed: kept indices sorted, unique and in range, and each
  layer keeps either everything (protected / boundary layers) or
  exactly :func:`~repro.pruning.plan.keep_count` units.
- **shapes** -- dispatched and uploaded state dicts have exactly the
  shapes the plan's gather rules produce from the global template.
- **mass** -- R2SP conservation: the aggregated global state equals
  the weighted mean of the zero-expanded sub-models plus residual
  models, recomputed densely from the round's contributions.
- **error_feedback** -- the compression memory is conserved in global
  coordinates: at dispatched positions, consumed memory plus the
  training delta reappears as transmitted delta plus banked memory;
  at pruned positions the memory is bitwise untouched.
- **bandit** -- every E-UCB agent's incremental discounted statistics
  agree with the full-history replay oracle and its partition still
  tiles the ratio interval (:meth:`EUCBAgent.consistency_report`).

``on_violation="raise"`` (the default) raises
:class:`~repro.verify.errors.InvariantViolation` at the offending
round; ``"record"`` collects violations on :attr:`violations` and lets
the run continue.  Checks and violations are also counted into
telemetry (``invariant_checks_total`` / ``invariant_violations_total``
by check name).

The hook is an observer: it never mutates the engine, and its
reference recomputations run on copies.  Expect verification runs to
be a small constant factor slower than plain runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.fl.aggregation import Contribution
from repro.fl.hooks import RoundHook
from repro.pruning.masks import keep_mask
from repro.pruning.plan import PruningPlan, keep_count
from repro.pruning.structured import gather_param
from repro.verify.differential import ulp_distance
from repro.verify.errors import InvariantViolation
from repro.verify.oracle import dense_aggregate

__all__ = ["InvariantHook", "ALL_CHECKS"]

ALL_CHECKS = ("plan", "shapes", "mass", "error_feedback", "bandit")


class InvariantHook(RoundHook):
    """Check engine invariants every round; see the module docstring."""

    def __init__(self, on_violation: str = "raise",
                 checks=ALL_CHECKS,
                 mass_tolerance_ulps: int = 0,
                 ef_rtol: float = 1e-5,
                 bandit_tolerance: float = 1e-9) -> None:
        if on_violation not in ("raise", "record"):
            raise ValueError(
                f"on_violation must be 'raise' or 'record', "
                f"got {on_violation!r}"
            )
        unknown = set(checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks {sorted(unknown)}; "
                             f"available: {ALL_CHECKS}")
        self.on_violation = on_violation
        self.checks = tuple(checks)
        self.mass_tolerance_ulps = mass_tolerance_ulps
        self.ef_rtol = ef_rtol
        self.bandit_tolerance = bandit_tolerance
        self.violations: List[InvariantViolation] = []
        self.checks_run = 0
        self._engine = None
        self._ef_before: Dict[int, Dict[str, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def attach(self, engine) -> None:
        self._engine = engine

    @property
    def _metrics(self):
        return self._engine.telemetry.metrics

    def _checked(self, check: str) -> None:
        self.checks_run += 1
        self._metrics.counter("invariant_checks_total", check=check).inc()

    def _violated(self, check: str, round_index: int, detail: str) -> None:
        violation = InvariantViolation(check, round_index, detail)
        self._metrics.counter("invariant_violations_total",
                              check=check).inc()
        if self.on_violation == "raise":
            raise violation
        self.violations.append(violation)

    # ------------------------------------------------------------------
    # plan well-formedness
    # ------------------------------------------------------------------
    def _check_index_vector(self, check: str, round_index: int,
                            layer_name: str, axis: str,
                            kept: np.ndarray, full: int) -> bool:
        ok = True
        if kept.ndim != 1 or kept.size == 0:
            self._violated(check, round_index,
                           f"layer {layer_name!r} {axis} index vector is "
                           f"empty or not 1-D (shape {kept.shape})")
            return False
        if kept.size > full:
            self._violated(check, round_index,
                           f"layer {layer_name!r} keeps {kept.size} {axis} "
                           f"units out of {full}")
            ok = False
        if kept.min() < 0 or kept.max() >= full:
            self._violated(check, round_index,
                           f"layer {layer_name!r} {axis} indices out of "
                           f"range [0, {full})")
            ok = False
        if not np.all(np.diff(kept) > 0):
            self._violated(check, round_index,
                           f"layer {layer_name!r} {axis} indices not "
                           f"strictly increasing (sorted & unique)")
            ok = False
        return ok

    def _check_plan(self, round_index: int, plan: PruningPlan) -> None:
        self._checked("plan")
        for layer_name, entry in plan.items():
            out_ok = self._check_index_vector(
                "plan", round_index, layer_name, "output",
                entry.kept_out, entry.out_full,
            )
            if entry.kept_in is not None:
                self._check_index_vector(
                    "plan", round_index, layer_name, "input",
                    entry.kept_in, entry.in_full,
                )
            if not out_ok:
                continue
            expected = keep_count(entry.out_full, plan.ratio)
            if entry.kept_out.size not in (entry.out_full, expected):
                self._violated(
                    "plan", round_index,
                    f"layer {layer_name!r} keeps {entry.kept_out.size} of "
                    f"{entry.out_full} outputs; expected {expected} "
                    f"(keep_count at ratio {plan.ratio}) or all "
                    f"{entry.out_full} (protected layer)",
                )

    # ------------------------------------------------------------------
    # shape conformance
    # ------------------------------------------------------------------
    def _check_shapes(self, round_index: int, plan: PruningPlan,
                      state: Dict[str, np.ndarray], what: str) -> None:
        self._checked("shapes")
        template = self._engine.template
        planned = plan.param_names()
        for key, value in state.items():
            full = template.get(key)
            if full is None:
                self._violated("shapes", round_index,
                               f"{what} carries unknown entry {key!r}")
                continue
            info = planned.get(key)
            if info is None:
                expected = full.shape
            else:
                layer_name, suffix = info
                # gather from a zero-stride broadcast view: yields the
                # exact per-rule sub shape without a full-size allocation
                expected = gather_param(
                    suffix, plan[layer_name],
                    np.broadcast_to(np.float32(0.0), full.shape),
                ).shape
            if value.shape != expected:
                self._violated(
                    "shapes", round_index,
                    f"{what} entry {key!r} has shape {value.shape}, "
                    f"plan implies {expected}",
                )

    # ------------------------------------------------------------------
    # hook callbacks
    # ------------------------------------------------------------------
    def on_dispatch(self, round_index: int, dispatch) -> None:
        if "plan" in self.checks:
            self._check_plan(round_index, dispatch.plan)
        if "shapes" in self.checks:
            self._check_shapes(round_index, dispatch.plan,
                               dispatch.dispatched_state, "dispatched state")
        if "error_feedback" in self.checks:
            self._ef_before[dispatch.worker_id] = self._memory(dispatch.worker_id)

    def on_contribution(self, round_index: int, dispatch,
                        contribution: Contribution,
                        train_loss: float) -> None:
        if "shapes" in self.checks:
            self._check_shapes(round_index, contribution.plan,
                               contribution.sub_state, "uploaded state")
        if "error_feedback" in self.checks:
            self._check_error_feedback(round_index, dispatch, contribution)

    def on_aggregate(self, round_index: int,
                     contributions: List[Contribution]) -> None:
        if "mass" in self.checks:
            self._check_mass(round_index, contributions)

    def on_round_end(self, record) -> None:
        if "bandit" in self.checks:
            self._check_bandit(record.round_index)

    # ------------------------------------------------------------------
    # error-feedback mass accounting
    # ------------------------------------------------------------------
    def _memory(self, worker_id: int) -> Dict[str, np.ndarray]:
        """Banked memory (none before the first compressed upload)."""
        feedback = self._engine.error_feedback.get(worker_id)
        return feedback.memory_snapshot() if feedback is not None else {}

    def _check_error_feedback(self, round_index: int, dispatch,
                              contribution: Contribution) -> None:
        worker_id = dispatch.worker_id
        before = self._ef_before.pop(worker_id, None)
        if before is None:
            return
        self._checked("error_feedback")
        after = self._memory(worker_id)
        keep = self._engine.strategy.upload_keep_fraction(worker_id)
        if keep >= 1.0:
            # no compression ran: the memory must be bitwise untouched
            if set(before) != set(after) or any(
                not np.array_equal(before[key], after[key]) for key in after
            ):
                self._violated(
                    "error_feedback", round_index,
                    f"worker {worker_id} memory changed without "
                    f"compression (keep fraction {keep})",
                )
            return

        plan = contribution.plan
        planned = plan.param_names()
        # the engine records the raw trained state on the dispatch
        # before this hook runs
        trained = dispatch.trained_state
        for key, uploaded in contribution.sub_state.items():
            new_mem = after.get(key)
            if new_mem is None:
                self._violated(
                    "error_feedback", round_index,
                    f"worker {worker_id} has no banked memory for {key!r} "
                    f"after a compressed upload",
                )
                continue
            old_mem = before.get(key)
            info = planned.get(key)
            if info is not None:
                layer_name, suffix = info
                entry = plan[layer_name]
                if old_mem is not None:
                    mask = keep_mask(suffix, entry, new_mem.shape)
                    touched = (new_mem != old_mem) & ~mask
                    if touched.any():
                        self._violated(
                            "error_feedback", round_index,
                            f"worker {worker_id} memory for {key!r} changed "
                            f"at {int(touched.sum())} pruned position(s)",
                        )
                old_gathered = (
                    gather_param(suffix, entry, old_mem)
                    if old_mem is not None else 0.0
                )
                new_gathered = gather_param(suffix, entry, new_mem)
            else:
                old_gathered = old_mem if old_mem is not None else 0.0
                new_gathered = new_mem
            # conservation at dispatched positions: what training produced
            # plus consumed memory == what was transmitted plus re-banked.
            # The deltas are recovered by weight-scale subtractions, so
            # the comparison is absolute at the layer's magnitude (a ULP
            # metric would blow up wherever the sums land near zero).
            lhs = trained[key] + old_gathered
            rhs = uploaded + new_gathered
            scale = max(float(np.abs(trained[key]).max(initial=0.0)),
                        float(np.abs(uploaded).max(initial=0.0)), 1e-12)
            worst = float(np.abs(lhs - rhs).max(initial=0.0)) / scale
            if worst > self.ef_rtol:
                self._violated(
                    "error_feedback", round_index,
                    f"worker {worker_id} dropped mass for {key!r}: "
                    f"trained + consumed memory differs from transmitted "
                    f"+ banked memory by {worst:.3e} of the layer scale "
                    f"(tolerance {self.ef_rtol:.1e})",
                )

    # ------------------------------------------------------------------
    # R2SP mass conservation
    # ------------------------------------------------------------------
    def _check_mass(self, round_index: int,
                    contributions: List[Contribution]) -> None:
        self._checked("mass")
        engine = self._engine
        expected = dense_aggregate(engine.aggregator, contributions,
                                   engine.template)
        actual = engine.global_state
        for key in sorted(actual):
            target = expected[key].astype(actual[key].dtype)
            ulps = ulp_distance(actual[key], target)
            worst = int(ulps.max()) if ulps.size else 0
            if worst > self.mass_tolerance_ulps:
                index = int(np.argmax(ulps.reshape(-1)))
                self._violated(
                    "mass", round_index,
                    f"aggregated state differs from the dense "
                    f"zero-expansion + residual reference at "
                    f"{key}[{index}]: "
                    f"{actual[key].reshape(-1)[index]!r} vs "
                    f"{target.reshape(-1)[index]!r} ({worst} ULPs, "
                    f"tolerance {self.mass_tolerance_ulps})",
                )

    # ------------------------------------------------------------------
    # E-UCB partition / statistics integrity
    # ------------------------------------------------------------------
    def _check_bandit(self, round_index: int) -> None:
        agents = getattr(self._engine.strategy, "agents", None)
        if not agents:
            return
        self._checked("bandit")
        for worker_id, agent in sorted(agents.items()):
            report: Optional[List[str]] = agent.consistency_report(
                self.bandit_tolerance
            )
            for problem in report or ():
                self._violated(
                    "bandit", round_index,
                    f"worker {worker_id} agent: {problem}",
                )
