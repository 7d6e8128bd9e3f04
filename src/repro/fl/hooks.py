"""Round hooks: the engine's instrumentation layer.

A :class:`RoundHook` receives callbacks at the four observable points
of every round -- sub-model dispatch, contribution arrival, global
aggregation, and round close -- regardless of which scheduler drives
the round.  Hooks replace reaching into runner internals: the CLI and
the benchmarks attach the built-in :class:`TimingHook` and
:class:`CommVolumeHook` and read the per-round numbers they publish
into :attr:`repro.fl.history.RoundRecord.extras`.

Hooks must not mutate models, contributions or the clock; the engine
treats them as pure observers (``on_round_end`` may add ``extras``
entries to the record it receives, which is the supported way to
publish per-round measurements).  The one sanctioned exception is
``before_aggregate``: a hook may return a rewritten contribution list
there, which is how the verification subsystem's fault injector
(:mod:`repro.verify.faults`) drops, duplicates or delays updates.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

from repro.fl.aggregation import Contribution
from repro.fl.history import RoundRecord


class RoundHook:
    """No-op base class; subclasses override the callbacks they need.

    ``dispatch`` arguments are :class:`repro.fl.engine.Dispatch`
    instances (duck-typed here to avoid an import cycle).
    """

    def attach(self, engine) -> None:
        """Called once when the engine composes its hook list.

        ``engine`` is the :class:`repro.fl.engine.Engine` driving the
        run; hooks that need run-wide context (the strategy for bandit
        snapshots, the worker pool) keep a reference here.  Stateless
        hooks ignore it.
        """

    def on_dispatch(self, round_index: int, dispatch) -> None:
        """A sub-model was pruned, priced and sent to a worker."""

    def on_contribution(self, round_index: int, dispatch,
                        contribution: Contribution,
                        train_loss: float) -> None:
        """A worker finished local training and uploaded its update."""

    def before_aggregate(self, round_index: int,
                         contributions: List[Contribution],
                         ) -> Optional[List[Contribution]]:
        """The round's contributions are about to be aggregated.

        Returning a list replaces the round's contribution set (the
        fault-injection interception point); returning ``None`` leaves
        it untouched, which is what every pure observer should do.
        """
        return None

    def on_aggregate(self, round_index: int,
                     contributions: List[Contribution]) -> None:
        """The PS aggregated the round's contributions into the model."""

    def on_round_end(self, record: RoundRecord) -> None:
        """The round's record is complete; ``record.extras`` is open."""

    def checkpoint_state(self) -> Optional[dict]:
        """Picklable cross-round state for checkpoint/resume.

        Return ``None`` (the default) for stateless hooks.  Stateful
        hooks whose accumulators feed ``record.extras`` in later rounds
        must return them here and apply them in :meth:`restore_state`,
        otherwise a resumed run's extras diverge from the uninterrupted
        run's.
        """
        return None

    def restore_state(self, state: dict) -> None:
        """Apply a :meth:`checkpoint_state` snapshot (default: no-op)."""


class HookList(RoundHook):
    """Composite hook: forwards every callback to its children in order."""

    def __init__(self, hooks: Optional[Iterable[RoundHook]] = None) -> None:
        self.hooks: List[RoundHook] = list(hooks or [])

    def attach(self, engine) -> None:
        # tolerate structurally-typed hooks that predate attach()
        for hook in self.hooks:
            attach = getattr(hook, "attach", None)
            if attach is not None:
                attach(engine)

    def on_dispatch(self, round_index: int, dispatch) -> None:
        for hook in self.hooks:
            hook.on_dispatch(round_index, dispatch)

    def on_contribution(self, round_index: int, dispatch,
                        contribution: Contribution,
                        train_loss: float) -> None:
        for hook in self.hooks:
            hook.on_contribution(round_index, dispatch, contribution,
                                 train_loss)

    def before_aggregate(self, round_index: int,
                         contributions: List[Contribution],
                         ) -> List[Contribution]:
        for hook in self.hooks:
            interceptor = getattr(hook, "before_aggregate", None)
            if interceptor is None:
                continue
            replaced = interceptor(round_index, contributions)
            if replaced is not None:
                contributions = replaced
        return contributions

    def on_aggregate(self, round_index: int,
                     contributions: List[Contribution]) -> None:
        for hook in self.hooks:
            hook.on_aggregate(round_index, contributions)

    def on_round_end(self, record: RoundRecord) -> None:
        for hook in self.hooks:
            hook.on_round_end(record)


class TimingHook(RoundHook):
    """Wall-clock (host) time per round, published as
    ``extras["wall_time_s"]``.

    Simulated time already lives in ``RoundRecord.round_time_s``; this
    hook measures how long the *host* spent producing the round
    (decision, pruning, local training, aggregation), which is what the
    overhead benchmarks report.

    Attribution is **disjoint**: round ``k`` is charged the interval
    from the previous round's end (the hook's first observed dispatch
    for the opening round) to round ``k``'s own end.  Under async or
    semi-sync scheduling, work performed before round ``k`` closes --
    including dispatches already labelled ``k+1`` -- is therefore
    charged to round ``k`` and never again to ``k+1``, so
    ``total_wall_time_s`` always equals the sum of the per-round
    extras.  (Keying starts by dispatch round label instead would
    double-charge the span between a carried-over round's early
    re-dispatches and its end.)
    """

    def __init__(self) -> None:
        self._origin: Optional[float] = None
        self._last_end: Optional[float] = None
        self.total_wall_time_s = 0.0

    def on_dispatch(self, round_index: int, dispatch) -> None:
        if self._origin is None:
            self._origin = time.perf_counter()

    def on_round_end(self, record: RoundRecord) -> None:
        end = time.perf_counter()
        if self._last_end is not None:
            start = self._last_end
        elif self._origin is not None:
            start = self._origin
        else:
            start = end
        wall = max(0.0, end - start)
        record.extras["wall_time_s"] = wall
        self.total_wall_time_s += wall
        self._last_end = end

    def checkpoint_state(self) -> dict:
        # _origin/_last_end are perf_counter readings -- meaningless in
        # another process -- so only the accumulated total survives; the
        # resumed process restarts its own disjoint intervals.
        return {"total_wall_time_s": self.total_wall_time_s}

    def restore_state(self, state: dict) -> None:
        self.total_wall_time_s = float(state["total_wall_time_s"])
        self._origin = None
        self._last_end = None


class CommVolumeHook(RoundHook):
    """Communication volume per round, in transmitted parameters.

    Publishes ``extras["download_params"]`` (PS -> workers, counted at
    dispatch) and ``extras["upload_params"]`` (workers -> PS, counted
    at contribution arrival).  With asynchronous or semi-synchronous
    scheduling a dispatch is counted in the round that *sends* it while
    its upload lands in the round that aggregates it, so per-round
    numbers need not match pairwise; the running totals always do.
    """

    def __init__(self) -> None:
        self._download: Dict[int, float] = {}
        self._upload: Dict[int, float] = {}
        self.total_download_params = 0.0
        self.total_upload_params = 0.0

    def on_dispatch(self, round_index: int, dispatch) -> None:
        volume = float(dispatch.download_params)
        self._download[round_index] = self._download.get(round_index, 0.0) \
            + volume
        self.total_download_params += volume

    def on_contribution(self, round_index: int, dispatch,
                        contribution: Contribution,
                        train_loss: float) -> None:
        volume = float(dispatch.upload_params)
        self._upload[round_index] = self._upload.get(round_index, 0.0) \
            + volume
        self.total_upload_params += volume

    def on_round_end(self, record: RoundRecord) -> None:
        record.extras["download_params"] = self._download.pop(
            record.round_index, 0.0
        )
        record.extras["upload_params"] = self._upload.pop(
            record.round_index, 0.0
        )

    def checkpoint_state(self) -> dict:
        # the pending dicts are load-bearing for resume byte-identity:
        # async/semi-sync label re-dispatch volume with round k+1 while
        # round k is closing, so a resumed run must inherit them to
        # reproduce round k+1's extras exactly
        return {
            "download": dict(self._download),
            "upload": dict(self._upload),
            "total_download_params": self.total_download_params,
            "total_upload_params": self.total_upload_params,
        }

    def restore_state(self, state: dict) -> None:
        self._download = {int(k): float(v)
                          for k, v in state["download"].items()}
        self._upload = {int(k): float(v)
                        for k, v in state["upload"].items()}
        self.total_download_params = float(state["total_download_params"])
        self.total_upload_params = float(state["total_upload_params"])

    @property
    def total_params(self) -> float:
        return self.total_download_params + self.total_upload_params
