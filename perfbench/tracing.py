"""Outside-in tracing: timing wrappers around each layer's entry points.

Nothing under ``src/`` is instrumented.  :class:`Tracer` replaces public
functions and methods of the program's layers with wrappers that record
a span per call, and puts the originals back on :meth:`Tracer.restore`.
Spans nest per thread, so each layer's *self* time excludes the spans of
the layers it calls: the serial fallback (``mux.fallback``) excludes the
``EpisodeDriver`` phases it runs, and ``episode.setup`` excludes the
scene build it triggers.

Only spans of this process are seen.  Queue workers are forked children,
so their spans are lost; on the queue workload the per-layer numbers are
the coordinator's and the in-process broker server's only.

Not measured: ``repro.core.service`` (a thin HTTP layer over the same
broker), ``sink`` (needs pyarrow), ``artifacts``, ``chaos``, and the
post-run ``analysis``/``metrics``/``reporting`` modules.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from collections import defaultdict

__all__ = ["TARGETS", "Tracer", "percentile"]

#: ``(module[:class], attribute, span)`` -- every call into ``attribute``
#: becomes one span of that name.  Module-level names are patched in the
#: module that *calls* them (``multiplex.attempt_task`` is the serial
#: fallback only; the serial executor calls ``runner.attempt_task``).
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.campaign:EpisodeDriver", "setup", "episode.setup"),
    ("repro.core.campaign:EpisodeDriver", "start", "episode.setup"),
    ("repro.core.campaign:EpisodeDriver", "step_client", "agent"),
    ("repro.core.campaign:EpisodeDriver", "step_world", "world"),
    ("repro.core.campaign:EpisodeDriver", "sense", "sense"),
    ("repro.core.campaign:EpisodeDriver", "complete_frame", "harness"),
    ("repro.core.campaign:EpisodeDriver", "finalize", "harness"),
    ("repro.core.campaign:EpisodeDriver", "close", "harness"),
    ("repro.core.multiplex", "read_frames_batch", "sense"),
    ("repro.core.multiplex", "attempt_task", "mux.fallback"),
    ("repro.sim.builders:SceneCache", "town", "scene"),
    ("repro.sim.builders:SceneCache", "renderer", "scene"),
    ("repro.core.runner", "append_jsonl_line", "checkpoint"),
    ("repro.core.queue", "append_jsonl_line", "checkpoint"),
    ("repro.core.netqueue:BrokerServer", "dispatch", "broker"),
)

#: Spans whose per-call duration is kept for percentiles.
_SAMPLED = {"agent", "world", "sense", "checkpoint"}


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile of ``values`` (nearest rank); 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Per-span call counts, inclusive and self times, and samples."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Self time of spans on the main thread, all layers together.
        self.main_self_s = 0.0
        #: Per-call milliseconds (sense: per frame of a batch).
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Episodes per ``read_frames_batch`` call.
        self.batches: list[int] = []
        #: ``claim``/``read_results`` requests, and those answered empty.
        self.broker_polls = 0
        self.broker_empty = 0
        #: ``perf_counter()`` of the first successful claim.
        self.first_claim_at: float | None = None

    # -- install / restore ---------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every target (once; :meth:`restore` undoes it)."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for path, attr, span in self.targets:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original))
        return self

    def restore(self) -> None:
        """Put every original attribute back, in reverse install order."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- spans ----------------------------------------------------------
    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, span: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
            tracer._record(span, duration, duration - children[0], args, result)
            return result

        return wrapper

    def _record(self, span: str, duration: float, self_time: float, args, result) -> None:
        main = threading.current_thread() is threading.main_thread()
        with self._lock:
            self.calls[span] += 1
            self.total_s[span] += duration
            self.self_s[span] += self_time
            if main:
                self.main_self_s += self_time
            if span == "sense" and isinstance(result, list):
                # read_frames_batch: one sample per frame of the batch.
                n = len(result)
                self.batches.append(n)
                self.samples[span].extend([duration * 1e3 / n] * n)
            elif span in _SAMPLED:
                self.samples[span].append(duration * 1e3)
            if span == "broker":
                self._broker_reply(args[1], result)

    def _broker_reply(self, frame: dict, result) -> None:
        op = frame.get("op") if isinstance(frame, dict) else None
        if op == "claim":
            self.broker_polls += 1
            if result is None:
                self.broker_empty += 1
            elif self.first_claim_at is None:
                self.first_claim_at = time.perf_counter()
        elif op == "read_results":
            self.broker_polls += 1
            if not result.get("rows"):
                self.broker_empty += 1
