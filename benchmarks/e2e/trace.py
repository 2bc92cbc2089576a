"""Tracing from outside the program: spans, a tracing engine, a timing view.

Everything here subclasses or wraps a public seam — ``CooperativeEngine``
and the ``SpectrumView`` protocol — so ``src/`` stays untouched and an
untraced run executes none of this code.  Spans are kept in memory and
written out (JSONL) only after the run.

Span model.  A span is ``(name, layer, rank, start, end, parent,
request)``; ``request`` is the iteration, or inside a service fleet the
ordinal of the command in flight.  A span's *self time* is its duration
minus the part its children cover, so over a tree whose siblings do not
overlap the self times sum to the root's duration.  The cooperative
engine runs one rank at a time, which is what lets per-rank *busy
segments* (the stretches between two blocking calls) be such siblings:
the engine span's self time is then exactly the time no rank was
running — scheduler hand-offs and mailbox polls (``simmpi.sched_s``).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro.simmpi import wire
from repro.simmpi.engine import CooperativeEngine
from repro.simmpi.message import Tags

SPAN_FIELDS = ("name", "layer", "rank", "start", "end", "parent", "request")
_START, _END, _PARENT = 3, 4, 5


class SpanRecorder:
    """Append-only in-memory span store (safe across rank threads)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()

    def open(self, name: str, layer: str, *, rank: int = -1,
             parent: int | None = None, request: Any = None,
             start: float | None = None) -> int:
        """Start a span; returns its index (the handle children name)."""
        if start is None:
            start = time.perf_counter()
        with self._lock:
            self.spans.append([name, layer, rank, start, None, parent, request])
            return len(self.spans) - 1

    def close(self, index: int, end: float | None = None) -> None:
        self.spans[index][_END] = time.perf_counter() if end is None else end

    def add(self, name: str, layer: str, start: float, end: float,
            **where: Any) -> int:
        """Record an already-finished span."""
        index = self.open(name, layer, start=start, **where)
        self.spans[index][_END] = end
        return index

    @contextmanager
    def span(self, name: str, layer: str, **where: Any) -> Iterator[int]:
        index = self.open(name, layer, **where)
        try:
            yield index
        finally:
            self.close(index)

    # ------------------------------------------------------------------
    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span[_END] - span[_START]

    def seconds(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in recording order."""
        return [s[_END] - s[_START] for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        """Self time of every span (duration minus child coverage)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[_PARENT] is not None:
                children[span[_PARENT]].append((span[_START], span[_END]))
        out = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span[_START]
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, cursor), min(end, span[_END])
                if end > start:
                    covered += end - start
                    cursor = end
            out.append(span[_END] - span[_START] - covered)
        return out

    def self_time_by_layer(self, root: int) -> dict[str, float]:
        """Self time per layer over ``root`` and everything under it.

        The values sum to ``duration(root)`` unless sibling spans overlap
        in time — which is what the traced run checks."""
        inside = {root}
        for index, span in enumerate(self.spans):  # parents precede children
            if span[_PARENT] in inside:
                inside.add(index)
        selfs = self.self_times()
        totals: dict[str, float] = defaultdict(float)
        for index in inside:
            totals[self.spans[index][1]] += selfs[index]
        return dict(totals)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                row = dict(zip(SPAN_FIELDS, span), id=index)
                fh.write(json.dumps(row) + "\n")


class TracingEngine(CooperativeEngine):
    """The cooperative engine, observed: same schedule, spans on the side.

    Overrides only ``run`` / ``deposit`` / ``wait_message`` / ``probe``
    and delegates each to the parent, so the deterministic interleaving
    (hence every frame and every corrected base) is the untraced one.
    A rank is *busy* from the moment a blocking call returns to the
    moment it enters the next; on a service fleet rank 0's busy time
    also contains its blocking wait on the command channel, which no
    engine call brackets.

    ``request_tag``: a frame under this tag from rank 0 to rank 1 opens
    a new request span (the service's command relay), which becomes the
    parent of every busy segment until the next one.
    """

    def __init__(self, recorder: SpanRecorder, *, parent: int | None = None,
                 request: Any = None, request_tag: int | None = None,
                 capture_frames: bool = False) -> None:
        self.recorder = recorder
        self.parent = parent
        self.request = request
        self.request_tag = request_tag
        self.frames: list[bytes] | None = [] if capture_frames else None
        self.run_span: int | None = None
        self.counts = {
            "frames": 0, "frame_bytes": 0,
            "p2p_frames": 0, "p2p_bytes": 0,
            "collective_frames": 0, "collective_bytes": 0,
        }
        self.deposit_s = 0.0

    # -- busy segments --------------------------------------------------
    def _resume(self, rank: int, now: float) -> None:
        self._since[rank] = now
        self._segment[rank] = self.recorder.open(
            "rank.busy", "parallel", rank=rank, parent=self._scope,
            request=self._request, start=now,
        )

    def _suspend(self, rank: int, now: float) -> None:
        self.busy[rank] += now - self._since[rank]
        self.recorder.close(self._segment[rank], now)

    def _next_request(self, now: float) -> None:
        """Rank 0 relays a command: cut its segment at the boundary."""
        self._suspend(0, now)
        if self._scope != self.run_span:
            self.recorder.close(self._scope, now)
        self._request += 1
        # The request span's own self time is the time inside the request
        # when no rank ran, i.e. the engine's: hence its layer.
        self._scope = self.recorder.open(
            "simmpi.request", "simmpi", parent=self.run_span,
            request=self._request, start=now,
        )
        self._resume(0, now)

    # -- Engine interface -----------------------------------------------
    def run(self, fn, world, make_comm):
        n = world.nranks
        self._segment: list[int] = [-1] * n
        self._since = [0.0] * n
        #: Seconds each rank spent running (the sum of its busy segments).
        self.busy = [0.0] * n
        self._request = 0 if self.request_tag is not None else self.request
        self.wait_s = [0.0] * n
        self.wait_calls = [0] * n
        self.probe_s = [0.0] * n
        self.probe_calls = [0] * n
        self.run_span = self._scope = self.recorder.open(
            "simmpi.run", "simmpi", parent=self.parent, request=self.request
        )

        def traced(comm):
            self._resume(comm.rank, time.perf_counter())
            try:
                return fn(comm)
            finally:
                self._suspend(comm.rank, time.perf_counter())

        try:
            return super().run(traced, world, make_comm)
        finally:
            now = time.perf_counter()
            if self._scope != self.run_span:
                self.recorder.close(self._scope, now)
            self.recorder.close(self.run_span, now)

    def deposit(self, world, rank, dest, frame):
        start = time.perf_counter()
        source, tag = wire.frame_header(frame)
        if tag == self.request_tag and rank == 0 and dest == 1:
            self._next_request(start)
        try:
            super().deposit(world, rank, dest, frame)
        finally:
            end = time.perf_counter()
            self.recorder.add(
                "simmpi.deposit", "simmpi", start, end, rank=rank,
                parent=self._segment[rank], request=self._request,
            )
            self.deposit_s += end - start
            kind = "collective" if tag >= Tags.COLLECTIVE_BASE else "p2p"
            counts = self.counts
            counts["frames"] += 1
            counts["frame_bytes"] += len(frame)
            counts[f"{kind}_frames"] += 1
            counts[f"{kind}_bytes"] += len(frame)
            if self.frames is not None:
                self.frames.append(frame)

    def wait_message(self, world, rank, source, tag):
        start = time.perf_counter()
        self._suspend(rank, start)
        try:
            return super().wait_message(world, rank, source, tag)
        finally:
            end = time.perf_counter()
            self.wait_s[rank] += end - start
            self.wait_calls[rank] += 1
            self._resume(rank, end)

    def probe(self, world, rank, source, tag):
        start = time.perf_counter()
        self._suspend(rank, start)
        try:
            return super().probe(world, rank, source, tag)
        finally:
            end = time.perf_counter()
            self.probe_s[rank] += end - start
            self.probe_calls[rank] += 1
            self._resume(rank, end)

    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """The ``simmpi.*`` span metrics of the finished run."""
        busy = self.busy
        wall = self.recorder.duration(self.run_span)
        out: dict[str, float] = {
            f"simmpi.{name}": value for name, value in self.counts.items()
        }
        out.update({
            "simmpi.deposit_s": self.deposit_s,
            "simmpi.wait_s": sum(self.wait_s),
            "simmpi.wait_calls": sum(self.wait_calls),
            "simmpi.probe_s": sum(self.probe_s),
            "simmpi.probe_calls": sum(self.probe_calls),
            "simmpi.rank_busy_max_s": max(busy),
            "simmpi.rank_busy_mean_s": sum(busy) / len(busy),
            "simmpi.sched_s": wall - sum(busy),
        })
        return out


class TimedView:
    """A ``SpectrumView`` wrapper that times every lookup from outside.

    With ``record`` it also keeps the id stream, which the hashing
    probe replays through ``CountHash.lookup`` in isolation.
    """

    def __init__(self, inner, recorder: SpanRecorder | None = None, *,
                 parent: int | None = None, request: Any = None,
                 record: bool = False) -> None:
        self.inner = inner
        self.recorder = recorder
        self.parent = parent
        self.request = request
        self.seconds = 0.0
        self.calls = 0
        self.ids = 0
        self.stream: list[tuple[str, np.ndarray]] | None = (
            [] if record else None
        )

    def _lookup(self, kind: str, ids: np.ndarray) -> np.ndarray:
        start = time.perf_counter()
        counts = getattr(self.inner, f"{kind}_counts")(ids)
        end = time.perf_counter()
        self.seconds += end - start
        self.calls += 1
        self.ids += int(np.asarray(ids).size)
        if self.recorder is not None:
            self.recorder.add(
                f"core.view.{kind}_counts", "core", start, end,
                parent=self.parent, request=self.request,
            )
        if self.stream is not None:
            self.stream.append((kind, np.array(ids, dtype=np.uint64)))
        return counts

    def kmer_counts(self, ids: np.ndarray) -> np.ndarray:
        return self._lookup("kmer", ids)

    def tile_counts(self, ids: np.ndarray) -> np.ndarray:
        return self._lookup("tile", ids)


def assert_ledger_parity(untraced: dict, traced: dict) -> None:
    """Tracing may not perturb the run: same frames, bytes and bases."""
    for key in untraced:
        if untraced[key] != traced[key]:
            raise AssertionError(
                f"traced iteration diverged from the untraced one on "
                f"{key}: {traced[key]!r} != {untraced[key]!r}"
            )
