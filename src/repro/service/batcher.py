"""Shared-sweep batching with per-request bitwise determinism.

Compatible requests (equal :meth:`AnalysisRequest.batch_key` — same
circuit, kernel, rank and flow) are fused into shared STA sweeps: each
round, every live request contributes its next chunk of parameter
samples, the concatenated block runs through the resident engine *once*,
and the rows are split back per request.

Determinism is structural, not statistical.  Each request's samples are
generated from its own seed exactly as a serial
:meth:`MonteCarloSSTA._run_flow` would — the one-shot path passes the
raw seed to a single ``generate()`` call, the chunked path threads one
persistent ``as_generator(seed)`` stream through per-chunk calls — and
the engine's sample axis is bitwise row-independent (the PR-2 blocked
execution guarantee), so the split rows, the per-chunk
:class:`StreamingSTAResult` updates, and therefore every reported
statistic are bitwise identical to the serial run regardless of batch
composition, ordering, or worker count.

Failure containment: a sweep-stage failure (injected or real) fails the
requests in that batch with a typed error and returns — the worker and
its queue keep serving.  Cancelled or slow-consumer streams are detected
at chunk boundaries and dropped from subsequent rounds without touching
their batch peers' sample streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.field.sampling import SampleGenerationResult
from repro.service.faults import FaultInjector
from repro.service.request import (
    AnalysisRequest,
    ChunkResult,
    RequestStatus,
    ServiceResult,
)
from repro.service.stream import ResultStream
from repro.timing.ssta import MonteCarloSSTA, StreamingSTAResult
from repro.timing.sta import STAResult
from repro.utils.rng import SeedLike, as_generator


@dataclass
class ActiveRequest:
    """One admitted request plus its per-sweep runtime state."""

    request: AnalysisRequest
    stream: ResultStream
    seed: SeedLike
    submitted_at: float
    deadline: Optional[float] = None
    wait_seconds: float = 0.0
    # Runtime state, initialized by `_prepare` at batch start.
    chunked: bool = False
    rng: Optional[np.random.Generator] = None
    accumulator: Optional[StreamingSTAResult] = None
    final_sta: Optional[STAResult] = None
    produced: int = 0
    chunk_index: int = 0
    sample_seconds: float = 0.0
    timer_seconds: float = 0.0
    finished: bool = field(default=False)

    def next_rows(self) -> int:
        """Sample rows this request contributes to the next round."""
        remaining = self.request.num_samples - self.produced
        if not self.chunked:
            return remaining
        assert self.request.chunk_size is not None
        return min(self.request.chunk_size, remaining)

    def finish(self, result: ServiceResult) -> None:
        """Publish the terminal result exactly once."""
        if not self.finished:
            self.finished = True
            self.stream.finish(result)


def _prepare(active: ActiveRequest) -> None:
    """Set up the request's seed stream, mirroring the serial flow.

    One-shot requests (``chunk_size`` unset, or ``N <= chunk_size``) pass
    their raw seed to a single ``generate()`` call; chunked requests
    thread one persistent generator through per-chunk calls — exactly
    :meth:`MonteCarloSSTA._run_flow`'s two branches.
    """
    request = active.request
    chunk = request.chunk_size
    active.chunked = chunk is not None and request.num_samples > chunk
    if active.chunked:
        active.rng = as_generator(active.seed)
        active.accumulator = StreamingSTAResult(quantiles=request.quantiles)


def _terminal(
    active: ActiveRequest,
    status: RequestStatus,
    *,
    error: Optional[str] = None,
    batch_size: int = 0,
) -> ServiceResult:
    """Build the terminal :class:`ServiceResult` for ``active``."""
    sta = active.accumulator if active.chunked else active.final_sta
    if status is not RequestStatus.DONE:
        sta = None
    return ServiceResult(
        request_id=active.stream.request_id,
        status=status,
        sta=sta,
        error=error,
        num_samples=active.produced if status is RequestStatus.DONE else 0,
        sample_seconds=active.sample_seconds,
        timer_seconds=active.timer_seconds,
        wait_seconds=active.wait_seconds,
        batch_size=batch_size,
    )


def _generation_round(
    live: List[ActiveRequest],
    harness: MonteCarloSSTA,
    batch_size: int,
) -> List[Tuple[ActiveRequest, int, SampleGenerationResult]]:
    """Generate each live request's next chunk from its own seed stream.

    Samples come in the compact form the serial flow uses
    (``expand=False``).  Cancelled streams are finished and skipped
    *before* their generator would have been advanced, so a disconnect
    never perturbs the request's own (or any peer's) sample stream had
    it survived.
    """
    parts: List[Tuple[ActiveRequest, int, SampleGenerationResult]] = []
    for active in live:
        if active.stream.cancelled:
            active.finish(
                _terminal(
                    active,
                    RequestStatus.CANCELLED,
                    error=active.stream.cancel_reason,
                    batch_size=batch_size,
                )
            )
            continue
        rows = active.next_rows()
        generator = (
            harness.kle_generator
            if active.request.flow == "kle"
            else harness.reference_generator
        )
        seed: SeedLike = active.rng if active.chunked else active.seed
        generated = generator.generate(
            harness.gate_locations, rows, seed=seed, expand=False
        )
        active.sample_seconds += generated.total_seconds
        parts.append((active, rows, generated))
    return parts


def _split_round(
    parts: List[Tuple[ActiveRequest, int, SampleGenerationResult]],
    sta: STAResult,
    sweep_seconds: float,
    batch_size: int,
) -> List[ActiveRequest]:
    """Split a fused sweep's rows back per request and stream them out.

    Returns the requests still live for the next round.
    """
    total_rows = sum(rows for _, rows, _ in parts)
    survivors: List[ActiveRequest] = []
    offset = 0
    for active, rows, _ in parts:
        worst = sta.worst_delay[offset : offset + rows]
        ends = {
            net: values[offset : offset + rows]
            for net, values in sta.end_arrivals.items()
        }
        offset += rows
        active.timer_seconds += sweep_seconds * (rows / max(total_rows, 1))
        chunk_sta = STAResult(
            end_arrivals=ends, worst_delay=worst, num_samples=rows
        )
        if active.chunked:
            assert active.accumulator is not None
            active.accumulator.update(chunk_sta)
        else:
            active.final_sta = chunk_sta
        chunk = ChunkResult(
            request_id=active.stream.request_id,
            index=active.chunk_index,
            start=active.produced,
            num_samples=rows,
            worst_delay=worst,
            end_arrivals=ends if active.request.include_samples else None,
        )
        active.chunk_index += 1
        active.produced += rows
        if not active.stream.offer(chunk):
            active.finish(
                _terminal(
                    active,
                    RequestStatus.CANCELLED,
                    error=active.stream.cancel_reason,
                    batch_size=batch_size,
                )
            )
            continue
        if active.produced >= active.request.num_samples:
            active.finish(
                _terminal(active, RequestStatus.DONE, batch_size=batch_size)
            )
        else:
            survivors.append(active)
    return survivors


def fail_batch(batch: List[ActiveRequest], error: str) -> None:
    """Fail every unfinished request in ``batch`` with ``error``.

    Used by the worker when artifact resolution or the sweep stage dies:
    the affected requests get a terminal FAILED result, the queue keeps
    serving everything else.
    """
    for active in batch:
        active.finish(
            _terminal(
                active,
                RequestStatus.FAILED,
                error=error,
                batch_size=len(batch),
            )
        )


def execute_batch(
    batch: List[ActiveRequest],
    harness: MonteCarloSSTA,
    faults: FaultInjector,
) -> None:
    """Run one admitted batch to completion over shared STA sweeps.

    Every request in ``batch`` shares the harness (equal batch keys);
    rounds continue until each request is DONE, CANCELLED, TIMED_OUT or
    FAILED.  All terminal outcomes are published on the per-request
    streams — this function never raises on a per-batch failure.
    """
    batch_size = len(batch)
    live: List[ActiveRequest] = []
    for active in batch:
        _prepare(active)
        if (
            active.deadline is not None
            and time.monotonic() > active.deadline
        ):
            active.finish(
                _terminal(
                    active,
                    RequestStatus.TIMED_OUT,
                    error="deadline expired before processing",
                    batch_size=batch_size,
                )
            )
            continue
        live.append(active)

    while live:
        parts = _generation_round(live, harness, batch_size)
        if not parts:
            return
        # Every part comes from the same generator (equal batch keys), so
        # the parts share one gate→column map per parameter and their
        # compact values stack row-wise.
        names = list(parts[0][2].samples)
        combined = {
            name: np.concatenate(
                [generated.samples[name] for _, _, generated in parts]
            )
            for name in names
        }
        start = time.perf_counter()
        try:
            faults.fire("sweep")
            sta = harness.engine.run(combined, columns=parts[0][2].columns)
        except Exception as exc:  # repro-lint: disable=REPRO-EXC001
            # Containment boundary: a failed sweep fails this batch's
            # requests with a typed terminal result and returns; the
            # worker loop (and every other queued request) keeps going.
            fail_batch(
                [active for active, _, _ in parts],
                f"sweep failed: {exc!r}",
            )
            return
        sweep_seconds = time.perf_counter() - start
        live = _split_round(parts, sta, sweep_seconds, batch_size)
