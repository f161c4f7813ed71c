"""Persistent shared-memory parallel synthesis engine.

The paper generates millions of plausibly-deniable synthetics by running many
tool instances in parallel (Section 5, Figure 5).  :class:`SynthesisEngine`
runs every until-N release — the pipeline, the CLI, the experiments and the
service all go through it — and is a long-lived execution layer:

* **Shared memory instead of per-task pickling.**  The seed matrix and the
  Bayesian network's conditional tables live in
  ``multiprocessing.shared_memory`` segments created once per engine; workers
  attach zero-copy read-only views at startup.  Only a small skeleton spec
  (schema, structure, array offsets) is pickled, once, when the pool starts.

* **Dynamic until-N dispatch.**  Work is claimed as fixed-size chunks from a
  shared counter, so fast workers steal load instead of idling behind a
  static split.  In until-N-released mode a shared released counter stops
  workers within about one chunk of the target instead of burning a static
  attempt budget, and no chunk computes past the lane's target itself.

* **Counter-addressed attempts.**  Every draw of attempt i is a function of
  (base seed, i, slot) (:mod:`repro.core.stream`), and chunk c of a lane is
  attempts ``[c * chunk_size, (c + 1) * chunk_size)``.  A chunk's content
  therefore depends only on its attempt range — never on the worker that ran
  it, the batch size, or scheduling order — and an until-N release is the
  first N passing attempt indices with the attempts before them.  The merged
  report is the in-order concatenation of the chunk reports truncated at the
  Nth release, so every worker count, batch size and chunk size releases the
  *identical* rows with the identical accounting.  Chunks a speculating
  worker completes beyond that point are discarded without being recorded.

* **Request folding.**  :meth:`SynthesisEngine.generate_folded` fuses many
  until-N requests into ONE pool job: each request becomes a *lane* with its
  own stream, attempt budget and release target, and the lanes' chunks are
  dispatched one lane after the other from one shared counter.  Because a
  chunk's content is a pure function of (lane seed, attempt range), every
  lane's merged report is bit-identical to running that request alone —
  folding changes only *when* chunks run, never what they contain.  The
  serving layer uses this to turn K queued requests for one model into one
  fused scan instead of K convoyed runs.

* **Streaming reports and checkpoints.**  Chunk reports arrive incrementally
  (``progress`` callback) and can be checkpointed to a
  :class:`~repro.core.run_store.RunStore`, so a crashed or repeated run
  resumes from its completed chunks instead of regenerating them.  Chunks
  travel and are stored as report columns (``to_arrays``), which the parent
  adopts without copying; malformed stored columns fail the resume loudly.

* **Worker supervision with deterministic chunk retry.**  Each worker
  records the chunk it is executing in a crash-proof shared in-flight table
  before touching it.  When the parent's collection loop notices a dead
  process (exitcode watch), it respawns a replacement against the *existing*
  shared-memory segments, re-dispatches the current job to it, and queues
  the lost chunk for re-execution — which is bit-identical to the lost run
  because a chunk's content is a pure function of its index.  Retries are
  bounded by ``max_chunk_retries``; past the bound the job fails with
  :class:`ChunkRetryExhaustedError` while the pool (already repaired) stays
  usable.  An unrepairable pool — a worker lost during startup, or a respawn
  that itself fails — marks the engine broken and every subsequent call
  raises :class:`EngineBrokenError` instead of hanging on corrupted queues.
  :meth:`SynthesisEngine.pool_health` exposes the restart and per-chunk
  retry counters next to :meth:`SynthesisEngine.workload_fingerprint`.

The in-process engine (``num_workers=1``, no subprocesses or shared memory)
runs the same chunks as the pool and is its equivalence oracle.  It differs
only in where an until-N chunk stops computing: at the lane's remaining
target in-process, at the lane's whole target on a worker (which cannot see
the other chunks).  The merged reports are identical.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from queue import Empty
from typing import Callable, Sequence

import numpy as np

from repro.core.mechanism import SynthesisMechanism
from repro.core.results import SynthesisReport
from repro.obs.profile import phase as obs_phase
from repro.core.run_store import RunStore, RunStoreCorruptionError, dataset_fingerprint
from repro.core.stream import STREAM_VERSION, AttemptStream, attempt_stream
from repro.datasets.dataset import Dataset
from repro.datasets.schema import Schema
from repro.generative.bayesian_network import BayesianNetworkSynthesizer
from repro.generative.parameters import ConditionalParameters
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams

__all__ = [
    "ChunkProgress",
    "ChunkRetryExhaustedError",
    "EngineBrokenError",
    "FoldSpec",
    "MAX_FOLD_LANES",
    "SynthesisEngine",
]

#: Upper bound on requests fused into one :meth:`SynthesisEngine.generate_folded`
#: job.  The per-lane released counters live in one fixed-size shared array
#: allocated at pool startup, so the bound must be known before any job runs.
MAX_FOLD_LANES = 64


class EngineBrokenError(RuntimeError):
    """The worker pool is unrecoverable; the engine refuses further work.

    Raised when a worker dies during pool startup or a supervised respawn
    itself fails.  The broken flag is sticky: every subsequent run call fails
    fast with this error instead of hanging on inconsistent queues.  Build a
    fresh engine to continue.
    """


class ChunkRetryExhaustedError(RuntimeError):
    """A chunk's crash-retry budget (``max_chunk_retries``) ran out.

    The failing *job* is abandoned cleanly, but the pool has already been
    repaired — dead workers respawned, or fully rebuilt when the crash
    wedged the shared queues — so the engine itself remains usable for
    subsequent runs.
    """

    def __init__(self, message: str, chunk_indices: tuple[int, ...] = ()):
        super().__init__(message)
        self.chunk_indices = chunk_indices


class _PoolStuckError(RuntimeError):
    """The pool is live but silent: no messages, no deaths, nothing in flight.

    A SIGKILL can land while the dying worker's queue feeder thread holds the
    shared results queue's write lock; every surviving worker's messages then
    wedge behind a lock no process will ever release.  The workers are alive,
    so supervision sees nothing to respawn — the only recovery is rebuilding
    the pool on fresh queues and resuming the job from the chunks already
    received (chunk content is a pure function of the chunk index, so the
    resumed run is bit-identical).

    ``exhausted`` carries any chunks whose crash-retry budget ran out before
    the wedge: that verdict must survive the rebuild — resuming would rerun
    the job with a fresh retry budget and silently forgive the crashes.
    """

    def __init__(self, message: str, exhausted: tuple[int, ...] = ()):
        super().__init__(message)
        self.exhausted = exhausted


@dataclass(frozen=True)
class ChunkProgress:
    """One incremental progress event: a chunk report arrived at the parent.

    ``lane_index`` identifies which fold lane (request) owns the chunk —
    always 0 for unfolded single-request jobs — so the serving layer can
    attribute per-chunk telemetry spans to the right request.
    """

    chunk_index: int
    chunk_attempts: int
    chunk_released: int
    total_attempts: int
    total_released: int
    from_checkpoint: bool = False
    lane_index: int = 0


# --------------------------------------------------------------------------- #
# Shared-memory packing
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ArraySpec:
    """Location of one array inside a shared-memory segment."""

    offset: int
    shape: tuple[int, ...]
    dtype: str


def _pack_arrays(arrays: Sequence[np.ndarray]) -> tuple[SharedMemory, list[_ArraySpec]]:
    """Copy arrays into one freshly created shared-memory segment."""
    contiguous = [np.ascontiguousarray(array) for array in arrays]
    specs: list[_ArraySpec] = []
    offset = 0
    for array in contiguous:
        offset = (offset + 63) & ~63  # 64-byte alignment for clean vector loads
        specs.append(_ArraySpec(offset, array.shape, array.dtype.str))
        offset += array.nbytes
    segment = SharedMemory(create=True, size=max(offset, 1))
    for array, spec in zip(contiguous, specs):
        view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf, offset=spec.offset)
        view[...] = array
    return segment, specs


def _attach_segment(name: str) -> SharedMemory:
    """Attach an existing segment without adopting its lifetime.

    On POSIX Pythons before 3.13 *attaching* also registers the segment with
    the resource tracker.  Spawned workers share the parent's tracker
    process, whose cache is a per-name set, so the duplicate registration is
    a no-op and the parent's ``unlink()`` unregisters exactly once; an
    explicit worker-side unregister would instead delete the parent's entry
    and make the final unlink double-unregister.  (If the parent dies
    without cleanup, the shared tracker unlinks the leaked segment — which
    is the behaviour we want.)
    """
    return SharedMemory(name=name)


def _attach_array(segment: SharedMemory, spec: _ArraySpec) -> np.ndarray:
    view = np.ndarray(
        spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf, offset=spec.offset
    )
    view.flags.writeable = False
    return view


# --------------------------------------------------------------------------- #
# Worker-side state
# --------------------------------------------------------------------------- #
@dataclass
class _WorkerSpec:
    """Everything a worker needs to rebuild its mechanism, pickled once.

    The Bayesian network's conditional tables live in shared memory; only
    their locations and the network skeleton travel in the spec.
    """

    schema_attributes: tuple
    params: PlausibleDeniabilityParams
    seed_segment: str
    seed_spec: _ArraySpec
    table_segment: str
    structure: object
    omegas: tuple[int, ...]
    tables_meta: list[tuple[int, tuple[int, ...], tuple[int, ...], _ArraySpec, _ArraySpec, _ArraySpec]]


@dataclass(frozen=True)
class FoldSpec:
    """One request of a folded :meth:`SynthesisEngine.generate_folded` call.

    Mirrors the corresponding :meth:`SynthesisEngine.generate` arguments.
    The folded run's report for this spec is bit-identical to the standalone
    ``generate(num_released, base_seed=..., max_attempts=...)`` call, because
    each spec becomes its own *lane* with its own attempt stream.
    """

    num_released: int
    base_seed: int = 0
    max_attempts: int | None = None


@dataclass(frozen=True)
class _Lane:
    """One request's share of a (possibly fused) job.

    A lane owns a standalone attempt budget, attempt stream and release
    target; its chunk ``c`` is attempts ``[c * chunk_size, (c + 1) *
    chunk_size)`` of its stream, exactly as in an unfolded run of the same
    request, so a lane's output never depends on which other lanes shared
    the job.
    """

    limit: int
    base_seed: int
    target_released: int | None
    stream: AttemptStream = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stream", attempt_stream(self.base_seed))

    def num_chunks(self, chunk_size: int) -> int:
        return -(-self.limit // chunk_size) if self.limit > 0 else 0

    def chunk_attempts(self, local_index: int, chunk_size: int) -> int:
        return min(chunk_size, self.limit - local_index * chunk_size)


@dataclass(frozen=True)
class _Job:
    """One dispatched run: one or more request lanes over one chunk counter.

    Global chunk indices run through lane 0's chunks, then lane 1's, and so
    on; claims therefore arrive in lane-local order, which the worker-side
    skip logic relies on.  ``completed`` holds *global* indices adopted from
    a checkpoint.
    """

    job_id: int
    chunk_size: int
    batch_size: int
    lanes: tuple[_Lane, ...]
    completed: frozenset[int] = frozenset()
    offsets: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        counts = (lane.num_chunks(self.chunk_size) for lane in self.lanes)
        object.__setattr__(self, "offsets", (0, *itertools.accumulate(counts)))

    @property
    def num_chunks(self) -> int:
        return self.offsets[-1]

    def entry(self, index: int) -> tuple[int, int]:
        """``(lane index, lane-local chunk index)`` of global chunk ``index``."""
        lane_index = bisect.bisect_right(self.offsets, index) - 1
        return lane_index, index - self.offsets[lane_index]

    def lane_chunks(self, lane_index: int) -> range:
        """The global indices of one lane's chunks, in local order."""
        return range(self.offsets[lane_index], self.offsets[lane_index + 1])

    def chunk_attempts(self, index: int) -> int:
        lane_index, local_index = self.entry(index)
        return self.lanes[lane_index].chunk_attempts(local_index, self.chunk_size)

    # Single-lane accessors: checkpoint signatures and resume metadata address
    # the unfolded case through these (folded jobs never checkpoint).
    @property
    def limit(self) -> int:
        return self.lanes[0].limit

    @property
    def base_seed(self) -> int:
        return self.lanes[0].base_seed

    @property
    def target_released(self) -> int | None:
        return self.lanes[0].target_released


def _lanes_satisfied(job: _Job, lane_released) -> bool:
    """True when every lane's shared released counter has met its target.

    Lanes without a target (fixed attempt budgets) are never satisfied early;
    their chunks must all be claimed from the counter, as before folding.
    """
    for lane_index, lane in enumerate(job.lanes):
        if lane.target_released is None:
            return False
        if lane_released[lane_index] < lane.target_released:
            return False
    return True


def _build_worker_mechanism(spec: _WorkerSpec, segments: list[SharedMemory]) -> SynthesisMechanism:
    schema = Schema(list(spec.schema_attributes))
    seed_segment = _attach_segment(spec.seed_segment)
    segments.append(seed_segment)
    seeds = Dataset(schema, _attach_array(seed_segment, spec.seed_spec))
    table_segment = _attach_segment(spec.table_segment)
    segments.append(table_segment)
    tables = [
        ConditionalParameters(
            attribute_index=attribute_index,
            parents=tuple(parents),
            parent_cardinalities=tuple(cardinalities),
            table=_attach_array(table_segment, table_spec),
            counts=_attach_array(table_segment, counts_spec),
            prior=_attach_array(table_segment, prior_spec),
        )
        for attribute_index, parents, cardinalities, table_spec, counts_spec, prior_spec in spec.tables_meta
    ]
    model = BayesianNetworkSynthesizer(schema, spec.structure, tables, spec.omegas)
    mechanism = SynthesisMechanism(model, seeds, spec.params)
    mechanism.prepare()
    return mechanism


def _worker_main(
    slot,
    spec,
    job_queue,
    results_queue,
    retry_queue,
    next_chunk,
    lane_released,
    stop_flag,
    inflight,
    fault,
):
    """Worker entry point: build the mechanism once, then serve jobs forever.

    ``inflight[slot]`` is this worker's crash-proof claim record: it holds the
    chunk index being executed (-1 when idle) and is written *before* the
    chunk runs, so the supervisor can re-dispatch exactly the lost chunk of a
    SIGKILLed worker without relying on queue messages that may never have
    been flushed.  ``retry_queue`` carries those re-dispatched indices; they
    are claimed ahead of the shared counter.  ``lane_released`` holds one
    shared released counter per lane of the current job (index 0 for the
    common single-lane case).  ``fault`` is an optional
    :mod:`repro.testing.faults` injection point fired before each chunk.
    """
    segments: list[SharedMemory] = []
    try:
        mechanism = _build_worker_mechanism(spec, segments)
    except BaseException:
        results_queue.put((None, "error", (slot, traceback.format_exc())))
        return
    results_queue.put((None, "ready", slot))

    while True:
        job = job_queue.get()
        if job is None:
            return
        try:
            while True:
                if stop_flag.value:
                    break
                # Retry claims come first and ignore release targets: a
                # retried chunk is a hole in the contiguous prefix, and the
                # shared counter may already sit past the target on the
                # strength of post-hole chunks that cannot be delivered
                # until the hole is filled.
                index = None
                try:
                    index = retry_queue.get_nowait()
                except Empty:
                    pass
                if index is None:
                    if _lanes_satisfied(job, lane_released):
                        break
                    with next_chunk.get_lock():
                        index = next_chunk.value
                        if index >= job.num_chunks:
                            break
                        next_chunk.value = index + 1
                    if index in job.completed:
                        continue
                    lane_index, local_index = job.entry(index)
                    lane = job.lanes[lane_index]
                    if (
                        lane.target_released is not None
                        and lane_released[lane_index] >= lane.target_released
                    ):
                        # The lane met its target on the strength of chunks
                        # with lower local indices (claims arrive in lane-
                        # local order): consume the claim without executing.
                        continue
                else:
                    if index >= job.num_chunks or index in job.completed:
                        continue
                    lane_index, local_index = job.entry(index)
                    lane = job.lanes[lane_index]
                inflight[slot] = index
                if fault is not None:
                    fault.fire(index)
                report = mechanism.run_attempts(
                    job.chunk_attempts(index),
                    lane.stream.at(local_index * job.chunk_size),
                    batch_size=job.batch_size,
                    stop_after_released=lane.target_released,
                )
                with lane_released.get_lock():
                    lane_released[lane_index] += report.num_released
                results_queue.put(
                    (job.job_id, "chunk", (index, report.to_arrays(), report.num_released))
                )
                inflight[slot] = -1
            inflight[slot] = -1
            results_queue.put((job.job_id, "done", slot))
        except BaseException:
            inflight[slot] = -1
            results_queue.put((job.job_id, "error", (slot, traceback.format_exc())))


# --------------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------------- #
class SynthesisEngine:
    """Chunk-dispatching synthesis executor with a persistent worker pool.

    Parameters
    ----------
    model:
        The fitted Bayesian-network synthesizer; its conditional tables are
        placed in shared memory.  Any other model raises ``TypeError``.
    seed_dataset:
        The seed split DS; its matrix is placed in shared memory.
    params:
        Plausible-deniability test parameters.
    num_workers:
        ``1`` (default) runs every chunk in-process.  Larger values start
        that many spawn-context worker processes the first time a run method
        is called; the pool then persists across calls until :meth:`close`.
        The worker count never changes a run's output.
    chunk_size:
        Attempts per dispatched chunk.  Smaller chunks balance load better
        and tighten the until-N stopping window; larger chunks amortize
        dispatch overhead.  It never changes the rows; it is the grid of a
        run's checkpoints, so resuming a run id requires the same chunk size.
    batch_size:
        Most candidates per
        :meth:`~repro.core.mechanism.SynthesisMechanism.propose_batch` call
        inside each chunk (a positive int; 1 is a batch of one).  A speed
        knob only: it never changes the rows.
    run_store:
        Optional :class:`~repro.core.run_store.RunStore`; run methods given a
        ``run_id`` checkpoint completed chunks there and resume from them.
    max_chunk_retries:
        How many times a chunk lost to a *crashed* worker may be re-executed
        before the job fails with :class:`ChunkRetryExhaustedError`.  ``0``
        disables retry (any crash mid-chunk fails the job) while still
        respawning the dead worker so the engine stays usable.
    fault_injector:
        Optional :mod:`repro.testing.faults` fault point fired by each worker
        before executing a chunk (chaos tests only; must be picklable).

    Use as a context manager (or call :meth:`close`) so worker processes and
    shared-memory segments are released deterministically.
    """

    _POLL_SECONDS = 1.0
    #: Consecutive empty polls — with every worker alive but idle — before
    #: the shared queues are declared wedged (see :class:`_PoolStuckError`).
    _STUCK_POLLS = 15
    #: Pool rebuilds allowed per job before the engine gives up as broken.
    _MAX_POOL_REBUILDS = 2

    def __init__(
        self,
        model: BayesianNetworkSynthesizer,
        seed_dataset: Dataset,
        params: PlausibleDeniabilityParams,
        *,
        num_workers: int = 1,
        chunk_size: int = 2048,
        batch_size: int = 2048,
        run_store: RunStore | None = None,
        max_chunk_retries: int = 2,
        fault_injector=None,
        event_sink=None,
    ):
        if not isinstance(model, BayesianNetworkSynthesizer):
            raise TypeError(
                "SynthesisEngine runs Bayesian-network synthesizers only, "
                f"got {type(model).__name__}"
            )
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be non-negative")
        self._model = model
        self._seeds = seed_dataset
        self._schema = seed_dataset.schema
        self._params = params
        self._num_workers = num_workers
        self._chunk_size = chunk_size
        self._batch_size = batch_size
        self._run_store = run_store
        self._max_chunk_retries = max_chunk_retries
        self._fault_injector = fault_injector
        # Optional supervision-event callback ``(kind, payload)`` with kind
        # in {"worker_restart", "chunk_retry", "pool_rebuild"}.  Telemetry
        # only: it must not raise, and it never influences execution.
        self._event_sink = event_sink
        self._job_counter = 0
        self._pending_done = 0
        self._workload_digest: str | None = None
        self._local_mechanism: SynthesisMechanism | None = None
        # Pool state (populated by start() when num_workers > 1).
        self._started = False
        self._closed = False
        self._broken = False
        self._worker_spec: _WorkerSpec | None = None
        self._processes: list = []
        self._job_queues: list = []
        self._results_queue = None
        self._retry_queue = None
        self._next_chunk = None
        self._lane_released = None
        self._stop_flag = None
        self._inflight = None
        self._segments: list[SharedMemory] = []
        # Supervision bookkeeping.
        self._worker_restarts = 0
        self._pool_rebuilds = 0
        self._chunk_retries: dict[int, int] = {}  # chunk -> crash re-executions (current job)
        self._retry_pending: set[int] = set()  # requeued chunks awaiting redelivery
        self._slot_owes_done: set[int] = set()  # slots dispatched the current job

    @property
    def num_workers(self) -> int:
        """Number of worker processes (1 = every chunk runs in-process)."""
        return self._num_workers

    @property
    def chunk_size(self) -> int:
        """Attempts per dispatched chunk."""
        return self._chunk_size

    @property
    def batch_size(self) -> int:
        """Most candidates per proposal batch inside each chunk."""
        return self._batch_size

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "SynthesisEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def start(self) -> "SynthesisEngine":
        """Start the worker pool eagerly (otherwise started on first run).

        Blocks until every worker has attached the shared-memory segments,
        rebuilt its mechanism and reported ready, so subsequent run calls
        (and their timings) contain no startup cost.  A no-op for
        ``num_workers=1`` and for an already started pool.
        """
        if self._closed:
            raise RuntimeError("the engine has been closed")
        if self._broken:
            raise EngineBrokenError("the engine pool is broken; build a fresh engine")
        if self._num_workers == 1 or self._started:
            return self
        self._worker_spec = self._build_worker_spec()
        context = get_context("spawn")
        self._results_queue = context.Queue()
        self._retry_queue = context.Queue()
        self._next_chunk = context.Value("l", 0)
        self._lane_released = context.Array("l", [0] * MAX_FOLD_LANES)
        self._stop_flag = context.Value("b", 0)
        self._inflight = context.Array("l", [-1] * self._num_workers, lock=False)
        for slot in range(self._num_workers):
            self._job_queues.append(context.Queue())
            self._processes.append(None)
            self._spawn_worker(slot)
        self._started = True
        ready = 0
        while ready < self._num_workers:
            _job_id, kind, payload = self._next_message()
            if kind == "error":
                self.close()
                raise RuntimeError(f"engine worker failed to start:\n{payload[1]}")
            if kind == "ready":
                ready += 1
        return self

    def _spawn_worker(self, slot: int) -> None:
        """(Re)start the worker of ``slot`` against the existing segments."""
        context = get_context("spawn")
        try:
            process = context.Process(
                target=_worker_main,
                args=(
                    slot,
                    self._worker_spec,
                    self._job_queues[slot],
                    self._results_queue,
                    self._retry_queue,
                    self._next_chunk,
                    self._lane_released,
                    self._stop_flag,
                    self._inflight,
                    self._fault_injector,
                ),
                daemon=True,
            )
            process.start()
        except BaseException as exc:
            self._broken = True
            raise EngineBrokenError(
                f"failed to (re)spawn engine worker {slot}: {exc}"
            ) from exc
        self._processes[slot] = process

    def close(self) -> None:
        """Stop the workers and release the shared-memory segments."""
        if self._closed:
            return
        self._closed = True
        for job_queue in self._job_queues:
            try:
                job_queue.put(None)
            except Exception:
                pass
        for process in self._processes:
            if process is None:
                continue
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except Exception:
                pass
        self._segments.clear()
        self._processes.clear()
        self._job_queues.clear()

    def _build_worker_spec(self) -> _WorkerSpec:
        seed_segment, (seed_spec,) = _pack_arrays([self._seeds.data])
        self._segments.append(seed_segment)
        arrays: list[np.ndarray] = []
        for table in self._model.tables:
            arrays.extend([table.table, table.counts, table.prior])
        table_segment, specs = _pack_arrays(arrays)
        self._segments.append(table_segment)
        tables_meta = [
            (
                table.attribute_index,
                table.parents,
                table.parent_cardinalities,
                specs[3 * index],
                specs[3 * index + 1],
                specs[3 * index + 2],
            )
            for index, table in enumerate(self._model.tables)
        ]
        return _WorkerSpec(
            schema_attributes=tuple(self._schema.attributes),
            params=self._params,
            seed_segment=seed_segment.name,
            seed_spec=seed_spec,
            table_segment=table_segment.name,
            structure=self._model.structure,
            omegas=self._model.omegas,
            tables_meta=tables_meta,
        )

    # ------------------------------------------------------------------ #
    # Run modes
    # ------------------------------------------------------------------ #
    def run_attempts(
        self,
        num_attempts: int,
        base_seed: int = 0,
        *,
        progress: Callable[[ChunkProgress], None] | None = None,
        run_id: str | None = None,
    ) -> SynthesisReport:
        """Propose attempts ``0..num_attempts-1`` of ``base_seed``'s stream across the pool.

        The result is identical for every worker count, chunk size and batch
        size: attempt i is a pure function of (base seed, i).  Reuse
        ``base_seed`` to reproduce a run, vary it to draw fresh candidates.
        """
        if num_attempts < 0:
            raise ValueError("num_attempts must be non-negative")
        return self._execute(
            limit=num_attempts,
            target_released=None,
            base_seed=base_seed,
            progress=progress,
            run_id=run_id,
        )

    def generate(
        self,
        num_released: int,
        base_seed: int = 0,
        *,
        max_attempts: int | None = None,
        progress: Callable[[ChunkProgress], None] | None = None,
        run_id: str | None = None,
    ) -> SynthesisReport:
        """Propose candidates until ``num_released`` pass the privacy test.

        The release is the first ``num_released`` passing attempts of
        ``base_seed``'s stream.  Workers coordinate through a shared released
        counter, so generation stops within about one chunk per worker of the
        target instead of running out a static attempt budget; the
        in-process engine stops at the proposal batch that holds the target.
        ``max_attempts`` (default: 100 per requested record) still bounds the
        run when the parameters are too strict to reach the target.  The
        released records and the merged accounting are identical for every
        worker count, chunk size and batch size.
        """
        if num_released < 0:
            raise ValueError("num_released must be non-negative")
        limit = max_attempts if max_attempts is not None else 100 * max(1, num_released)
        if limit < 0:
            raise ValueError("max_attempts must be non-negative")
        return self._execute(
            limit=limit,
            target_released=num_released,
            base_seed=base_seed,
            progress=progress,
            run_id=run_id,
        )

    def generate_folded(
        self,
        specs: Sequence[FoldSpec],
        *,
        progress: Callable[[ChunkProgress], None] | None = None,
    ) -> list[SynthesisReport]:
        """Run several :meth:`generate` requests as one fused job.

        Each spec becomes its own *lane*: an independent attempt budget,
        release target and attempt stream, exactly as a standalone
        ``generate`` call would lay them out.  The lanes' chunks are
        concatenated into one dispatch over the shared worker pool, so one
        job serves every request; afterwards the merged results are split
        back per lane by chunk ownership.  The ``i``-th returned report is
        bit-identical — rows, attempts, accounting — to
        ``generate(specs[i].num_released, base_seed=specs[i].base_seed,
        max_attempts=specs[i].max_attempts)`` run on its own, for every
        worker count.

        Folded jobs do not checkpoint (no ``run_id``): they are the serving
        layer's fast path, where per-request idempotency already provides
        replay.  At most :data:`MAX_FOLD_LANES` specs fold into one job.
        """
        if len(specs) > MAX_FOLD_LANES:
            raise ValueError(
                f"at most {MAX_FOLD_LANES} requests can be folded into one job "
                f"(got {len(specs)})"
            )
        lanes: list[_Lane] = []
        for spec in specs:
            if spec.num_released < 0:
                raise ValueError("num_released must be non-negative")
            limit = (
                spec.max_attempts
                if spec.max_attempts is not None
                else 100 * max(1, spec.num_released)
            )
            if limit < 0:
                raise ValueError("max_attempts must be non-negative")
            lanes.append(
                _Lane(
                    limit=limit,
                    base_seed=spec.base_seed,
                    target_released=spec.num_released,
                )
            )
        if not lanes:
            return []
        return self._execute_lanes(tuple(lanes), progress, run_id=None)

    # ------------------------------------------------------------------ #
    # Execution internals
    # ------------------------------------------------------------------ #
    def _execute(
        self,
        limit: int,
        target_released: int | None,
        base_seed: int,
        progress: Callable[[ChunkProgress], None] | None,
        run_id: str | None,
    ) -> SynthesisReport:
        lanes = (
            _Lane(limit=limit, base_seed=base_seed, target_released=target_released),
        )
        return self._execute_lanes(lanes, progress, run_id)[0]

    def _execute_lanes(
        self,
        lanes: tuple[_Lane, ...],
        progress: Callable[[ChunkProgress], None] | None,
        run_id: str | None,
    ) -> list[SynthesisReport]:
        if self._closed:
            raise RuntimeError("the engine has been closed")
        if self._broken:
            raise EngineBrokenError("the engine pool is broken; build a fresh engine")
        self._job_counter += 1
        job = _Job(
            job_id=self._job_counter,
            chunk_size=self._chunk_size,
            batch_size=self._batch_size,
            lanes=lanes,
        )
        # Only the contiguous prefix of checkpointed chunks is adopted: a
        # post-gap chunk's releases would preset the shared released counter
        # and could stop the pool before the gap is ever filled, silently
        # under-delivering.  Gap and post-gap chunks are simply regenerated —
        # chunk content is a pure function of its attempt range, so the rerun
        # is bit-identical to the checkpoint it replaces.
        loaded = self._load_checkpoint(job, run_id)
        reports: dict[int, SynthesisReport] = {}
        index = 0
        while index in loaded:
            reports[index] = loaded[index]
            index += 1
        if reports:
            job = dataclasses.replace(job, completed=frozenset(reports))
        tracker = _ProgressTracker(progress, job)
        for index in sorted(reports):
            tracker.emit(index, reports[index], from_checkpoint=True)

        if self._num_workers == 1:
            self._run_in_process(job, reports, tracker, run_id)
        else:
            rebuilds = 0
            self._chunk_retries = {}  # fresh crash-retry budget per job
            while True:
                self.start()
                try:
                    self._run_on_pool(job, reports, tracker, run_id)
                    break
                except _PoolStuckError as exc:
                    rebuilds += 1
                    if rebuilds > self._MAX_POOL_REBUILDS:
                        self._broken = True
                        self.close()
                        raise EngineBrokenError(
                            f"the worker pool wedged {rebuilds} times on one "
                            f"job ({exc}); the engine is broken"
                        ) from exc
                    self._rebuild_pool()
                    if exc.exhausted:
                        # The retry-budget verdict predates the wedge and must
                        # not be forgiven by the rebuild: the job is abandoned
                        # exactly as if the pool had drained cleanly.
                        raise ChunkRetryExhaustedError(
                            f"chunk(s) {list(exc.exhausted)} crashed more than "
                            f"max_chunk_retries={self._max_chunk_retries} "
                            "times; the job was abandoned but the pool has "
                            "been rebuilt and the engine remains usable",
                            chunk_indices=exc.exhausted,
                        ) from exc
                    # Resume from the chunks already received, under the same
                    # rule as checkpoint adoption: keep each lane's contiguous
                    # delivered prefix, regenerate the rest.  A post-gap
                    # report must not preset the released counters (it could
                    # stop an until-N lane before its gap is filled), and
                    # re-executing is bit-identical anyway.
                    kept: set[int] = set()
                    for lane_index in range(len(job.lanes)):
                        for index in job.lane_chunks(lane_index):
                            if index not in reports:
                                break
                            kept.add(index)
                    for index in [i for i in reports if i not in kept]:
                        del reports[index]
                    job = dataclasses.replace(job, completed=frozenset(kept))
        return self._finalize(job, reports)

    @staticmethod
    def _lane_released_sums(job: _Job, reports: dict[int, SynthesisReport]) -> list[int]:
        """Per-lane released totals over the chunk reports received so far."""
        sums = [0] * len(job.lanes)
        for index, report in reports.items():
            if index < job.num_chunks:
                lane_index, _local_index = job.entry(index)
                sums[lane_index] += report.num_released
        return sums

    def _mechanism(self) -> SynthesisMechanism:
        if self._local_mechanism is None:
            self._local_mechanism = SynthesisMechanism(
                self._model, self._seeds, self._params
            ).prepare()
        return self._local_mechanism

    def _run_in_process(
        self,
        job: _Job,
        reports: dict[int, SynthesisReport],
        tracker: "_ProgressTracker",
        run_id: str | None,
    ) -> None:
        mechanism = self._mechanism()
        # Lanes run one after the other — literally the K serial unfolded
        # requests — which is exactly what the pool path must be bit-identical
        # to (chunk content is a pure function of (lane seed, attempt range),
        # so execution order never matters).  A chunk stops at the batch that
        # holds the lane's remaining target: a worker stops later, at the
        # lane's whole target, and _finalize cuts both at the same attempt.
        for lane_index, lane in enumerate(job.lanes):
            released = 0
            for local_index, index in enumerate(job.lane_chunks(lane_index)):
                if lane.target_released is not None and released >= lane.target_released:
                    break
                report = reports.get(index)
                if report is None:
                    report = mechanism.run_attempts(
                        lane.chunk_attempts(local_index, job.chunk_size),
                        lane.stream.at(local_index * job.chunk_size),
                        batch_size=job.batch_size,
                        stop_after_released=(
                            None
                            if lane.target_released is None
                            else lane.target_released - released
                        ),
                    )
                    reports[index] = report
                    self._save_checkpoint(run_id, index, report.to_arrays())
                    tracker.emit(index, report)
                released += report.num_released

    def _run_on_pool(
        self,
        job: _Job,
        reports: dict[int, SynthesisReport],
        tracker: "_ProgressTracker",
        run_id: str | None,
    ) -> None:
        if self._pending_done:
            # A previous job's collection loop was interrupted (exception in
            # a progress callback, Ctrl-C, ...).  Its workers may still be
            # claiming chunks from the shared counters, so wait for them to
            # go quiescent before resetting state for this job.
            self._stop_flag.value = 1
            silent_polls = 0
            while self._pending_done:
                try:
                    _job_id, kind, _payload = self._results_queue.get(
                        timeout=self._POLL_SECONDS
                    )
                except Empty:
                    # A worker that died while owing a "done" will never send
                    # it; respawn it (idle: the stale job is abandoned) and
                    # stop waiting on its behalf.
                    restarts = self._worker_restarts
                    self._supervise(None, {}, None)
                    silent_polls = (
                        0
                        if self._worker_restarts != restarts
                        or any(int(flag) >= 0 for flag in self._inflight)
                        else silent_polls + 1
                    )
                    if silent_polls >= self._STUCK_POLLS:
                        raise _PoolStuckError(
                            "the stale-job drain made no progress for "
                            f"{silent_polls} polls"
                        )
                    continue
                silent_polls = 0
                if kind in ("done", "error"):
                    self._pending_done -= 1
        while True:  # clear retry indices a stopped job never consumed
            try:
                self._retry_queue.get_nowait()
            except Empty:
                break
        self._next_chunk.value = 0
        completed_sums = self._lane_released_sums(
            job, {index: reports[index] for index in job.completed}
        )
        with self._lane_released.get_lock():
            for lane_index in range(MAX_FOLD_LANES):
                self._lane_released[lane_index] = (
                    completed_sums[lane_index]
                    if lane_index < len(completed_sums)
                    else 0
                )
        self._stop_flag.value = 0
        # _chunk_retries is NOT reset here: a pool rebuild resumes the same
        # job, and its crash-retry budget is cumulative across the resume.
        self._retry_pending = set()
        self._slot_owes_done = set(range(len(self._processes)))
        for job_queue in self._job_queues:
            job_queue.put(job)
        self._pending_done = len(self._processes)

        pending = len(self._processes)
        prefix = _FoldPrefix(job, reports)
        failure: str | None = None
        exhausted: list[int] = []
        silent_polls = 0
        try:
            while pending:
                try:
                    job_id, kind, payload = self._results_queue.get(
                        timeout=self._POLL_SECONDS
                    )
                except Empty:
                    restarts = self._worker_restarts
                    self._supervise(job, reports, exhausted)
                    if exhausted and not self._stop_flag.value:
                        self._stop_flag.value = 1
                    # Workers alive but nothing computing, nothing delivered
                    # and nobody respawned: the shared queues are wedged (a
                    # crash poisoned an internal lock) and no amount of
                    # waiting or respawning will unwedge them.
                    silent_polls = (
                        0
                        if self._worker_restarts != restarts
                        or any(int(flag) >= 0 for flag in self._inflight)
                        else silent_polls + 1
                    )
                    if silent_polls >= self._STUCK_POLLS:
                        raise _PoolStuckError(
                            f"{pending} live worker(s) sent nothing for "
                            f"{silent_polls} polls with no chunk in flight",
                            exhausted=tuple(sorted(set(exhausted))),
                        )
                    continue
                silent_polls = 0
                if job_id != job.job_id:
                    # Stale message from a job whose collection loop was
                    # interrupted (e.g. a progress callback raised): drop it
                    # rather than merging another run's chunks into this one.
                    continue
                if kind == "done":
                    pending -= 1
                    self._pending_done -= 1
                    self._slot_owes_done.discard(payload)
                elif kind == "error":
                    pending -= 1
                    self._pending_done -= 1
                    self._slot_owes_done.discard(payload[0])
                    failure = payload[1]
                    self._stop_flag.value = 1
                elif kind == "chunk":
                    index, arrays, released = payload
                    if index in reports:
                        # A crash-retried chunk raced its original message
                        # (both delivered).  The content is bit-identical, so
                        # drop the duplicate and undo its double count on the
                        # lane's shared released counter.
                        lane_index, _local_index = job.entry(index)
                        with self._lane_released.get_lock():
                            self._lane_released[lane_index] -= released
                        continue
                    report = SynthesisReport.from_arrays(self._schema, arrays)
                    reports[index] = report
                    self._retry_pending.discard(index)
                    self._save_checkpoint(run_id, index, arrays)
                    tracker.emit(index, report)
                    if not self._stop_flag.value:
                        prefix.advance(job.entry(index)[0])
                        if prefix.all_satisfied():
                            self._stop_flag.value = 1
        except BaseException:
            # Parent-side failure mid-collection: tell the workers to stop
            # claiming chunks instead of burning the rest of the budget.
            self._stop_flag.value = 1
            raise
        if failure is not None:
            raise RuntimeError(f"engine worker failed:\n{failure}")
        if exhausted:
            indices = tuple(sorted(set(exhausted)))
            raise ChunkRetryExhaustedError(
                f"chunk(s) {list(indices)} crashed more than max_chunk_retries="
                f"{self._max_chunk_retries} times; the job was abandoned but the "
                "pool has been repaired and the engine remains usable",
                chunk_indices=indices,
            )

    def _emit_event(self, kind: str, payload: dict) -> None:
        """Forward one supervision event to the telemetry sink, if any."""
        if self._event_sink is not None:
            self._event_sink(kind, payload)

    def _supervise(self, job: _Job | None, reports: dict, exhausted: list | None) -> None:
        """Detect dead workers, respawn them, and re-dispatch lost chunks.

        With a ``job`` in flight the replacement worker is handed the same
        job and every chunk the crash may have swallowed is queued for
        deterministic re-execution: the crashed worker's in-flight chunk
        (from the shared ``inflight`` table, charged against
        ``max_chunk_retries`` as the potential culprit) *and* any earlier
        claimed-but-undelivered chunk (requeued uncharged) — a SIGKILL
        can take already-``put`` messages down with the queue's feeder
        thread, so a chunk the dead worker finished minutes ago may still be
        lost.  Retries are queued before the job is re-dispatched so no
        replacement can observe the job without every hole being claimable.
        The shared released counter is resynced to the reports actually
        received so a crash between a worker's counter increment and its
        (lost) chunk message can never stop an until-N run short of its
        target.
        """
        dead_slots = [
            slot for slot, process in enumerate(self._processes) if not process.is_alive()
        ]
        respawned: list[tuple[int, bool]] = []
        for slot in dead_slots:
            lost_chunk = int(self._inflight[slot])
            self._inflight[slot] = -1
            owed = slot in self._slot_owes_done
            self._worker_restarts += 1
            self._emit_event(
                "worker_restart", {"slot": slot, "lost_chunk": lost_chunk}
            )
            self._spawn_worker(slot)  # raises EngineBrokenError on failure
            if job is None:
                if owed:
                    self._slot_owes_done.discard(slot)
                    self._pending_done -= 1
                continue
            respawned.append((slot, owed))
            if lost_chunk >= 0 and lost_chunk not in reports:
                self._requeue_chunk(lost_chunk, exhausted)
        if job is None or not respawned:
            return
        self._requeue_swallowed_chunks(job, reports)
        for slot, owed in respawned:
            if owed:
                self._job_queues[slot].put(job)  # replacement owes the done instead
        sums = self._lane_released_sums(job, reports)
        with self._lane_released.get_lock():
            for lane_index, value in enumerate(sums):
                self._lane_released[lane_index] = value

    def _requeue_chunk(self, index: int, exhausted: list) -> None:
        """Queue one chunk for re-execution, charging its crash-retry budget."""
        retries = self._chunk_retries.get(index, 0)
        if retries >= self._max_chunk_retries:
            exhausted.append(index)
        else:
            self._chunk_retries[index] = retries + 1
            self._emit_event(
                "chunk_retry", {"chunk": index, "retries": retries + 1}
            )
            self._retry_pending.add(index)
            self._retry_queue.put(index)

    def _requeue_swallowed_chunks(self, job: _Job, reports: dict) -> None:
        """Requeue every claimed chunk whose delivery the crash may have lost.

        A hole — claimed off the shared counter, not delivered, not in any
        live worker's ``inflight`` slot and not already awaiting retry — is
        either a message the dead worker's feeder thread never flushed or a
        target-met claim a lane consumed without executing.  Re-executing is
        safe in both cases: chunk content is a pure function of
        ``(base_seed, attempt range)``, a raced duplicate delivery is dropped
        with its counter double-increment undone, and :meth:`_finalize`
        truncates each lane at its target.  Unlike the dead worker's
        in-flight chunk (the potential culprit), holes are innocent victims
        of someone else's crash, so their re-execution is *not* charged
        against ``max_chunk_retries`` — the budget still bounds crash loops
        because every crash charges whatever was in flight.
        """
        claimed = min(int(self._next_chunk.value), job.num_chunks)
        inflight = {int(self._inflight[slot]) for slot in range(len(self._processes))}
        for index in range(claimed):
            if index in reports or index in job.completed:
                continue
            if index in inflight or index in self._retry_pending:
                continue
            self._retry_pending.add(index)
            self._retry_queue.put(index)

    def _rebuild_pool(self) -> None:
        """Tear down a wedged pool and leave it ready to start from scratch.

        Respawning individual workers cannot fix state *inside* the shared
        queues — a lock a SIGKILLed feeder thread died holding stays held
        forever, and any process touching that queue wedges too.  So the
        whole process tier is discarded: workers terminated, queues and
        shared counters dropped, segments unlinked.  The next :meth:`start`
        builds everything fresh.
        """
        self._pool_rebuilds += 1
        self._emit_event("pool_rebuild", {"rebuilds": self._pool_rebuilds})
        for process in self._processes:
            if process is None or not process.is_alive():
                continue
            process.terminate()
            process.join(timeout=5)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        for queue in (*self._job_queues, self._retry_queue):
            try:
                # Unflushed feeder data must not block queue finalization.
                queue.cancel_join_thread()
            except Exception:  # repro: allow[robust-swallowed-exception]
                pass  # best-effort teardown of an already-poisoned queue
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except Exception:  # repro: allow[robust-swallowed-exception]
                pass  # another close() may have unlinked the segment first
        self._segments.clear()
        self._processes.clear()
        self._job_queues.clear()
        self._results_queue = None
        self._retry_queue = None
        self._pending_done = 0
        self._started = False

    def _next_message(self):
        """One (job_id, kind, payload) startup message, watching for deaths.

        Only the :meth:`start` ready-wait uses this: a worker that dies
        before the pool is even up has nothing to retry deterministically, so
        the pool is marked broken and torn down rather than supervised.
        """
        while True:
            try:
                return self._results_queue.get(timeout=self._POLL_SECONDS)
            except Empty:
                dead = [p for p in self._processes if p is not None and not p.is_alive()]
                if dead:
                    codes = [p.exitcode for p in dead]
                    self._broken = True
                    self.close()
                    raise EngineBrokenError(
                        f"{len(dead)} engine worker(s) died during pool startup "
                        f"(exit codes: {codes}); the pool is broken"
                    ) from None

    def _finalize(
        self, job: _Job, reports: dict[int, SynthesisReport]
    ) -> list[SynthesisReport]:
        """Per lane, merge the in-order chunk prefix truncated at its target."""
        merged: list[SynthesisReport] = []
        with obs_phase("merge"):
            for lane_index, lane in enumerate(job.lanes):
                ordered: list[SynthesisReport] = []
                for index in job.lane_chunks(lane_index):
                    report = reports.get(index)
                    if report is None:
                        if lane.target_released is None:
                            raise RuntimeError(f"chunk {index} was never completed")
                        break
                    ordered.append(report)
                merged.append(
                    SynthesisReport.merged(
                        self._schema, ordered, stop_after_released=lane.target_released
                    )
                )
        return merged

    # ------------------------------------------------------------------ #
    # Pool health
    # ------------------------------------------------------------------ #
    def pool_health(self) -> dict:
        """Supervision counters next to the workload identity.

        ``worker_restarts`` counts every supervised respawn over the engine's
        lifetime and ``pool_rebuilds`` every full from-scratch pool rebuild
        after a wedged-queue livelock; ``chunk_retries`` maps chunk index to
        crash re-executions for the most recent pool job; ``workers_alive``
        is the live process count (0 in-process, where there is no pool
        to supervise).
        """
        return {
            "num_workers": self._num_workers,
            "workers_alive": sum(
                1 for p in self._processes if p is not None and p.is_alive()
            ),
            "worker_restarts": self._worker_restarts,
            "pool_rebuilds": self._pool_rebuilds,
            "chunk_retries": dict(self._chunk_retries),
            "max_chunk_retries": self._max_chunk_retries,
            "broken": self._broken,
        }

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def workload_fingerprint(self) -> str:
        """Content hash of the model and seed dataset driving this engine.

        Part of every run's checkpoint signature: resuming a run id against a
        refitted model or a different seed split would otherwise silently
        merge chunks generated from different distributions into one report.
        The serving layer also uses it to prove two engines serve the same
        published workload.
        """
        if self._workload_digest is None:
            digest = hashlib.sha256()
            digest.update(dataset_fingerprint(self._seeds).encode())
            digest.update(repr(self._model.structure.parents).encode())
            digest.update(repr(self._model.structure.order).encode())
            digest.update(repr(self._model.omegas).encode())
            for table in self._model.tables:
                digest.update(np.ascontiguousarray(table.table).tobytes())
            self._workload_digest = digest.hexdigest()
        return self._workload_digest

    def _job_signature(self, job: _Job) -> dict:
        return {
            "limit": job.limit,
            "chunk_size": job.chunk_size,
            "base_seed": job.base_seed,
            "stream": STREAM_VERSION,
            "target_released": job.target_released,
            "k": self._params.k,
            "gamma": self._params.gamma,
            "epsilon0": self._params.epsilon0,
            "max_plausible": self._params.max_plausible,
            "max_check_plausible": self._params.max_check_plausible,
            "workload": self.workload_fingerprint(),
        }

    def _load_checkpoint(self, job: _Job, run_id: str | None) -> dict[int, SynthesisReport]:
        if self._run_store is None or run_id is None:
            return {}
        signature = self._job_signature(job)
        stored = self._run_store.load_run_meta(run_id)
        if stored is None:
            self._run_store.save_run_meta(run_id, signature)
            return {}
        if stored != signature:
            raise ValueError(
                f"run {run_id!r} was checkpointed with a different job signature "
                f"({stored}) than requested ({signature}); use a fresh run id or "
                "matching parameters"
            )
        reports = {}
        for index, arrays in self._run_store.load_chunks(run_id).items():
            if index >= job.num_chunks:
                continue
            try:
                reports[index] = SynthesisReport.from_arrays(self._schema, arrays)
            except ValueError as exc:
                raise RunStoreCorruptionError(
                    f"checkpoint chunk_{index:08d}.npz of run {run_id!r} has "
                    f"malformed columns: {exc}"
                ) from exc
        return reports

    def _save_checkpoint(self, run_id: str | None, index: int, arrays: dict) -> None:
        if self._run_store is not None and run_id is not None:
            self._run_store.save_chunk(run_id, index, arrays)


class _FoldPrefix:
    """Per-lane contiguous-prefix release tracking for the collection loop.

    A lane is *satisfied* once the releases over its contiguous lane-local
    chunk prefix meet its target (or all its chunks have been received, for
    fixed-budget lanes).  The pool may stop — without losing bit-identity —
    exactly when every lane is satisfied: each lane's merged report is a
    function of its prefix alone.
    """

    def __init__(self, job: _Job, reports: dict[int, SynthesisReport]):
        self._job = job
        self._reports = reports
        self._released = [0] * len(job.lanes)
        self._local = [0] * len(job.lanes)
        for lane_index in range(len(job.lanes)):
            self.advance(lane_index)

    def advance(self, lane_index: int) -> None:
        """Extend one lane's prefix over newly received chunk reports."""
        lane_order = self._job.lane_chunks(lane_index)
        local = self._local[lane_index]
        while local < len(lane_order) and lane_order[local] in self._reports:
            self._released[lane_index] += self._reports[lane_order[local]].num_released
            local += 1
        self._local[lane_index] = local

    def lane_satisfied(self, lane_index: int) -> bool:
        lane = self._job.lanes[lane_index]
        if (
            lane.target_released is not None
            and self._released[lane_index] >= lane.target_released
        ):
            return True
        return self._local[lane_index] >= len(self._job.lane_chunks(lane_index))

    def all_satisfied(self) -> bool:
        return all(
            self.lane_satisfied(lane_index)
            for lane_index in range(len(self._job.lanes))
        )


class _ProgressTracker:
    """Accumulates totals and forwards :class:`ChunkProgress` events.

    Holding the job lets every emission carry the owning fold lane, so the
    serving layer can attribute chunk telemetry to the right request.
    """

    def __init__(
        self,
        callback: Callable[[ChunkProgress], None] | None,
        job: "_Job | None" = None,
    ):
        self._callback = callback
        self._job = job
        self._total_attempts = 0
        self._total_released = 0

    def emit(self, index: int, report: SynthesisReport, from_checkpoint: bool = False) -> None:
        self._total_attempts += report.num_attempts
        self._total_released += report.num_released
        if self._callback is not None:
            lane_index = self._job.entry(index)[0] if self._job is not None else 0
            self._callback(
                ChunkProgress(
                    chunk_index=index,
                    chunk_attempts=report.num_attempts,
                    chunk_released=report.num_released,
                    total_attempts=self._total_attempts,
                    total_released=self._total_released,
                    from_checkpoint=from_checkpoint,
                    lane_index=lane_index,
                )
            )
