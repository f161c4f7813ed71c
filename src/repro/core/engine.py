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

* **Parent-assigned chunks.**  Each worker has one ``multiprocessing.Pipe``
  to the parent and holds at most one assignment: a chunk's job id, index,
  lane seed, attempt range, batch size and lane target.  The parent sends a
  worker its next chunk as soon as it has read that worker's result, so
  fast workers take more chunks instead of idling behind a static split.
  Requeued chunks go first; fresh chunks go in lane-local order, lower lanes
  first.  In until-N-released mode the parent speculates no further than a
  lane's target needs: it assigns a lane no further chunk while the lane's
  received releases, plus its in-flight attempts at the pass rate of its
  received chunks, are expected to reach the target (a lane with no received
  chunk speculates freely).  The rule is re-checked at every dispatch, so a
  lane whose in-flight chunks fall short gets its next chunk as soon as they
  arrive, and the other lanes of a fold keep getting chunks meanwhile.  On
  20,000-row perfbench releases this computes about 15 chunks per release
  where assigning until the received chunks held the target computed 16.
  No chunk computes past the lane's target itself.  A worker raises glibc's
  trim and mmap thresholds once at start (``mallopt``; nothing happens on a
  C library without it): a fresh process has a small heap, so glibc would
  hand each chunk's few hundred KB of kernel temporaries back to the kernel
  and fault them in again on the next chunk, about 125 minor page faults
  per 2,048-attempt chunk on perfbench's model and 164 on the test
  fixture's, against none once the heap is kept.

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
  own stream, attempt budget and release target, and the parent assigns
  each lane's chunks in lane-local order, lower lanes first.  Because a
  chunk's content is a pure function of (lane seed, attempt range), every
  lane's merged report is bit-identical to running that request alone —
  folding changes only *when* chunks run, never what they contain.  The
  serving layer uses this to turn K queued requests for one model into one
  fused scan instead of K convoyed runs.

* **Streaming reports and checkpoints.**  Chunk reports arrive incrementally
  (``progress`` callback) and can be checkpointed to a
  :class:`~repro.core.run_store.RunStore`, so a crashed or repeated run
  resumes from its completed chunks instead of regenerating them.  Chunks
  travel and are stored as report columns (``to_arrays``) with every integer
  column narrowed to the smallest dtype that holds it
  (:func:`~repro.core.results.narrow_columns`: about 58 KB per
  2,048-attempt ACS chunk instead of 267 KB), which ``from_arrays`` widens
  once in the parent.  The pool and the in-process engine write checkpoints
  in this same form, so either resumes the other's run id; malformed stored
  columns fail the resume loudly.

* **Worker supervision with deterministic chunk retry.**  The parent blocks
  on every worker's pipe and process sentinel at once, through one selector
  that registers a worker's two descriptors when it starts, so it sees a
  death as soon as it happens, and the dead worker's one assignment is
  exactly the chunk it lost.  The parent respawns the worker against the
  *existing* shared-memory segments and requeues that chunk, charging it
  against ``max_chunk_retries``; the re-execution is bit-identical because a
  chunk's content is a pure function of its attempt range.  Past the bound
  the job fails with :class:`ChunkRetryExhaustedError` while the pool
  (already repaired) stays usable.  A SIGKILL mid-send truncates only the dead
  worker's own pipe, so no other worker's results are lost or held up.  The
  results of an abandoned job (a progress callback raised, a retry budget
  ran out) still arrive later and are dropped by job id.  A worker that
  cannot start, at pool startup or on respawn, marks the engine broken and
  every subsequent call raises :class:`EngineBrokenError`.
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
import ctypes
import dataclasses
import hashlib
import itertools
import selectors
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from multiprocessing.shared_memory import SharedMemory
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.mechanism import SynthesisMechanism
from repro.core.results import SynthesisReport, narrow_columns
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
    "SynthesisEngine",
]


class EngineBrokenError(RuntimeError):
    """The worker pool is unrecoverable; the engine refuses further work.

    Raised when a worker cannot start, at pool startup or on a supervised
    respawn.  The broken flag is sticky: every subsequent run call fails
    fast with this error.  Build a fresh engine to continue.
    """


class ChunkRetryExhaustedError(RuntimeError):
    """A chunk's crash-retry budget (``max_chunk_retries``) ran out.

    The failing *job* is abandoned cleanly, but the pool has already been
    repaired (the dead worker respawned), so the engine itself remains usable
    for subsequent runs.
    """

    def __init__(self, message: str, chunk_indices: tuple[int, ...] = ()):
        super().__init__(message)
        self.chunk_indices = chunk_indices


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
    """One dispatched run: one or more request lanes over one chunk grid.

    Global chunk indices run through lane 0's chunks, then lane 1's, and so
    on.  ``completed`` holds *global* indices adopted from a checkpoint.
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

    def assignment(self, index: int) -> "_Assignment":
        """What a worker needs to run global chunk ``index``."""
        lane_index, local_index = self.entry(index)
        lane = self.lanes[lane_index]
        return _Assignment(
            job_id=self.job_id,
            index=index,
            base_seed=lane.base_seed,
            start=local_index * self.chunk_size,
            attempts=lane.chunk_attempts(local_index, self.chunk_size),
            batch_size=self.batch_size,
            target_released=lane.target_released,
        )

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


class _Assignment(NamedTuple):
    """One chunk handed to one worker: attempts ``[start, start + attempts)``
    of the lane keyed by ``base_seed``, cut at the lane's whole target."""

    job_id: int
    index: int
    base_seed: int
    start: int
    attempts: int
    batch_size: int
    target_released: int | None


#: The task of a worker that has not reported ready yet; it holds no chunk.
_STARTING = "starting"


@dataclass
class _Worker:
    """One worker process, the parent's end of its pipe and its one task."""

    process: BaseProcess
    conn: Connection
    task: _Assignment | str | None = _STARTING


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


#: glibc's ``mallopt`` parameters (``<malloc.h>``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap() -> None:
    """Keep a worker's freed memory on its heap between chunks.

    Allocations below 16 MiB come from the heap, and the heap is trimmed only
    past 64 MiB of free space at its top.  Setting either threshold freezes
    glibc's adaptive one, so both are set: the mmap threshold alone left the
    trim threshold where start-up had put it, and the workers faulted as
    many pages per chunk as with neither set (about 164 on the test
    fixture's ACS model).  Does nothing where the C library has no
    ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _run_chunk(mechanism: SynthesisMechanism, task: _Assignment) -> tuple:
    """A worker's message for one assignment, with its columns narrowed."""
    report = mechanism.run_attempts(
        task.attempts,
        attempt_stream(task.base_seed, task.start),
        batch_size=task.batch_size,
        stop_after_released=task.target_released,
    )
    return (task.job_id, task.index, report.num_released, narrow_columns(report.to_arrays()))


def _worker_main(spec: _WorkerSpec, conn: Connection, fault) -> None:
    """Worker entry point: build the mechanism once, then run assignments.

    Every message to the parent is ``(job id, chunk index, released,
    payload)``.  The startup report is ``(None, None, 0, None)``, or carries
    the traceback as its payload when the mechanism cannot be built.  A
    chunk's payload is its narrowed report columns, or the traceback of the
    exception it raised.  The worker exits when the parent closes its end of
    the pipe.  ``fault`` is an optional :mod:`repro.testing.faults`
    injection point fired before each chunk.
    """
    segments: list[SharedMemory] = []
    _keep_heap()
    try:
        try:
            mechanism = _build_worker_mechanism(spec, segments)
        except Exception:
            conn.send((None, None, 0, traceback.format_exc()))
            return
        conn.send((None, None, 0, None))
        while True:
            task = conn.recv()
            try:
                if fault is not None:
                    fault.fire(task.index)
                message = _run_chunk(mechanism, task)
            except Exception:
                message = (task.job_id, task.index, 0, traceback.format_exc())
            conn.send(message)
    except (EOFError, OSError):
        return  # the parent closed its end: the engine is shutting down


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
        # in {"worker_restart", "chunk_retry"}.  Telemetry only: it must not
        # raise, and it never influences execution.
        self._event_sink = event_sink
        self._job_counter = 0
        self._workload_digest: str | None = None
        self._local_mechanism: SynthesisMechanism | None = None
        # Pool state (populated by start() when num_workers > 1).
        self._started = False
        self._closed = False
        self._broken = False
        self._worker_spec: _WorkerSpec | None = None
        self._workers: list[_Worker] = []
        # One selector over every worker's pipe and process sentinel, keyed
        # by slot; a worker's two entries live as long as the worker.
        self._selector: selectors.BaseSelector | None = None
        self._segments: list[SharedMemory] = []
        # Supervision bookkeeping.
        self._worker_restarts = 0
        self._chunk_retries: dict[int, int] = {}  # chunk -> crash re-executions (current job)

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
        self._started = True
        self._selector = selectors.DefaultSelector()
        for slot in range(self._num_workers):
            self._workers.append(self._spawn_worker(slot))
        while any(worker.task is _STARTING for worker in self._workers):
            for slot, message in self._events():
                failure = "the worker died" if message is None else message[3]
                if failure is not None:
                    self._broken = True
                    self.close()
                    raise EngineBrokenError(
                        f"engine worker {slot} failed to start; the pool is broken:\n{failure}"
                    )
                self._workers[slot].task = None
        return self

    def _spawn_worker(self, slot: int) -> _Worker:
        """Start one worker against the existing segments and watch it as ``slot``."""
        context = get_context("spawn")
        conn, child_conn = context.Pipe()
        try:
            process = context.Process(
                target=_worker_main,
                args=(self._worker_spec, child_conn, self._fault_injector),
                daemon=True,
            )
            process.start()
        except Exception as exc:
            conn.close()
            self._broken = True
            raise EngineBrokenError(f"failed to (re)spawn an engine worker: {exc}") from exc
        finally:
            # Only the worker may hold its end: when it dies mid-send, the
            # parent's recv must raise instead of waiting for the rest.
            child_conn.close()
        self._selector.register(conn, selectors.EVENT_READ, slot)
        self._selector.register(process.sentinel, selectors.EVENT_READ, slot)
        return _Worker(process, conn)

    def close(self) -> None:
        """Stop the workers and release the shared-memory segments."""
        if self._closed:
            return
        self._closed = True
        if self._selector is not None:
            self._selector.close()
        for worker in self._workers:
            # The worker reads EOF, or fails to send its result, and exits.
            worker.conn.close()
        for worker in self._workers:
            worker.process.join(timeout=10)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except Exception:
                pass
        self._segments.clear()
        self._workers.clear()

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
        ``base_seed``'s stream.  The parent assigns no further chunk while the
        chunks it has received and those in flight are expected to hold the
        target, so a pool stops within about one chunk of it instead of
        running out a static attempt budget; the in-process engine stops at
        the proposal batch that holds the target.
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
        replay.
        """
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
        # post-gap chunk's releases would count toward its lane's target and
        # could stop assignment before the gap is ever filled, silently
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
            self.start()
            self._chunk_retries = {}  # fresh crash-retry budget per job
            self._run_on_pool(job, reports, tracker, run_id)
        return self._finalize(job, reports)

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
        prefix = _FoldPrefix(job, reports)
        cursors = _LaneCursors(job, reports)
        requeued: deque[int] = deque()

        def dispatch() -> None:
            # A worker that died idle gets nothing: its death is reported
            # next, and a chunk it never received must not be charged for it.
            for worker in self._workers:
                if worker.task is None and worker.process.is_alive():
                    index = requeued.popleft() if requeued else cursors.next_chunk(
                        other.task
                        for other in self._workers
                        if isinstance(other.task, _Assignment) and other.task.job_id == job.job_id
                    )
                    if index is None:
                        return
                    worker.task = job.assignment(index)
                    try:
                        worker.conn.send(worker.task)
                    except OSError:
                        pass  # the worker just died: its death requeues the task

        dispatch()
        while not prefix.all_satisfied():
            for slot, message in self._events():
                if message is None:
                    lost = self._respawn(slot)
                    if lost is not None and lost.job_id == job.job_id:
                        requeued.append(self._charge(lost.index))
                    dispatch()
                    continue
                job_id, index, released, payload = message
                self._workers[slot].task = None
                if job_id is None and payload is not None:
                    self._broken = True
                    raise EngineBrokenError(
                        f"a respawned engine worker failed to start:\n{payload}"
                    )
                if job_id != job.job_id:
                    dispatch()
                    continue  # a startup report, or a late result of an abandoned job
                if isinstance(payload, str):
                    raise RuntimeError(f"engine worker failed:\n{payload}")
                cursors.receive(index, released, len(payload["passed"]))
                dispatch()
                report = SynthesisReport.from_arrays(self._schema, payload)
                reports[index] = report
                self._save_checkpoint(run_id, index, payload)
                tracker.emit(index, report)
                prefix.advance(job.entry(index)[0])

    def _events(self) -> list[tuple[int, tuple | None]]:
        """Block until workers send a message or die: ``(slot, message)`` each.

        ``message`` is None for a dead worker.  A worker's pipe closes only
        when the worker exits, so a ready slot's pipe holds a message or ends:
        ``recv`` returns a complete message before the death is reported on a
        later call, and a message a SIGKILL cut short truncates only that
        worker's own pipe and reads as its death.
        """
        events = []
        for slot in sorted({key.data for key, _ in self._selector.select()}):
            try:
                events.append((slot, self._workers[slot].conn.recv()))
            except (EOFError, OSError):
                events.append((slot, None))
        return events

    def _respawn(self, slot: int) -> _Assignment | None:
        """Replace the dead worker of ``slot``; return the chunk it lost."""
        worker = self._workers[slot]
        lost = worker.task if isinstance(worker.task, _Assignment) else None
        self._worker_restarts += 1
        self._emit_event(
            "worker_restart", {"slot": slot, "lost_chunk": -1 if lost is None else lost.index}
        )
        # Unwatched before its descriptors close, so the new worker's may
        # reuse their numbers.
        self._selector.unregister(worker.conn)
        self._selector.unregister(worker.process.sentinel)
        worker.process.kill()  # a worker whose pipe broke is exiting anyway
        worker.process.join()
        worker.conn.close()
        self._workers[slot] = self._spawn_worker(slot)  # raises EngineBrokenError on failure
        return lost

    def _charge(self, index: int) -> int:
        """Charge a lost chunk one crash; past ``max_chunk_retries`` fail the job."""
        retries = self._chunk_retries.get(index, 0)
        if retries >= self._max_chunk_retries:
            raise ChunkRetryExhaustedError(
                f"chunk {index} crashed its worker more than max_chunk_retries="
                f"{self._max_chunk_retries} times; the job was abandoned but the "
                "pool has been repaired and the engine remains usable",
                chunk_indices=(index,),
            )
        self._chunk_retries[index] = retries + 1
        self._emit_event("chunk_retry", {"chunk": index, "retries": retries + 1})
        return index

    def _emit_event(self, kind: str, payload: dict) -> None:
        """Forward one supervision event to the telemetry sink, if any."""
        if self._event_sink is not None:
            self._event_sink(kind, payload)

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
        lifetime; ``chunk_retries`` maps chunk index to crash re-executions
        for the most recent pool job; ``workers_alive`` is the live process
        count (0 in-process, where there is no pool to supervise).
        ``pool_rebuilds`` is always 0, since no fault needs a new pool; the
        key stays because perfbench's ``engine.retries`` reads it.
        """
        return {
            "num_workers": self._num_workers,
            "workers_alive": sum(1 for worker in self._workers if worker.process.is_alive()),
            "worker_restarts": self._worker_restarts,
            "pool_rebuilds": 0,
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

    def _save_checkpoint(self, run_id: str | None, index: int, arrays: Mapping) -> None:
        """Store one chunk's columns in the narrow form the workers send."""
        if self._run_store is not None and run_id is not None:
            self._run_store.save_chunk(run_id, index, narrow_columns(arrays))


class _LaneCursors:
    """Which chunk the pool assigns next, lane by lane in lane-local order.

    Each lane keeps a cursor at its next unassigned chunk, and the releases
    and attempts of its received chunks.  A lane is *covered* while its
    received releases plus its in-flight attempts at its received pass rate
    reach its target; a covered lane gets no further chunk.  With no received
    chunk a lane is never covered (unless its target is 0), so it speculates
    as far as the pool has workers.  Because a lane's chunks are assigned in
    order, once its received chunks alone hold its target every chunk its
    contiguous prefix needs is received or in flight.
    """

    def __init__(self, job: _Job, reports: Mapping[int, SynthesisReport]):
        self._job = job
        self._next = [0] * len(job.lanes)
        self._released = [0] * len(job.lanes)
        self._attempts = [0] * len(job.lanes)
        for index, report in reports.items():
            self.receive(index, report.num_released, report.num_attempts)

    def receive(self, index: int, released: int, attempts: int) -> None:
        """Count one received chunk toward its lane's pass rate."""
        lane_index = self._job.entry(index)[0]
        self._released[lane_index] += released
        self._attempts[lane_index] += attempts

    def next_chunk(self, in_flight: Iterable[_Assignment]) -> int | None:
        """The next chunk of the lowest uncovered lane, or None if no lane needs one."""
        job = self._job
        pending = [0] * len(job.lanes)
        for task in in_flight:
            pending[job.entry(task.index)[0]] += task.attempts
        for lane_index, lane in enumerate(job.lanes):
            chunks = job.lane_chunks(lane_index)
            local = self._next[lane_index]
            while local < len(chunks) and chunks[local] in job.completed:
                local += 1
            self._next[lane_index] = local
            if local == len(chunks) or self._covered(lane_index, pending[lane_index]):
                continue
            self._next[lane_index] = local + 1
            return chunks[local]
        return None

    def _covered(self, lane_index: int, pending_attempts: int) -> bool:
        target = self._job.lanes[lane_index].target_released
        if target is None:
            return False
        released, attempts = self._released[lane_index], self._attempts[lane_index]
        expected = released + (pending_attempts * released / attempts if attempts else 0)
        return expected >= target


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
