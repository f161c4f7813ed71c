"""Multi-tenant synthesis-as-a-service subsystem (``repro serve``).

Layers the paper's seed-based synthesis pipeline into a long-running serving
system: a fit-once :class:`ModelRegistry` of content-hashed published models,
budget-governed :class:`TenantSession` handles with an auditable spend
ledger, a folding :class:`RequestScheduler` that fuses concurrent same-model
requests into one multi-lane engine job over a bounded :class:`EnginePool`
of supervised :class:`~repro.core.engine.SynthesisEngine` instances
(per-request counter-addressed attempt streams keep any folding or
interleaving bit-identical to serial service), and a stdlib JSON/HTTP front end
(:class:`ServiceApp`, :func:`build_server`).
"""

from repro.service.api import (
    ReleaseRecord,
    ServiceApp,
    ServiceError,
    build_server,
    derive_request_seed,
)
from repro.service.engine_pool import EngineLease, EnginePool, WorkerBudgetError
from repro.service.journal import BudgetJournal, JournalCorruptionError, read_journal
from repro.service.registry import ModelRegistry, PublishedModel
from repro.service.scheduler import (
    DeadlineExceededError,
    GenerateRequest,
    QueueFullError,
    RequestScheduler,
    SchedulerStats,
    SchedulerStoppedError,
)
from repro.service.session import (
    BudgetExceededError,
    Reservation,
    SessionBudget,
    TenantSession,
)

__all__ = [
    "BudgetExceededError",
    "BudgetJournal",
    "DeadlineExceededError",
    "EngineLease",
    "EnginePool",
    "GenerateRequest",
    "JournalCorruptionError",
    "ModelRegistry",
    "PublishedModel",
    "QueueFullError",
    "ReleaseRecord",
    "RequestScheduler",
    "Reservation",
    "SchedulerStats",
    "SchedulerStoppedError",
    "ServiceApp",
    "ServiceError",
    "SessionBudget",
    "TenantSession",
    "WorkerBudgetError",
    "build_server",
    "derive_request_seed",
    "read_journal",
]
