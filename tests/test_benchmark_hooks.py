"""The benchmark's traced runs wrap named entry points of ``repro``.

``perfbench/layers.py`` installs timing wrappers by attribute name, so a
renamed method would otherwise only surface as an ``AttributeError`` inside a
traced benchmark run.  This test installs and removes the wrappers in
process; it reads ``perfbench/`` and changes nothing there.
"""

import sys
from pathlib import Path

from repro.core import mechanism as mechanism_module
from repro.core.mechanism import SynthesisMechanism
from repro.core.results import COLUMNS, SynthesisReport
from repro.privacy.plausible_deniability import DeterministicPrivacyTest, RandomizedPrivacyTest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

HOOKS = [
    (SynthesisReport, "record"),
    (SynthesisReport, "merged"),
    (SynthesisReport, "to_arrays"),
    (SynthesisReport, "from_arrays"),
    (SynthesisMechanism, "propose_batch"),
    (SynthesisMechanism, "run_attempts"),
    (SynthesisMechanism, "prepare"),
    (DeterministicPrivacyTest, "results_from_counts"),
    (RandomizedPrivacyTest, "results_from_counts"),
    (mechanism_module, "partition_numbers"),
]


def test_every_traced_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    originals = [getattr(owner, name) for owner, name in HOOKS]
    try:
        import layers
        from spans import SpanRecorder

        patch = layers.install(SpanRecorder())
        try:
            for owner, name in HOOKS:
                assert hasattr(getattr(owner, name), "__wrapped__"), name
        finally:
            patch.restore()
    finally:
        for module in ("layers", "spans"):
            sys.modules.pop(module, None)
    for (owner, name), original in zip(HOOKS, originals):
        assert getattr(owner, name) == original, name
    # perfbench/bulk.py checks releases through these to_arrays() columns.
    assert {"passed", "candidates", "seed_indices", "plausible_seeds", "thresholds"} <= set(
        COLUMNS
    )
