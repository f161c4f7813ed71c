"""Per-rule fixture pairs for the static invariant checker.

Every rule gets a minimal violating snippet and a minimal clean twin, checked
through :func:`repro.analysis.check_source` so the fixtures live next to the
assertions instead of in a fixture tree (and never trip the checker's own
``tests/`` path suppression).
"""

from __future__ import annotations

import pytest

from repro.analysis import all_rules, check_source

pytestmark = [pytest.mark.analysis, pytest.mark.conformance_smoke]


def rules_fired(source: str, path: str = "src/repro/core/mod.py") -> list[str]:
    return [finding.rule for finding in check_source(source, path=path)]


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_all_families_registered(self):
        families = {rule.family for rule in all_rules()}
        assert families == {"rng", "privacy", "lock", "det", "robust", "obs"}

    def test_rule_ids_unique_and_prefixed(self):
        rules = all_rules()
        ids = [rule.id for rule in rules]
        assert len(ids) == len(set(ids))
        for rule in rules:
            assert rule.id.startswith(f"{rule.family}-")
            assert rule.summary


# --------------------------------------------------------------------------- #
# rng family
# --------------------------------------------------------------------------- #
class TestRngModuleCall:
    def test_numpy_global_call_flagged(self):
        source = (
            "import numpy as np\n"
            "def draw(count):\n"
            "    return np.random.normal(size=count)\n"
        )
        assert "rng-module-call" in rules_fired(source)

    def test_stdlib_random_flagged(self):
        source = (
            "import random\n"
            "def pick(items):\n"
            "    return random.choice(items)\n"
        )
        assert "rng-module-call" in rules_fired(source)

    def test_explicit_generator_clean(self):
        source = (
            "def draw(count, rng):\n"
            "    return rng.normal(size=count)\n"
        )
        assert "rng-module-call" not in rules_fired(source)

    def test_generator_constructors_allowed(self):
        source = (
            "import numpy as np\n"
            "def make(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert "rng-module-call" not in rules_fired(source)


class TestRngConstantSeed:
    def test_unseeded_default_rng_flagged(self):
        source = (
            "import numpy as np\n"
            "def sample():\n"
            "    rng = np.random.default_rng()\n"
            "    return rng\n"
        )
        assert "rng-constant-seed" in rules_fired(source)

    def test_constant_seed_flagged(self):
        source = (
            "import numpy as np\n"
            "def sample():\n"
            "    return np.random.default_rng(0)\n"
        )
        assert "rng-constant-seed" in rules_fired(source)

    def test_hidden_constant_fallback_flagged(self):
        source = (
            "import numpy as np\n"
            "def sample(seed=None):\n"
            "    return np.random.default_rng(seed if seed is not None else 0)\n"
        )
        assert "rng-constant-seed" in rules_fired(source)

    def test_threaded_seed_clean(self):
        source = (
            "import numpy as np\n"
            "def sample(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert "rng-constant-seed" not in rules_fired(source)

    def test_constant_attempt_stream_key_flagged(self):
        # A base seed in scope does not excuse a literal key next to it.
        source = (
            "def release(mechanism, count, base_seed):\n"
            "    return mechanism.run_attempts(count, attempt_stream(7))\n"
        )
        assert "rng-constant-seed" in rules_fired(source)

    def test_constant_seed_fine_in_tests(self):
        source = (
            "import numpy as np\n"
            "def test_sample():\n"
            "    return np.random.default_rng(0)\n"
        )
        assert rules_fired(source, path="tests/core/test_mod.py") == []


class TestRngMissingParam:
    #: repro functions that draw from an rng argument.
    REPRO_SAMPLERS = (
        "laplace_noise", "laplace_mechanism", "sample_dirichlet_rows", "attempt_stream"
    )

    def test_hidden_stream_flagged(self):
        source = (
            "def sample_rows(count):\n"
            "    gen = make_stream()\n"
            "    return gen.normal(size=count)\n"
        )
        assert "rng-missing-param" in rules_fired(source)

    def test_rng_parameter_clean(self):
        source = (
            "def sample_rows(count, rng):\n"
            "    return rng.normal(size=count)\n"
        )
        assert "rng-missing-param" not in rules_fired(source)

    def test_seed_attribute_counts_as_source(self):
        # `job.base_seed` is explicit plumbing even without a named parameter.
        source = (
            "def worker(job):\n"
            "    stream = attempt_stream(job.base_seed)\n"
            "    return stream.take(8, 4)\n"
        )
        assert "rng-missing-param" not in rules_fired(source)

    def test_attempt_stream_from_a_constant_key_flagged(self):
        # A release drawn from a literal key ignores the caller's base seed:
        # every call would re-release the same rows.
        source = (
            "def release(mechanism, count):\n"
            "    return mechanism.run_attempts(count, attempt_stream(0))\n"
        )
        fired = rules_fired(source)
        assert "rng-missing-param" in fired
        assert "rng-constant-seed" in fired

    def test_attempt_stream_from_the_callers_base_seed_clean(self):
        source = (
            "def release(mechanism, count, base_seed):\n"
            "    return mechanism.run_attempts(count, attempt_stream(base_seed))\n"
        )
        fired = rules_fired(source)
        assert "rng-missing-param" not in fired
        assert "rng-constant-seed" not in fired

    def test_closure_inherits_enclosing_rng(self):
        source = (
            "def outer(rng):\n"
            "    def inner(count):\n"
            "        return rng.normal(size=count)\n"
            "    return inner\n"
        )
        assert "rng-missing-param" not in rules_fired(source)

    @pytest.mark.parametrize("func", REPRO_SAMPLERS)
    def test_repro_sampler_without_rng_flagged(self, func):
        source = (
            "def draw(values):\n"
            "    gen = make_stream()\n"
            f"    return {func}(values, gen)\n"
        )
        assert "rng-missing-param" in rules_fired(source)

    @pytest.mark.parametrize("func", REPRO_SAMPLERS)
    def test_repro_sampler_with_rng_clean(self, func):
        source = (
            "def draw(values, rng):\n"
            f"    return {func}(values, rng)\n"
        )
        assert "rng-missing-param" not in rules_fired(source)


# --------------------------------------------------------------------------- #
# privacy family
# --------------------------------------------------------------------------- #
PRIVACY_PATH = "src/repro/privacy/mod.py"


class TestPrivacyUnrecordedNoise:
    def test_unaccounted_noise_flagged(self):
        source = (
            "def add_noise(values, rng):\n"
            "    return values + laplace_noise(1.0, rng)\n"
        )
        assert "privacy-unrecorded-noise" in rules_fired(source, path=PRIVACY_PATH)

    def test_spend_in_frame_clean(self):
        source = (
            "def add_noise(values, rng, accountant):\n"
            "    accountant.spend('noise', 1.0)\n"
            "    return values + laplace_noise(1.0, rng)\n"
        )
        assert "privacy-unrecorded-noise" not in rules_fired(source, path=PRIVACY_PATH)

    def test_spend_in_local_caller_clean(self):
        source = (
            "def release(values, rng, accountant):\n"
            "    accountant.spend('release', 1.0)\n"
            "    return _noisy(values, rng)\n"
            "def _noisy(values, rng):\n"
            "    return values + laplace_noise(1.0, rng)\n"
        )
        assert "privacy-unrecorded-noise" not in rules_fired(source, path=PRIVACY_PATH)

    def test_rule_scoped_to_privacy_paths(self):
        source = (
            "def add_noise(values, rng):\n"
            "    return values + laplace_noise(1.0, rng)\n"
        )
        assert "privacy-unrecorded-noise" not in rules_fired(
            source, path="src/repro/service/mod.py"
        )


class TestPrivacyReadBeforeSpend:
    def test_read_before_spend_flagged(self):
        source = (
            "def run(accountant):\n"
            "    before = accountant.total_guarantee()\n"
            "    accountant.spend('q', 0.5)\n"
            "    return before\n"
        )
        assert "privacy-read-before-spend" in rules_fired(source, path=PRIVACY_PATH)

    def test_read_after_spend_clean(self):
        source = (
            "def run(accountant):\n"
            "    accountant.spend('q', 0.5)\n"
            "    return accountant.total_guarantee()\n"
        )
        assert "privacy-read-before-spend" not in rules_fired(source, path=PRIVACY_PATH)


# --------------------------------------------------------------------------- #
# lock family
# --------------------------------------------------------------------------- #
class TestLockGuardedAttr:
    VIOLATING = (
        "import threading\n"
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._value = 0  # repro: guarded-by[_lock]\n"
        "    def bump(self):\n"
        "        self._value += 1\n"
    )
    CLEAN = (
        "import threading\n"
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._value = 0  # repro: guarded-by[_lock]\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self._value += 1\n"
    )

    def test_unguarded_touch_flagged(self):
        assert "lock-guarded-attr" in rules_fired(self.VIOLATING)

    def test_touch_under_lock_clean(self):
        assert "lock-guarded-attr" not in rules_fired(self.CLEAN)

    def test_init_exempt(self):
        # The declaration itself (in __init__) must not count as a violation.
        fired = [f for f in rules_fired(self.CLEAN) if f == "lock-guarded-attr"]
        assert fired == []

    def test_closure_does_not_inherit_lock(self):
        source = (
            "import threading\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._value = 0  # repro: guarded-by[_lock]\n"
            "    def bump_async(self):\n"
            "        with self._lock:\n"
            "            def task():\n"
            "                self._value += 1\n"
            "            return task\n"
        )
        assert "lock-guarded-attr" in rules_fired(source)

    def test_condition_on_owned_lock_holds_it(self):
        # A Condition built on the class's own lock shares that lock, so
        # `with self._cond:` guards `guarded-by[_lock]` state (EnginePool).
        source = (
            "import threading\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._cond = threading.Condition(self._lock)\n"
            "        self._value = 0  # repro: guarded-by[_lock]\n"
            "    def bump(self):\n"
            "        with self._cond:\n"
            "            self._value += 1\n"
            "            self._cond.notify_all()\n"
        )
        assert "lock-guarded-attr" not in rules_fired(source)

    def test_freestanding_condition_is_not_the_lock(self):
        # A Condition with its own internal lock does NOT guard _lock state.
        source = (
            "import threading\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._cond = threading.Condition()\n"
            "        self._value = 0  # repro: guarded-by[_lock]\n"
            "    def bump(self):\n"
            "        with self._cond:\n"
            "            self._value += 1\n"
        )
        assert "lock-guarded-attr" in rules_fired(source)


class TestLockRequiresHeld:
    def test_call_without_lock_flagged(self):
        source = (
            "import threading\n"
            "class Ledger:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def _add_locked(self, amount):  # repro: requires-lock[_lock]\n"
            "        pass\n"
            "    def add(self, amount):\n"
            "        self._add_locked(amount)\n"
        )
        assert "lock-requires-held" in rules_fired(source)

    def test_call_under_lock_clean(self):
        source = (
            "import threading\n"
            "class Ledger:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def _add_locked(self, amount):  # repro: requires-lock[_lock]\n"
            "        pass\n"
            "    def add(self, amount):\n"
            "        with self._lock:\n"
            "            self._add_locked(amount)\n"
        )
        assert "lock-requires-held" not in rules_fired(source)

    def test_annotated_callee_may_call_siblings(self):
        source = (
            "import threading\n"
            "class Ledger:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def _add_locked(self, amount):  # repro: requires-lock[_lock]\n"
            "        self._note_locked(amount)\n"
            "    def _note_locked(self, amount):  # repro: requires-lock[_lock]\n"
            "        pass\n"
        )
        assert "lock-requires-held" not in rules_fired(source)


class TestLockPickle:
    def test_getstate_keeping_lock_flagged(self):
        source = (
            "import threading\n"
            "class Holder:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def __getstate__(self):\n"
            "        return self.__dict__.copy()\n"
        )
        assert "lock-pickle" in rules_fired(source)

    def test_getstate_stripping_lock_clean(self):
        source = (
            "import threading\n"
            "class Holder:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def __getstate__(self):\n"
            "        state = self.__dict__.copy()\n"
            "        del state['_lock']\n"
            "        return state\n"
        )
        assert "lock-pickle" not in rules_fired(source)

    def test_reduce_on_lock_owner_flagged(self):
        source = (
            "import threading\n"
            "class Holder:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def __reduce__(self):\n"
            "        return (Holder, ())\n"
        )
        assert "lock-pickle" in rules_fired(source)


# --------------------------------------------------------------------------- #
# det family
# --------------------------------------------------------------------------- #
class TestDetWallClock:
    def test_time_time_flagged(self):
        source = (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        assert "det-wall-clock" in rules_fired(source)

    def test_datetime_now_flagged(self):
        source = (
            "import datetime\n"
            "def stamp():\n"
            "    return datetime.datetime.now()\n"
        )
        assert "det-wall-clock" in rules_fired(source)

    def test_perf_counter_clean(self):
        # Interval timing is fine; only absolute wall-clock reads are flagged.
        source = (
            "import time\n"
            "def measure():\n"
            "    return time.perf_counter()\n"
        )
        assert "det-wall-clock" not in rules_fired(source)


class TestDetSetIteration:
    def test_for_over_set_flagged(self):
        source = (
            "def collect(values):\n"
            "    out = []\n"
            "    for value in set(values):\n"
            "        out.append(value)\n"
            "    return out\n"
        )
        assert "det-set-iteration" in rules_fired(source)

    def test_comprehension_over_set_flagged(self):
        source = (
            "def collect(values):\n"
            "    return [value for value in {1, 2, 3}]\n"
        )
        assert "det-set-iteration" in rules_fired(source)

    def test_join_over_set_flagged(self):
        source = (
            "def label(names):\n"
            "    return ','.join({name for name in names})\n"
        )
        assert "det-set-iteration" in rules_fired(source)

    def test_sorted_set_clean(self):
        source = (
            "def collect(values):\n"
            "    out = []\n"
            "    for value in sorted(set(values)):\n"
            "        out.append(value)\n"
            "    return out\n"
        )
        assert "det-set-iteration" not in rules_fired(source)


class TestDetUnsortedJson:
    def test_digest_without_sort_keys_flagged(self):
        source = (
            "import json\n"
            "def digest(payload):\n"
            "    return json.dumps(payload)\n"
        )
        assert "det-unsorted-json" in rules_fired(source)

    def test_digest_with_sort_keys_clean(self):
        source = (
            "import json\n"
            "def digest(payload):\n"
            "    return json.dumps(payload, sort_keys=True)\n"
        )
        assert "det-unsorted-json" not in rules_fired(source)

    def test_non_digest_scope_not_flagged(self):
        source = (
            "import json\n"
            "def render(payload):\n"
            "    return json.dumps(payload)\n"
        )
        assert "det-unsorted-json" not in rules_fired(source)


# --------------------------------------------------------------------------- #
# robust family
# --------------------------------------------------------------------------- #
class TestRobustSwallowedException:
    def test_bare_except_pass_flagged(self):
        source = (
            "def teardown(worker):\n"
            "    try:\n"
            "        worker.stop()\n"
            "    except:\n"
            "        pass\n"
        )
        assert "robust-swallowed-exception" in rules_fired(source)

    def test_broad_except_pass_flagged_in_service(self):
        source = (
            "def settle(session):\n"
            "    try:\n"
            "        session.commit()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert "robust-swallowed-exception" in rules_fired(
            source, path="src/repro/service/mod.py"
        )

    def test_broad_tuple_with_ellipsis_body_flagged(self):
        source = (
            "def drain(queue):\n"
            "    try:\n"
            "        queue.get()\n"
            "    except (ValueError, BaseException):\n"
            "        ...\n"
        )
        assert "robust-swallowed-exception" in rules_fired(source)

    def test_named_exception_pass_clean(self):
        source = (
            "from queue import Empty\n"
            "def drain(queue):\n"
            "    try:\n"
            "        queue.get_nowait()\n"
            "    except Empty:\n"
            "        pass\n"
        )
        assert "robust-swallowed-exception" not in rules_fired(source)

    def test_handled_broad_except_clean(self):
        source = (
            "def guard(task, log):\n"
            "    try:\n"
            "        task()\n"
            "    except Exception as exc:\n"
            "        log.warning('task failed: %s', exc)\n"
        )
        assert "robust-swallowed-exception" not in rules_fired(source)

    def test_out_of_scope_package_clean(self):
        source = (
            "def teardown(worker):\n"
            "    try:\n"
            "        worker.stop()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert rules_fired(source, path="src/repro/experiments/mod.py") == []

    def test_inline_allow_suppresses(self):
        source = (
            "def teardown(worker):\n"
            "    try:\n"
            "        worker.stop()\n"
            "    # repro: allow[robust-swallowed-exception]\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert rules_fired(source) == []


# --------------------------------------------------------------------------- #
# obs family
# --------------------------------------------------------------------------- #
class TestObsUnclosedSpan:
    def test_bare_start_span_flagged(self):
        source = (
            "def handle(tracer, rid):\n"
            "    tracer.start_span(rid, 'request')\n"
            "    return do_work()\n"
        )
        assert "obs-unclosed-span" in rules_fired(source)

    def test_assigned_without_finally_flagged(self):
        source = (
            "def handle(tracer, rid):\n"
            "    span = tracer.start_span(rid, 'request')\n"
            "    result = do_work()\n"
            "    span.end()\n"
            "    return result\n"
        )
        assert "obs-unclosed-span" in rules_fired(source)

    def test_assigned_with_finally_end_clean(self):
        source = (
            "def handle(tracer, rid):\n"
            "    span = tracer.start_span(rid, 'request')\n"
            "    try:\n"
            "        return do_work()\n"
            "    finally:\n"
            "        span.end()\n"
        )
        assert "obs-unclosed-span" not in rules_fired(source)

    def test_context_manager_clean(self):
        source = (
            "def handle(tracer, rid):\n"
            "    with tracer.start_span(rid, 'request'):\n"
            "        return do_work()\n"
        )
        assert "obs-unclosed-span" not in rules_fired(source)

    def test_wrong_name_ended_in_finally_flagged(self):
        source = (
            "def handle(tracer, rid, other):\n"
            "    span = tracer.start_span(rid, 'request')\n"
            "    try:\n"
            "        return do_work()\n"
            "    finally:\n"
            "        other.end()\n"
        )
        assert "obs-unclosed-span" in rules_fired(source)

    def test_tests_and_out_of_scope_packages_clean(self):
        source = (
            "def handle(tracer, rid):\n"
            "    tracer.start_span(rid, 'request')\n"
        )
        assert rules_fired(source, path="src/repro/obs/mod.py") == []
        assert rules_fired(source, path="tests/service/test_mod.py") == []

    def test_inline_allow_suppresses(self):
        source = (
            "def handle(tracer, rid):\n"
            "    tracer.start_span(rid, 'request')  # repro: allow[obs-unclosed-span]\n"
        )
        assert rules_fired(source) == []


# --------------------------------------------------------------------------- #
# suppression and selection
# --------------------------------------------------------------------------- #
class TestSuppression:
    def test_inline_allow_suppresses_named_rule(self):
        source = (
            "import time\n"
            "def stamp():\n"
            "    return time.time()  # repro: allow[det-wall-clock]\n"
        )
        assert rules_fired(source) == []

    def test_allow_on_preceding_line_applies(self):
        source = (
            "import time\n"
            "def stamp():\n"
            "    # repro: allow[det-wall-clock]\n"
            "    return time.time()\n"
        )
        assert rules_fired(source) == []

    def test_allow_is_rule_specific(self):
        source = (
            "import time\n"
            "def stamp():\n"
            "    return time.time()  # repro: allow[rng-module-call]\n"
        )
        assert "det-wall-clock" in rules_fired(source)

    def test_select_restricts_families(self):
        source = (
            "import time\n"
            "import numpy as np\n"
            "def stamp():\n"
            "    np.random.shuffle([1])\n"
            "    return time.time()\n"
        )
        rng_only = [f.rule for f in check_source(source, select="rng")]
        assert rng_only == ["rng-module-call"]
