"""FaultInjector and RetryPolicy determinism and rule matching."""

import pytest

from repro.common.errors import (
    OverloadedError,
    RegionOfflineError,
    TransientRpcError,
)
from repro.common.faults import (
    FAULT_ADMISSION,
    FAULT_RPC,
    FaultInjector,
    FaultRule,
    raise_overloaded,
    raise_stale_meta,
)
from repro.common.metrics import CostLedger
from repro.common.retry import RetryPolicy, stable_fraction


def fire_schedule(seed, n=40, rate=0.3):
    injector = FaultInjector(seed=seed)
    injector.inject(FAULT_RPC, rate=rate)
    fired = []
    for i in range(n):
        try:
            injector.check(FAULT_RPC, key="r1")
            fired.append(False)
        except TransientRpcError:
            fired.append(True)
    return fired


def test_same_seed_same_schedule():
    assert fire_schedule(7) == fire_schedule(7)


def test_different_seeds_differ():
    schedules = {tuple(fire_schedule(seed)) for seed in range(5)}
    assert len(schedules) > 1


def test_rate_zero_never_fires_and_rate_one_always_fires():
    assert not any(fire_schedule(1, rate=0.0))
    assert all(fire_schedule(1, rate=1.0))


def test_no_rules_is_a_noop():
    injector = FaultInjector()
    assert injector.check(FAULT_RPC, key="anything") is None
    assert injector.injected() == 0


def test_times_caps_total_fires():
    injector = FaultInjector()
    rule = injector.inject(FAULT_RPC, rate=1.0, times=3)
    hits = 0
    for __ in range(10):
        try:
            injector.check(FAULT_RPC, key="r")
        except TransientRpcError:
            hits += 1
    assert hits == 3
    assert rule.fired == 3
    assert injector.injected(FAULT_RPC) == 3


def test_after_skips_early_invocations():
    injector = FaultInjector()
    injector.inject(FAULT_RPC, rate=1.0, after=2, times=1)
    fired_at = []
    for i in range(5):
        try:
            injector.check(FAULT_RPC, key="r")
        except TransientRpcError:
            fired_at.append(i)
    assert fired_at == [2]


def test_key_and_substr_matching():
    injector = FaultInjector()
    injector.inject(FAULT_RPC, rate=1.0, key="exact", times=1)
    injector.inject(FAULT_RPC, rate=1.0, key_substr="part", times=1)
    assert injector.check(FAULT_RPC, key="other") is None
    with pytest.raises(TransientRpcError):
        injector.check(FAULT_RPC, key="exact")
    with pytest.raises(TransientRpcError):
        injector.check(FAULT_RPC, key="has-partial-match")
    rule = FaultRule(point=FAULT_RPC, key="exact", key_substr="xa")
    assert rule.matches("exact")
    assert not rule.matches("exacto")


def test_keys_count_invocations_independently():
    """`after` applies per key: each key has its own invocation counter."""
    injector = FaultInjector()
    injector.inject(FAULT_RPC, rate=1.0, after=1)
    assert injector.check(FAULT_RPC, key="a") is None
    assert injector.check(FAULT_RPC, key="b") is None
    with pytest.raises(TransientRpcError):
        injector.check(FAULT_RPC, key="a")


def test_custom_action_and_ledger_counter():
    injector = FaultInjector()
    injector.inject(FAULT_RPC, rate=1.0, times=1, action=raise_stale_meta)
    ledger = CostLedger()
    with pytest.raises(RegionOfflineError):
        injector.check(FAULT_RPC, key="r", ledger=ledger)
    assert ledger.metrics.get("faults.injected") == 1
    assert injector.metrics.get("faults.injected") == 1
    assert injector.metrics.get(f"faults.injected.{FAULT_RPC}") == 1


def test_admission_point_defaults_to_overloaded_error():
    """FAULT_ADMISSION rules without an action shed, not RPC-fail."""
    injector = FaultInjector(seed=5)
    injector.inject(FAULT_ADMISSION, rate=1.0, times=1)
    with pytest.raises(OverloadedError) as err:
        injector.check(FAULT_ADMISSION, key="tenant-a")
    assert err.value.reason == "injected"
    assert err.value.tenant == "tenant-a"
    assert err.value.retry_after_s == 1.0
    assert injector.injected(FAULT_ADMISSION) == 1
    assert injector.metrics.get(f"faults.injected.{FAULT_ADMISSION}") == 1


def test_admission_overload_carries_site_retry_after():
    injector = FaultInjector()
    injector.inject(FAULT_ADMISSION, rate=1.0, times=1,
                    action=raise_overloaded)
    with pytest.raises(OverloadedError) as err:
        injector.check(FAULT_ADMISSION, key="t", retry_after_s=7.5)
    assert err.value.retry_after_s == 7.5


def test_admission_schedule_is_seeded_and_keyed():
    """Partial-rate admission faults replay identically for a seed and
    count invocations per tenant key, like every other fault point."""
    def schedule(seed):
        injector = FaultInjector(seed=seed)
        injector.inject(FAULT_ADMISSION, rate=0.4)
        fired = []
        for i in range(30):
            try:
                injector.check(FAULT_ADMISSION, key="tenant-a")
                fired.append(False)
            except OverloadedError:
                fired.append(True)
        return fired

    assert schedule(101) == schedule(101)
    assert schedule(101) != schedule(202)
    assert 0 < sum(schedule(101)) < 30


def test_stable_fraction_is_stable_and_bounded():
    assert stable_fraction("a", 1) == stable_fraction("a", 1)
    assert stable_fraction("a", 1) != stable_fraction("a", 2)
    for i in range(50):
        assert 0.0 <= stable_fraction("k", i) < 1.0


def test_retry_policy_backoff_grows_and_caps():
    policy = RetryPolicy(max_attempts=6, base_backoff_s=0.1, max_backoff_s=0.5)
    backoffs = [policy.backoff_s(a, key="op") for a in (1, 2, 3, 4, 5)]
    # jitter is +/-50% around the raw value, so attempt 1 stays under
    # 1.5 * base and nothing exceeds 1.5 * max_backoff_s
    assert 0.05 <= backoffs[0] < 0.15
    assert all(0.25 <= b < 0.75 for b in backoffs[3:])
    assert max(backoffs) < 0.5 * 1.5
    assert policy.backoff_s(1, key="op") == policy.backoff_s(1, key="op")
    assert policy.backoff_s(1, key="x") != policy.backoff_s(1, key="y")


def test_retry_policy_limits():
    policy = RetryPolicy(max_attempts=3, deadline_s=1.0)
    assert policy.allows_retry(1) and policy.allows_retry(2)
    assert not policy.allows_retry(3)
    assert policy.within_deadline(0.99)
    assert not policy.within_deadline(1.01)
    unbounded = RetryPolicy(deadline_s=None)
    assert unbounded.within_deadline(1e9)


def test_backoff_rejects_attempt_zero():
    with pytest.raises(ValueError):
        RetryPolicy().backoff_s(0)
