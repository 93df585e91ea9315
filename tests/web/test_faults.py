"""Unit tests for deterministic fault injection."""

import pytest

from repro.web.faults import (
    DEFAULT_FAULT_MIX,
    Fault,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.web.http import (
    ConnectTimeout,
    DnsFailure,
    ReadTimeout,
    ServerFault,
    TooManyRedirects,
    TruncatedBody,
)
from repro.web.resilience import SimulatedClock

DOMAINS = [f"domain{i}.com" for i in range(4000)]


def single_fault_plan(kind: FaultKind, **spec_kwargs) -> FaultPlan:
    return FaultPlan([FaultSpec(kind=kind, rate=1.0, **spec_kwargs)],
                     seed=1)


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        a = FaultPlan.uniform(0.3, seed=42)
        b = FaultPlan.uniform(0.3, seed=42)
        assert [a.fault_for(d) for d in DOMAINS[:500]] == \
            [b.fault_for(d) for d in DOMAINS[:500]]

    def test_different_seeds_differ(self):
        a = FaultPlan.uniform(0.3, seed=1)
        b = FaultPlan.uniform(0.3, seed=2)
        assert [a.fault_for(d) for d in DOMAINS[:500]] != \
            [b.fault_for(d) for d in DOMAINS[:500]]

    def test_decisions_are_order_independent(self):
        plan = FaultPlan.uniform(0.3, seed=9)
        forward = [plan.fault_for(d) for d in DOMAINS[:200]]
        backward = [plan.fault_for(d) for d in reversed(DOMAINS[:200])]
        assert forward == list(reversed(backward))

    def test_uniform_rate_is_respected(self):
        plan = FaultPlan.uniform(0.2, seed=3)
        hits = sum(1 for d in DOMAINS if plan.fault_for(d) is not None)
        assert 0.15 <= hits / len(DOMAINS) <= 0.25

    def test_zero_rate_injects_nothing(self):
        plan = FaultPlan.uniform(0.0, seed=3)
        assert all(plan.fault_for(d) is None for d in DOMAINS[:300])

    def test_full_rate_faults_everything(self):
        plan = FaultPlan.uniform(1.0, seed=3)
        assert all(plan.fault_for(d) is not None for d in DOMAINS[:300])

    def test_all_kinds_appear_in_uniform_mix(self):
        plan = FaultPlan.uniform(1.0, seed=3)
        kinds = {plan.fault_for(d).kind for d in DOMAINS}
        assert kinds == {kind for kind, _ in DEFAULT_FAULT_MIX}

    def test_domain_targeted_spec(self):
        plan = FaultPlan([FaultSpec(kind=FaultKind.DNS_FAILURE, rate=1.0,
                                    domains=frozenset({"victim.com"}))],
                         seed=0)
        assert plan.fault_for("victim.com").kind is FaultKind.DNS_FAILURE
        assert plan.fault_for("bystander.com") is None

    def test_group_targeted_spec(self):
        plan = FaultPlan([FaultSpec(kind=FaultKind.READ_TIMEOUT, rate=1.0,
                                    group_index=2)], seed=0)
        assert plan.fault_for("a.com", group_index=2) is not None
        assert plan.fault_for("a.com", group_index=0) is None

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.uniform(1.5)
        with pytest.raises(ValueError):
            FaultPlan([FaultSpec(kind=FaultKind.FLAKY, rate=-0.1)])

    def test_latency_is_deterministic_and_bounded(self):
        plan = FaultPlan.uniform(0.2, seed=5)
        for domain in DOMAINS[:100]:
            latency = plan.latency_for(domain)
            assert latency == plan.latency_for(domain)
            assert 0.05 <= latency <= 0.35

    def test_plan_seeded_from_injected_rng(self):
        a = FaultPlan.uniform(0.4, seed=11)
        b = FaultPlan.uniform(0.4, seed=11)
        assert [a.fault_for(d) for d in DOMAINS[:200]] == \
            [b.fault_for(d) for d in DOMAINS[:200]]


class TestInjectorVisitPath:
    @pytest.mark.parametrize("kind,exc", [
        (FaultKind.DNS_FAILURE, DnsFailure),
        (FaultKind.CONNECT_TIMEOUT, ConnectTimeout),
        (FaultKind.READ_TIMEOUT, ReadTimeout),
        (FaultKind.SERVER_ERROR, ServerFault),
        (FaultKind.TRUNCATED_BODY, TruncatedBody),
        (FaultKind.REDIRECT_LOOP, TooManyRedirects),
    ])
    def test_kind_raises_taxonomy_exception(self, kind, exc):
        injector = FaultInjector(single_fault_plan(kind))
        called = []
        with pytest.raises(exc):
            injector.run("x.com", lambda: called.append(1))
        assert not called, "failing attempts must not touch the browser"

    def test_slow_response_succeeds_but_burns_time(self):
        clock = SimulatedClock()
        injector = FaultInjector(
            single_fault_plan(FaultKind.SLOW_RESPONSE, slow_factor=30.0),
            clock=clock)
        assert injector.run("x.com", lambda: "page") == "page"
        assert clock.now() > injector.plan.latency_for("x.com") * 10

    def test_flaky_fails_then_succeeds(self):
        injector = FaultInjector(
            single_fault_plan(FaultKind.FLAKY, flaky_failures=2))
        for _ in range(2):
            with pytest.raises(ConnectTimeout):
                injector.run("x.com", lambda: "page")
        assert injector.run("x.com", lambda: "page") == "page"
        # Countdown is per-domain.
        with pytest.raises(ConnectTimeout):
            injector.run("y.com", lambda: "page")

    def test_reset_restores_flaky_budget(self):
        injector = FaultInjector(
            single_fault_plan(FaultKind.FLAKY, flaky_failures=1))
        with pytest.raises(ConnectTimeout):
            injector.run("x.com", lambda: "page")
        assert injector.run("x.com", lambda: "page") == "page"
        injector.reset()
        with pytest.raises(ConnectTimeout):
            injector.run("x.com", lambda: "page")

    def test_clean_domain_passes_through(self):
        injector = FaultInjector(FaultPlan.uniform(0.0, seed=0))
        assert injector.run("x.com", lambda: 42) == 42


class TestFaultDataclasses:
    def test_fault_is_frozen(self):
        fault = Fault(kind=FaultKind.FLAKY)
        with pytest.raises(Exception):
            fault.kind = FaultKind.DNS_FAILURE

    def test_spec_matching(self):
        spec = FaultSpec(kind=FaultKind.FLAKY, rate=0.5,
                         domains=frozenset({"a.com"}), group_index=1)
        assert spec.matches("a.com", 1)
        assert not spec.matches("a.com", 0)
        assert not spec.matches("b.com", 1)
