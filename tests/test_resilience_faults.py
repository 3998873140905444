"""The fault-injection harness itself: registration, matching, kinds."""

import time

import pytest

from repro.resilience import faults
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceeded


class BoomError(RuntimeError):
    pass


class TestRegistry:
    def test_inactive_by_default(self):
        assert not faults.active()
        faults.fire("anything")  # no-op

    def test_inject_and_clear(self):
        faults.inject("a.site", error=BoomError("x"))
        assert faults.active()
        faults.clear()
        assert not faults.active()
        faults.fire("a.site")  # cleared fault no longer strikes

    def test_remove_single_fault(self):
        first = faults.inject("a", error=BoomError())
        faults.inject("b", error=BoomError())
        faults.remove(first)
        assert faults.active()  # "b" still registered
        faults.fire("a")  # removed fault is inert
        with pytest.raises(BoomError):
            faults.fire("b")

    def test_injected_context_manager(self):
        with faults.injected("ctx.site", error=BoomError()):
            with pytest.raises(BoomError):
                faults.fire("ctx.site")
        assert not faults.active()
        faults.fire("ctx.site")


class TestMatching:
    def test_exact_site_match(self):
        with faults.injected("twig.twig_stack", error=BoomError()):
            faults.fire("twig.path_stack")  # different site: no strike
            with pytest.raises(BoomError):
                faults.fire("twig.twig_stack")

    def test_wildcard_match(self):
        with faults.injected("twig.*", error=BoomError()):
            faults.fire("keyword.slca")
            with pytest.raises(BoomError):
                faults.fire("twig.merge")


class TestDeterminism:
    def test_times_limits_strikes(self):
        with faults.injected("s", error=BoomError(), times=2) as fault:
            with pytest.raises(BoomError):
                faults.fire("s")
            with pytest.raises(BoomError):
                faults.fire("s")
            faults.fire("s")  # third hit passes through
            assert fault.fired == 2
            assert fault.hits == 3

    def test_skip_delays_first_strike(self):
        with faults.injected("s", error=BoomError(), skip=2):
            faults.fire("s")
            faults.fire("s")
            with pytest.raises(BoomError):
                faults.fire("s")

    def test_skip_then_times(self):
        with faults.injected("s", error=BoomError(), skip=1, times=1):
            faults.fire("s")
            with pytest.raises(BoomError):
                faults.fire("s")
            faults.fire("s")


class TestKinds:
    def test_error_class_is_instantiated(self):
        with faults.injected("s", error=BoomError):
            with pytest.raises(BoomError):
                faults.fire("s")

    def test_latency_sleeps(self):
        with faults.injected("s", latency_s=0.05):
            started = time.perf_counter()
            faults.fire("s")
            assert time.perf_counter() - started >= 0.04

    def test_exhaust_deadline_trips_without_waiting(self):
        deadline = Deadline.none()
        with faults.injected("s", exhaust_deadline=True):
            started = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                deadline.check("s")
            assert time.perf_counter() - started < 0.1  # no real sleep
        assert deadline.tripped

    def test_exhaust_without_deadline_is_harmless(self):
        with faults.injected("s", exhaust_deadline=True):
            faults.fire("s", deadline=None)

    def test_deadline_check_is_a_fault_point(self):
        deadline = Deadline.none()
        with faults.injected("my.loop", error=BoomError()):
            with pytest.raises(BoomError):
                deadline.check("my.loop")


class TestSpecParsing:
    def test_single_error_entry(self):
        (fault,) = faults.parse_spec("fleet.replica.0.1:error=crash")
        assert fault.site == "fleet.replica.0.1"
        assert isinstance(fault.error, RuntimeError)
        assert str(fault.error) == "crash"

    def test_multiple_entries_and_options(self):
        parsed = faults.parse_spec(
            "a:latency=0.05,times=3;b.*:error=x,skip=2;c:exhaust=1"
        )
        assert [fault.site for fault in parsed] == ["a", "b.*", "c"]
        assert parsed[0].latency_s == 0.05
        assert parsed[0].times == 3
        assert parsed[1].skip == 2
        assert parsed[2].exhaust_deadline is True

    def test_empty_and_whitespace_entries_are_skipped(self):
        assert faults.parse_spec("") == []
        assert faults.parse_spec(" ; ;") == []

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError):
            faults.parse_spec("site:frobnicate=1")
        # ``exit`` is unknown too: shard tasks run in the serving process,
        # so a process-killing fault would take the server down with it.
        with pytest.raises(ValueError):
            faults.parse_spec("d:exit=9")

    def test_missing_site_rejected(self):
        with pytest.raises(ValueError):
            faults.parse_spec(":error=x")

    def test_install_spec_registers_and_strikes(self):
        faults.install_spec("spec.site:error=boom,times=1")
        with pytest.raises(RuntimeError, match="boom"):
            faults.fire("spec.site")
        faults.fire("spec.site")  # times=1 exhausted

    def test_install_from_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "env.site:error=zap")
        installed = faults.install_from_env()
        assert len(installed) == 1
        with pytest.raises(RuntimeError, match="zap"):
            faults.fire("env.site")

    def test_install_from_env_unset_is_noop(self, monkeypatch):
        monkeypatch.delenv(faults.FAULT_SPEC_ENV, raising=False)
        assert faults.install_from_env() == []
