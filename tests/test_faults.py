"""Fault-injection middleware: plan validation, datagram fates, determinism."""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.net.loss import BernoulliLoss, GilbertElliottLoss
from repro.runtime import (
    ChaosEvent,
    ChaosScenario,
    FaultInjector,
    FaultPlan,
    UDPHeartbeatListener,
    pack_heartbeat,
)


def run(coro):
    return asyncio.run(coro)


class TestFaultPlan:
    def test_defaults_are_clean(self):
        plan = FaultPlan()
        assert plan.drop == 0.0 and plan.loss is None and plan.delay == 0.0

    @pytest.mark.parametrize("knob", ["drop", "duplicate", "reorder", "truncate", "corrupt"])
    def test_probability_validation(self, knob):
        with pytest.raises(ConfigurationError):
            FaultPlan(**{knob: 1.5})
        with pytest.raises(ConfigurationError):
            FaultPlan(**{knob: -0.1})

    @pytest.mark.parametrize("knob", ["delay", "jitter", "reorder_delay"])
    def test_delay_validation(self, knob):
        with pytest.raises(ConfigurationError):
            FaultPlan(**{knob: -0.01})


async def _listener_with_sink():
    got: list[tuple[str, int]] = []
    listener = UDPHeartbeatListener(
        lambda batch: got.extend((nid, seq) for nid, seq, _, _ in batch)
    )
    await listener.start()
    return listener, got


class TestFaultInjector:
    def test_clean_plan_forwards_everything(self):
        async def main():
            listener, got = await _listener_with_sink()
            async with FaultInjector(listener.address) as inj:
                for i in range(20):
                    inj.inject(pack_heartbeat("p", i, 0.0))
                await asyncio.sleep(0.1)
                stats = inj.stats
            await listener.stop()
            return got, stats

        got, stats = run(main())
        assert [seq for _, seq in got] == list(range(20))
        assert stats.received == 20 and stats.forwarded == 20 and stats.lost == 0

    def test_drop_one_drops_everything(self):
        async def main():
            listener, got = await _listener_with_sink()
            async with FaultInjector(listener.address, plan=FaultPlan(drop=1.0)) as inj:
                for i in range(10):
                    inj.inject(pack_heartbeat("p", i, 0.0))
                await asyncio.sleep(0.05)
                stats = inj.stats
            await listener.stop()
            return got, stats

        got, stats = run(main())
        assert got == []
        assert stats.dropped == 10 and stats.forwarded == 0

    def test_truncation_is_malformed_at_listener(self):
        async def main():
            listener, got = await _listener_with_sink()
            async with FaultInjector(
                listener.address, plan=FaultPlan(truncate=1.0)
            ) as inj:
                for i in range(5):
                    inj.inject(pack_heartbeat("p", i, 0.0))
                await asyncio.sleep(0.05)
                out = (got[:], listener.malformed, inj.stats.truncated)
            await listener.stop()
            return out

        got, malformed, truncated = run(main())
        assert got == []
        assert malformed == 5 and truncated == 5

    def test_duplication_doubles_delivery(self):
        async def main():
            listener, got = await _listener_with_sink()
            async with FaultInjector(
                listener.address, plan=FaultPlan(duplicate=1.0)
            ) as inj:
                for i in range(5):
                    inj.inject(pack_heartbeat("p", i, 0.0))
                await asyncio.sleep(0.05)
            await listener.stop()
            return got

        got = run(main())
        assert len(got) == 10  # every heartbeat delivered twice

    def test_delay_holds_datagrams(self):
        async def main():
            listener, got = await _listener_with_sink()
            async with FaultInjector(
                listener.address, plan=FaultPlan(delay=0.15)
            ) as inj:
                inj.inject(pack_heartbeat("p", 0, 0.0))
                await asyncio.sleep(0.05)
                early = len(got)
                await asyncio.sleep(0.2)
                late = len(got)
            await listener.stop()
            return early, late

        early, late = run(main())
        assert early == 0 and late == 1

    def test_corruption_changes_payload_same_size(self):
        async def main():
            raw: list[bytes] = []

            class Sink(asyncio.DatagramProtocol):
                def datagram_received(self, data, addr):
                    raw.append(data)

            loop = asyncio.get_running_loop()
            transport, _ = await loop.create_datagram_endpoint(
                Sink, local_addr=("127.0.0.1", 0)
            )
            addr = transport.get_extra_info("sockname")[:2]
            async with FaultInjector(addr, plan=FaultPlan(corrupt=1.0)) as inj:
                original = pack_heartbeat("p", 3, 1.0)
                inj.inject(original)
                await asyncio.sleep(0.05)
            transport.close()
            return original, raw

        original, raw = run(main())
        assert len(raw) == 1
        assert len(raw[0]) == len(original) and raw[0] != original

    def test_gilbert_elliott_burst_losses(self):
        async def main():
            listener, got = await _listener_with_sink()
            ge = GilbertElliottLoss.from_rate_and_burst(rate=0.5, mean_burst=8.0)
            async with FaultInjector(
                listener.address, plan=FaultPlan(loss=ge), seed=5
            ) as inj:
                for i in range(200):
                    inj.inject(pack_heartbeat("p", i, 0.0))
                await asyncio.sleep(0.1)
                stats = inj.stats
            await listener.stop()
            return got, stats

        got, stats = run(main())
        assert 0 < stats.burst_dropped < 200
        assert stats.forwarded == 200 - stats.burst_dropped
        # Burstiness: consecutive losses dominate over isolated ones.
        delivered = sorted(seq for _, seq in got)
        gaps = [b - a for a, b in zip(delivered, delivered[1:]) if b - a > 1]
        assert any(g >= 3 for g in gaps)

    def test_non_ge_loss_model_applied_at_rate(self):
        async def main():
            listener, got = await _listener_with_sink()
            async with FaultInjector(
                listener.address, plan=FaultPlan(loss=BernoulliLoss(0.5)), seed=9
            ) as inj:
                for i in range(200):
                    inj.inject(pack_heartbeat("p", i, 0.0))
                await asyncio.sleep(0.1)
                lost = inj.stats.burst_dropped
            await listener.stop()
            return lost

        lost = run(main())
        assert 60 < lost < 140  # ~rate 0.5 without chain memory

    def test_address_requires_start(self):
        inj = FaultInjector(("127.0.0.1", 1))
        with pytest.raises(ConfigurationError):
            _ = inj.address


class TestScheduleDeterminism:
    @staticmethod
    def _drive(seed):
        """A scripted regime sequence driven by heartbeat count: clean for
        the first 50, bursty for the next 50, clean again after."""
        inj = FaultInjector(
            ("127.0.0.1", 9), seed=seed  # never started: fates only
        )
        burst = FaultPlan(
            loss=GilbertElliottLoss.from_rate_and_burst(0.6, 10.0), drop=0.05
        )
        for i in range(150):
            if i == 50:
                inj.set_plan(burst)
            elif i == 100:
                inj.set_plan(FaultPlan())
            inj.inject(pack_heartbeat("p", i, 0.0))
        return inj.schedule

    def test_same_seed_same_schedule(self):
        assert self._drive(2012) == self._drive(2012)

    def test_different_seed_different_schedule(self):
        assert self._drive(2012) != self._drive(2013)

    def test_fate_is_keyed_by_sequence_not_arrival_count(self):
        # Datagram fates must not depend on how many packets preceded
        # them, or wall-clock raciness would break schedule reproducibility.
        plan = FaultPlan(drop=0.5)
        a = FaultInjector(("127.0.0.1", 9), plan=plan, seed=1)
        b = FaultInjector(("127.0.0.1", 9), plan=plan, seed=1)
        for i in range(40):
            a.inject(pack_heartbeat("p", i, 0.0))
        for i in range(20, 40):  # b saw only the tail of the stream
            b.inject(pack_heartbeat("p", i, 0.0))
        assert a.schedule[20:] == b.schedule


class TestChaosScenario:
    def test_events_run_in_order_and_log(self):
        async def main():
            order = []
            scenario = (
                ChaosScenario()
                .at(0.05, "second", lambda: order.append("second"))
                .at(0.0, "first", lambda: order.append("first"))
            )
            log = await scenario.run()
            return order, log

        order, log = run(main())
        assert order == ["first", "second"]
        assert [label for _, label in log] == ["first", "second"]

    def test_async_actions_awaited(self):
        async def main():
            hit = []

            async def action():
                await asyncio.sleep(0)
                hit.append(True)

            await ChaosScenario().at(0.0, "async", action).run()
            return hit

        assert run(main()) == [True]

    def test_burst_restores_previous_plan(self):
        async def main():
            inj = FaultInjector(("127.0.0.1", 9))
            base = FaultPlan(delay=0.01)
            inj.set_plan(base)
            burst = FaultPlan(drop=1.0)
            scenario = ChaosScenario().burst(0.0, 0.05, inj, burst)
            mid = []
            scenario.at(0.02, "probe", lambda: mid.append(inj.plan))
            await scenario.run()
            return mid, inj.plan, base, burst

        mid, final, base, burst = run(main())
        assert mid == [burst]
        assert final is base

    def test_event_time_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosEvent(at=-1.0, label="bad", action=lambda: None)

    def test_burst_duration_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosScenario().burst(0.0, 0.0, FaultInjector(("127.0.0.1", 9)), FaultPlan())

    def test_horizon_extends_run(self):
        async def main():
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await ChaosScenario().at(0.0, "noop", lambda: None).run(horizon=0.1)
            return loop.time() - t0

        assert run(main()) >= 0.1
