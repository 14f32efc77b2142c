"""Property tests behind the observability invariants.

Randomized but fully seeded (stdlib ``random.Random`` only) so every
run explores the same cases — failures are reproducible from the trial
number alone.  Three invariants:

1. **Wear conservation** — total accumulated cell damage equals the sum
   over writes of ``1 / endurance_at(retention)``: no write is lost or
   double-counted by the wear model.
2. **KV byte accounting** — through any interleaving of register /
   append / release (prefix sharing on), the registry counters satisfy
   ``appended − released == resident == allocator occupancy``.
3. **Quantile consistency** — ``observe_many`` is equivalent to
   repeated ``observe``; quantiles are monotone in ``q`` and bounded
   by min/max.
"""

import math
import random

from repro.core.mrm import MRMConfig, MRMDevice
from repro.inference.kvcache import KVCacheManager
from repro.inference.paging import OutOfPages
from repro.obs import MetricsRegistry
from repro.sim.stats import Histogram
from repro.units import DAY, HOUR, MINUTE, MiB
from repro.workload.model import LLAMA2_13B

TRIALS = 20


class TestWearConservation:
    #: All within the default managed envelope [1 s, 30 d].
    RETENTIONS = (MINUTE, HOUR, 6 * HOUR, DAY, 30 * DAY)

    def test_damage_equals_sum_of_write_costs(self):
        for trial in range(TRIALS):
            rng = random.Random(1000 + trial)
            device = MRMDevice(
                MRMConfig(
                    capacity_bytes=32 * MiB,
                    block_bytes=1 * MiB,
                    blocks_per_zone=8,
                )
            )
            zones = len(device.space.zones)
            room = {z: 8 for z in range(zones)}
            expected = 0.0
            writes = 0
            for _ in range(rng.randrange(1, 25)):
                open_zones = [z for z, free in room.items() if free > 0]
                if not open_zones:
                    break
                zone_id = rng.choice(open_zones)
                room[zone_id] -= 1
                retention = rng.choice(self.RETENTIONS)
                device.append(zone_id, 1 * MiB, retention, now=0.0)
                expected += 1.0 / device.endurance_at(retention)
                writes += 1
            total_damage = sum(
                device.damage_of(zone_id, index)
                for zone_id in range(zones)
                for index in range(8)
            )
            assert device.blocks_written == writes
            assert math.isclose(
                total_damage, expected, rel_tol=1e-12, abs_tol=0.0
            ), f"trial {trial}: damage {total_damage} != {expected}"

    def test_gentler_retention_wears_less_per_write(self):
        device = MRMDevice(
            MRMConfig(
                capacity_bytes=32 * MiB,
                block_bytes=1 * MiB,
                blocks_per_zone=8,
            )
        )
        costs = [1.0 / device.endurance_at(r) for r in self.RETENTIONS]
        assert costs == sorted(costs)


class TestKVByteAccounting:
    def _invariant(self, kv, reg, name="kv0"):
        appended = reg.counter("kv.bytes_appended_total", pool=name).value
        released = reg.counter("kv.bytes_released_total", pool=name).value
        resident = reg.gauge("kv.bytes_resident", pool=name).value
        assert appended - released == resident
        assert resident == kv.allocator.used_pages * kv.page_bytes

    def test_invariant_through_random_lifecycles(self):
        for trial in range(TRIALS):
            rng = random.Random(2000 + trial)
            reg = MetricsRegistry()
            kv = KVCacheManager(
                LLAMA2_13B,
                capacity_bytes=256 * MiB,
                enable_prefix_sharing=True,
                obs=reg,
            )
            live = []
            next_id = 0
            for _ in range(120):
                op = rng.random()
                if op < 0.4 or not live:
                    prompt = rng.randrange(1, 200)
                    prefix = f"sys-{rng.randrange(3)}" if rng.random() < 0.5 else None
                    try:
                        kv.register(next_id, prompt, prefix_key=prefix)
                        live.append(next_id)
                        next_id += 1
                    except OutOfPages:
                        pass  # rejection must not move bytes
                elif op < 0.8:
                    try:
                        kv.append(rng.choice(live), tokens=rng.randrange(1, 40))
                    except OutOfPages:
                        pass  # all-or-nothing: no partial allocation
                else:
                    kv.release(live.pop(rng.randrange(len(live))))
                self._invariant(kv, reg)
            for context_id in list(live):
                kv.release(context_id)
            self._invariant(kv, reg)
            # Fully drained: everything appended was released.
            assert reg.gauge("kv.bytes_resident", pool="kv0").value == 0

    def test_shared_pages_counted_once(self):
        reg = MetricsRegistry()
        kv = KVCacheManager(
            LLAMA2_13B,
            capacity_bytes=64 * MiB,
            enable_prefix_sharing=True,
            obs=reg,
        )
        kv.register(0, 64, prefix_key="sys")  # anchor
        used_after_anchor = kv.allocator.used_pages
        kv.register(1, 64, prefix_key="sys")  # full-prefix hit
        assert kv.allocator.used_pages == used_after_anchor
        self._invariant(kv, reg)
        assert reg.counter("kv.bytes_shared_total", pool="kv0").value > 0
        # Release the anchor first: shared pages stay resident for ctx 1.
        kv.release(0)
        self._invariant(kv, reg)
        kv.release(1)
        self._invariant(kv, reg)
        assert kv.allocator.used_pages == 0


class TestQuantileConsistency:
    def test_observe_many_equals_repeated_observe(self):
        for trial in range(TRIALS):
            rng = random.Random(3000 + trial)
            samples = [rng.uniform(-100, 100) for _ in range(rng.randrange(1, 300))]
            bulk = Histogram("bulk")
            bulk.observe_many(samples)
            single = Histogram("single")
            for sample in samples:
                single.observe(sample)
            for q in (0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0):
                assert bulk.quantile(q) == single.quantile(q)
            # Moments fold left to right, exactly as repeated observes.
            assert bulk.total == single.total
            assert bulk.mean() == single.mean()
            assert bulk.stdev() == single.stdev()

    def test_quantiles_monotone_and_bounded(self):
        for trial in range(TRIALS):
            rng = random.Random(4000 + trial)
            hist = Histogram("h")
            hist.observe_many(
                [rng.gauss(0, 10) for _ in range(rng.randrange(1, 200))]
            )
            qs = [i / 20 for i in range(21)]
            values = [hist.quantile(q) for q in qs]
            assert values == sorted(values)
            assert values[0] >= hist.min()
            assert values[-1] <= hist.max()

    def test_empty_histogram_quantile_is_none(self):
        hist = Histogram("empty")
        assert hist.quantile(0.5) is None
        assert hist.median() is None
