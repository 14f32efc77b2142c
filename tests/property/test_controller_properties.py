"""Property-based tests: MRM controller and tier-manager invariants
under random operation sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import MRMController
from repro.core.mrm import MRMConfig, MRMDevice
from repro.core.placement import kv_cache_object
from repro.core.zones import BlockState
from repro.tiering.scheduler import TierManager
from repro.tiering.tiers import MRM_TIER_RETENTION_S, hbm_tier, lpddr_tier, mrm_tier
from repro.units import GiB, MiB


operations = st.lists(
    st.tuples(
        st.sampled_from(["write", "tick", "delete-oldest"]),
        st.integers(min_value=1, max_value=12),  # size in MiB / time step
        st.sampled_from([30.0, 300.0, 3000.0]),  # retention class
    ),
    min_size=1,
    max_size=40,
)


class TestControllerInvariants:
    @given(ops=operations)
    @settings(max_examples=30, deadline=None)
    def test_zone_accounting_always_consistent(self, ops):
        device = MRMDevice(
            MRMConfig(capacity_bytes=512 * MiB, block_bytes=MiB,
                      blocks_per_zone=8, min_retention_s=1.0)
        )
        controller = MRMController(device)
        now = 0.0
        live = []
        for op, amount, retention in ops:
            if op == "write":
                try:
                    blocks = controller.write(amount * MiB, retention, now=now)
                    live.append(blocks)
                except RuntimeError:
                    # Out of zones under this op sequence: legal outcome;
                    # accounting must still be consistent below.
                    pass
            elif op == "tick":
                now += amount * 100.0
                controller.tick(now=now)
            elif live:
                controller.delete(live.pop(0))
            self._check_invariants(device)

    @staticmethod
    def _check_invariants(device: MRMDevice) -> None:
        for zone in device.space.zones:
            # Write pointer matches stored blocks.
            assert zone.write_pointer == len(zone.blocks)
            assert zone.write_pointer <= zone.capacity_blocks
            # Block indices are dense and ordered.
            assert [b.index for b in zone.blocks] == list(
                range(len(zone.blocks))
            )
            # No FREE block is still attached to a zone.
            assert all(
                b.state in (BlockState.VALID, BlockState.EXPIRED)
                for b in zone.blocks
            )
        # Damage never decreases below zero and never maps ghost slots.
        for (zone_id, index), damage in device._damage.items():
            assert damage >= 0
            assert 0 <= zone_id < device.config.num_zones
            assert 0 <= index < device.config.blocks_per_zone


class TestTierManagerConservation:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["admit", "remove", "tick"]),
                st.integers(min_value=1, max_value=8),  # GiB
                st.sampled_from([60.0, 3600.0, 86400.0]),  # lifetime
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_bytes_conserved(self, ops):
        manager = TierManager(
            [hbm_tier(64 * GiB), mrm_tier(64 * GiB), lpddr_tier(64 * GiB)]
        )
        now = 0.0
        resident = []
        for op, amount, lifetime in ops:
            if op == "admit":
                obj = kv_cache_object(
                    amount * GiB, 1e9, 1e6, context_lifetime_s=lifetime
                )
                try:
                    manager.admit(obj, "mrm", now=now)
                    resident.append(obj)
                except RuntimeError:
                    pass  # tier full: legal
            elif op == "remove" and resident:
                obj = resident.pop(0)
                try:
                    manager.remove(obj)
                except KeyError:
                    pass  # already dropped by a deadline tick
            else:
                # Half a retention period per step: deadlines fall
                # between ticks.
                now += amount * MRM_TIER_RETENTION_S / 2
                manager.tick(now=now)
            # Conservation: used bytes equal the sum of reported
            # resident objects; nothing negative; nothing over capacity.
            for tier_name in ("hbm", "mrm", "lpddr"):
                used = manager.used_bytes(tier_name)
                assert used >= 0
                assert manager.free_bytes(tier_name) >= 0
            total_used = sum(
                manager.used_bytes(t) for t in ("hbm", "mrm", "lpddr")
            )
            expected = sum(
                r.obj.size_bytes for r in manager._residents.values()
            )
            assert total_used == expected
