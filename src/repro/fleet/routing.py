"""Fleet-level request routing: tenant arrivals onto clusters.

The fleet has two dispatch layers.  *Inside* a cluster the existing
join-shortest-queue dispatcher (:class:`repro.inference.cluster.Cluster`)
places requests on engines.  *Above* the clusters, this module decides
which cluster serves each arriving request — the decision a real
front-end makes before a request ever reaches an inference scheduler.

Three policy families:

- ``least-loaded`` — route to the candidate cluster with the lowest
  estimated outstanding work per replica (ties by cluster id);
- ``tenant-affinity`` — each tenant prefers a *home* rotation of
  clusters (cache/locality affinity); it spills to the least-loaded
  candidate only when the home's estimated load crosses
  ``spill_outstanding_per_replica``;
- ``power-of-two`` — classic two-random-choices: sample two candidate
  clusters from the router's seeded stream, route to the less loaded.

The router never inspects simulator state (routing happens *before*
cell evaluation, so cells stay independent and fan out across sweep
workers).  Instead it runs a deterministic **work estimator**: each
``(tenant, cluster)`` replica group carries an outstanding-request
count that drains at ``replicas × target_rps_per_replica`` — the same
per-replica rate target the autoscaler provisions against.  The
estimate is deliberately simple; it is the router's *belief*, and like
any front-end load signal it can be wrong in detail while still
shaping sensible placements.

Shedding: a request is shed when its tenant has **zero replicas**
fleet-wide in the epoch (``no-capacity``), or when the chosen group's
estimated backlog exceeds ``shed_outstanding_per_replica`` requests per
replica (``overload``; ``0`` disables the bound, mirroring the
``max_queue_depth=0`` idiom in :class:`~repro.inference.resilience.
ResiliencePolicy`).  Every arrival therefore ends in exactly one of
{routed, shed} — the first leg of the fleet conservation identity the
property tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.autoscaler import TenantAllocation
from repro.fleet.tenant import TenantConfig
from repro.workload.traces import TraceRecord

#: The routing policy families the fleet knows.
ROUTING_POLICIES = ("least-loaded", "tenant-affinity", "power-of-two")

#: Shed reasons a decision may carry.
SHED_NO_CAPACITY = "no-capacity"
SHED_OVERLOAD = "overload"


@dataclass(frozen=True)
class RoutingDecision:
    """Where one arrival went (or why it did not)."""

    tenant: str
    index: int  # per-tenant arrival index
    epoch: int
    arrival_time: float
    cluster: Optional[int]  # None when shed
    shed_reason: Optional[str] = None

    @property
    def shed(self) -> bool:
        return self.cluster is None


class FleetRouter:
    """Deterministic fleet-level router over an epoch capacity plan.

    Parameters
    ----------
    tenants:
        Fleet tenants in declaration order (the order fixes affinity
        rotations and tie-breaks).
    num_clusters:
        Cluster count; clusters are addressed ``0..num_clusters-1``.
    policy:
        One of :data:`ROUTING_POLICIES`.
    seed:
        Seed stream for the power-of-two choices (unused by the other
        policies, but always consumed from the same child so policy
        comparisons share tenant traces).
    spill_outstanding_per_replica:
        Tenant-affinity spill threshold (estimated outstanding requests
        per replica at the home cluster).
    shed_outstanding_per_replica:
        Shed threshold on the *chosen* group's estimated backlog;
        ``0`` disables shedding by overload.
    """

    def __init__(
        self,
        tenants: Sequence[TenantConfig],
        num_clusters: int,
        policy: str = "least-loaded",
        seed: Optional[np.random.SeedSequence] = None,
        spill_outstanding_per_replica: float = 4.0,
        shed_outstanding_per_replica: float = 0.0,
    ) -> None:
        if policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {policy!r}; known: "
                f"{', '.join(ROUTING_POLICIES)}"
            )
        if num_clusters < 1:
            raise ValueError("need at least one cluster")
        if spill_outstanding_per_replica <= 0:
            raise ValueError("spill threshold must be positive")
        if shed_outstanding_per_replica < 0:
            raise ValueError("shed threshold must be >= 0")
        self.policy = policy
        self.num_clusters = num_clusters
        self.tenants = {tenant.name: tenant for tenant in tenants}
        self._rank = {
            tenant.name: index for index, tenant in enumerate(tenants)
        }
        self.spill_outstanding_per_replica = spill_outstanding_per_replica
        self.shed_outstanding_per_replica = shed_outstanding_per_replica
        self._rng = np.random.default_rng(
            seed if seed is not None else np.random.SeedSequence(0)
        )
        # Work estimator state, flat per (tenant rank, cluster): the
        # outstanding-request estimate and the time it was last drained
        # to.  It lives on the router so consecutive ``route`` calls
        # continue one timeline.
        self._outstanding: List[List[float]] = [
            [0.0] * num_clusters for _ in tenants
        ]
        self._drained_at: List[List[float]] = [
            [0.0] * num_clusters for _ in tenants
        ]

    # ------------------------------------------------------------------
    # Work estimator
    # ------------------------------------------------------------------
    def _group(
        self, name: str, allocation: Optional[TenantAllocation]
    ) -> Tuple[List[int], List[int], List[float]]:
        """One tenant-epoch's ``(candidates, replicas, drain rates)``.

        Candidates are the clusters with replicas, in cluster-id order;
        a group drains at ``replicas × target_rps_per_replica``.
        """
        per_cluster = (
            dict(allocation.per_cluster) if allocation is not None else {}
        )
        candidates = sorted(
            cluster for cluster, replicas in per_cluster.items() if replicas > 0
        )
        for cluster in candidates:
            if not 0 <= cluster < self.num_clusters:
                raise ValueError(
                    f"plan places tenant {name!r} on cluster {cluster}, "
                    f"outside 0..{self.num_clusters - 1}"
                )
        replicas = [per_cluster[cluster] for cluster in candidates]
        target = self.tenants[name].target_rps_per_replica
        return candidates, replicas, [count * target for count in replicas]

    # ------------------------------------------------------------------
    # Policy choice
    # ------------------------------------------------------------------
    def _choose(self, rank: int, loads: List[float]) -> int:
        """Index of the chosen candidate; ``loads`` is in cluster-id
        order, so the lowest index wins a load tie."""
        if self.policy == "least-loaded":
            return loads.index(min(loads))
        if self.policy == "tenant-affinity":
            home = rank % len(loads)
            if loads[home] < self.spill_outstanding_per_replica:
                return home
            return loads.index(min(loads))
        # power-of-two: two seeded draws over the candidate list.  Both
        # draws always happen so the stream stays aligned across
        # requests regardless of candidate-set size.
        first = int(self._rng.integers(len(loads)))
        second = int(self._rng.integers(len(loads)))
        if (loads[second], second) < (loads[first], first):
            return second
        return first

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(
        self,
        merged_arrivals: Sequence[Tuple[float, str, int, TraceRecord]],
        epoch_plan: Sequence[Dict[str, TenantAllocation]],
        epoch_s: float,
    ) -> List[RoutingDecision]:
        """Route a merged arrival timeline against an epoch plan.

        ``merged_arrivals`` comes from
        :func:`repro.fleet.arrivals.merge_arrivals`;
        ``epoch_plan[e][tenant]`` is the epoch's
        :class:`~repro.fleet.autoscaler.TenantAllocation`.
        """
        if epoch_s <= 0:
            raise ValueError("epoch length must be positive")
        last_epoch = len(epoch_plan) - 1
        threshold = self.shed_outstanding_per_replica
        groups: Dict[Tuple[str, int], tuple] = {}
        decisions: List[RoutingDecision] = []
        for arrival_time, name, index, _record in merged_arrivals:
            rank = self._rank[name]
            epoch = min(int(arrival_time // epoch_s), last_epoch)
            group = groups.get((name, epoch))
            if group is None:
                group = groups[(name, epoch)] = self._group(
                    name, epoch_plan[epoch].get(name)
                )
            candidates, replicas, rates = group
            if not candidates:
                decisions.append(
                    RoutingDecision(
                        tenant=name, index=index, epoch=epoch,
                        arrival_time=arrival_time, cluster=None,
                        shed_reason=SHED_NO_CAPACITY,
                    )
                )
                continue
            # Drain every candidate group to now; groups without
            # replicas this epoch keep their state until they return.
            outstanding = self._outstanding[rank]
            drained_at = self._drained_at[rank]
            loads = []
            for cluster, count, rate in zip(candidates, replicas, rates):
                pending = outstanding[cluster]
                last = drained_at[cluster]
                if arrival_time > last:
                    pending = max(0.0, pending - rate * (arrival_time - last))
                    outstanding[cluster] = pending
                    drained_at[cluster] = arrival_time
                loads.append(pending / count)
            pick = self._choose(rank, loads)
            if threshold > 0 and loads[pick] >= threshold:
                decisions.append(
                    RoutingDecision(
                        tenant=name, index=index, epoch=epoch,
                        arrival_time=arrival_time, cluster=None,
                        shed_reason=SHED_OVERLOAD,
                    )
                )
                continue
            chosen = candidates[pick]
            outstanding[chosen] += 1.0
            decisions.append(
                RoutingDecision(
                    tenant=name, index=index, epoch=epoch,
                    arrival_time=arrival_time, cluster=chosen,
                )
            )
        return decisions
