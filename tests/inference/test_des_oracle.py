"""The DES against an exact queueing oracle outside its own code.

At batch cap 1 with no faults, each engine of a :class:`Cluster` is a
non-preemptive single-server queue: a request waits for the engine,
prefills, decodes all its tokens alone and leaves, and the engine then
admits the next pending request at once.  Its service time depends only
on its own prompt and output lengths, so it comes from a one-request DES
run.  Lindley's recursion, extended to JSQ dispatch over several engines
and to SLA priority classes, then gives every request's TTFT and
completion time exactly; the DES must match it to 1e-9 s.

The oracle restates the rules instead of importing them:

- **Dispatch.** An arrival joins the engine with the fewest requests
  pending plus running, the lowest engine index on a tie.  A request
  finishing at exactly the arrival instant still counts, because
  arrivals are queued before the run and pop before the engine's wakeup.
- **Admission.** A free engine admits the pending request of the
  highest-priority SLA class (interactive, then throughput, then best
  effort), the earliest arrival within a class.

This checks queueing, admission and dispatch; the one-request runs are
checked only for charging one prefill and exactly one decode step per
output token.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.inference.accelerator import H100_80G
from repro.inference.cluster import Cluster, tensor_parallel_group
from repro.inference.roofline import RooflineModel
from repro.sim import Simulator
from repro.workload.model import LLAMA2_70B
from repro.workload.requests import InferenceRequest, SLAClass

TP4_H100 = tensor_parallel_group(H100_80G, 4)

#: Admission order of the SLA classes, most urgent first.
PRIORITY = {
    SLAClass.INTERACTIVE: 0,
    SLAClass.THROUGHPUT: 1,
    SLAClass.BEST_EFFORT: 2,
}

TOLERANCE_S = 1e-9


def _cluster(engines: int) -> Cluster:
    return Cluster(
        Simulator(), TP4_H100, LLAMA2_70B, num_engines=engines, max_batch_size=1
    )


def service_time(prompt: int, output: int) -> Tuple[float, float]:
    """``(first token, completion)`` of one request alone on an idle
    engine, from a one-request DES run starting at time 0."""
    cluster = _cluster(1)
    request = InferenceRequest(0.0, prompt, output)
    cluster.run([request])
    [context] = cluster.engines[0].completed
    assert context.generated == output
    # One prefill, then one decode step per output token, alone.
    roofline = RooflineModel(TP4_H100)
    first = roofline.time_prefill(LLAMA2_70B, prompt).duration_s
    steps = [
        roofline.time_decode_step(LLAMA2_70B, prompt + s).duration_s
        for s in range(output)
    ]
    assert abs(context.first_token_at - (first + steps[0])) <= TOLERANCE_S
    assert abs(context.finished_at - (first + sum(steps))) <= TOLERANCE_S
    return context.first_token_at, context.finished_at


@dataclass
class _Server:
    """One engine in the oracle: its queue, and when it next decides."""

    pending: List[int]
    decide_at: float = -np.inf  # when the engine next picks from pending
    running_until: float = -np.inf  # completion of the request it serves


def lindley(
    arrivals: List[float],
    classes: List[SLAClass],
    services: List[Tuple[float, float]],
    engines: int,
) -> Tuple[List[int], List[float], List[float]]:
    """Each request's ``(engine, first token time, completion time)``
    under JSQ dispatch and non-preemptive priority service."""
    servers = [_Server(pending=[]) for _ in range(engines)]
    engine_of = [0] * len(arrivals)
    start = [0.0] * len(arrivals)

    def advance(server: _Server, now: float) -> None:
        # Serve every decision strictly before ``now``: an arrival at a
        # decision instant is queued first and may be picked.
        while server.pending and server.decide_at < now:
            nxt = min(
                server.pending,
                key=lambda i: (PRIORITY[classes[i]], arrivals[i], i),
            )
            server.pending.remove(nxt)
            start[nxt] = server.decide_at
            server.running_until = server.decide_at + services[nxt][1]
            server.decide_at = server.running_until

    for i, arrival in enumerate(arrivals):
        for server in servers:
            advance(server, arrival)
        loads = [
            len(s.pending) + (s.running_until >= arrival) for s in servers
        ]
        engine = min(range(engines), key=lambda k: (loads[k], k))
        server = servers[engine]
        engine_of[i] = engine
        server.pending.append(i)
        server.decide_at = max(server.decide_at, arrival)
    for server in servers:
        advance(server, np.inf)
    first = [start[i] + services[i][0] for i in range(len(arrivals))]
    done = [start[i] + services[i][1] for i in range(len(arrivals))]
    return engine_of, first, done


@st.composite
def workloads(draw):
    shapes = draw(
        st.lists(
            st.tuples(st.integers(16, 1024), st.integers(1, 48)),
            min_size=1,
            max_size=3,
        )
    )
    classes = draw(
        st.sampled_from(
            [
                [SLAClass.INTERACTIVE],
                [SLAClass.INTERACTIVE, SLAClass.THROUGHPUT],
                list(SLAClass),
            ]
        )
    )
    return {
        "engines": draw(st.integers(1, 4)),
        "shapes": shapes,
        "classes": classes,
        "load": draw(st.floats(0.3, 1.2)),
        "count": draw(st.integers(4, 40)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


_SERVICE: Dict[Tuple[int, int], Tuple[float, float]] = {}


class TestLindleyOracle:
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(workloads())
    def test_ttft_and_completion_match_the_recursion(self, workload):
        rng = np.random.default_rng(workload["seed"])
        count, engines = workload["count"], workload["engines"]
        shapes = [
            workload["shapes"][k]
            for k in rng.integers(len(workload["shapes"]), size=count)
        ]
        classes = [
            workload["classes"][k]
            for k in rng.integers(len(workload["classes"]), size=count)
        ]
        services = []
        for shape in shapes:
            if shape not in _SERVICE:
                _SERVICE[shape] = service_time(*shape)
            services.append(_SERVICE[shape])
        # Offered load per engine: arrival rate x mean service / engines.
        mean_service = float(np.mean([s[1] for s in services]))
        rate = workload["load"] * engines / mean_service
        arrivals = np.cumsum(rng.exponential(1.0 / rate, size=count)).tolist()
        requests = [
            InferenceRequest(arrival, prompt, output, sla=sla)
            for arrival, (prompt, output), sla in zip(arrivals, shapes, classes)
        ]

        cluster = _cluster(engines)
        cluster.run(requests)

        engine_of, first, done = lindley(arrivals, classes, services, engines)
        index = {r.request_id: i for i, r in enumerate(requests)}
        served = 0
        for k, engine in enumerate(cluster.engines):
            assert not engine.failed
            for context in engine.completed:
                i = index[context.context_id]
                assert engine_of[i] == k, (i, engine_of[i], k)
                assert context.generated == requests[i].output_tokens
                assert abs(context.first_token_at - first[i]) <= TOLERANCE_S
                assert abs(context.finished_at - done[i]) <= TOLERANCE_S
                served += 1
        assert served == count
