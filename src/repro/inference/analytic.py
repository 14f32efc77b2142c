"""Closed-form (fluid-replay) approximation of the serving cluster.

The DES in :mod:`repro.inference.engine` is exact but pays kernel
events for every arrival, prefill and batch change (one per run of
decode iterations of an unchanged batch).  This module evaluates the
*same* workload — a concrete request list, the same roofline arithmetic,
the same placement map — in a handful of vectorized NumPy passes,
reproducing the :class:`~repro.inference.cluster.ClusterReport`
aggregates several times faster (see ``docs/PERFORMANCE.md``).

The model is a **trace-driven fluid replay** rather than a pure
steady-state queueing formula: it works from the realized arrival times
of the concrete trace, so small samples (where an ensemble average would
predict overlap that never happened) stay accurate.

1. **Roofline step times** (exact arithmetic): prefill and per-context
   decode-step durations are the same ``max(compute, memory)`` formulas
   the engine evaluates, vectorized over all requests/steps at once.  A
   context decoding at length ``c`` shares its iteration with
   ``b_i - 1`` co-runners of mean length ``c_bar``, where ``b_i`` is the
   request's *realized* mean batch (below).
2. **JSQ replay + concurrency sweep**: requests are assigned to engines
   by replaying the cluster's join-shortest-queue rule against estimated
   residence times; a sweep-line over each engine's decode intervals
   yields every request's realized co-runner integral (``b_i``), the
   engine's busy time, and the realized peak concurrency.  Two rounds
   are run — the second with batch-dilated spans — so batching feedback
   is captured to first order.
3. **Prefill preemption and admission waits**: the engine loop admits
   (and prefills) newly arrived requests between decode iterations, so a
   request's first token and completion shift by the prefill times of
   requests that arrive inside its window; an arrival that lands on a
   busy engine additionally waits out the in-flight iteration
   (~half a mean step) or the tail of an in-flight prefill.

Byte traffic that does not depend on interleaving (KV reads/writes,
prefill weight reads) is **exact**; only quantities tied to iteration
*count* (decode weight-read amortization, busy time, board energy) go
through the realized batch factors.

Scenarios the fluid replay cannot express raise
:class:`UnsupportedScenario` (a ``ValueError``, so the CLI reports it as
one line and exits 2): prefix sharing, fault-injection arms, KV pools
too small for a request, offered loads outside the stability envelope,
and workloads whose realized concurrency spills over the admission cap
(where DES queueing dynamics dominate).  See ``docs/PERFORMANCE.md`` for
the validity envelope and the measured DES-vs-analytic error table.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.inference.accelerator import AcceleratorConfig
from repro.inference.cluster import DEFAULT_SLA_THRESHOLDS, ClusterReport
from repro.inference.engine import KVRecoveryConfig, resolve_placement
from repro.workload.model import ModelConfig
from repro.workload.requests import InferenceRequest, SLAClass

#: Offered-load ceiling: beyond this the queue is in (or near) a backlog
#: regime whose waiting times a fluid replay cannot summarize.  The check
#: uses best-case batching (the admission cap), so anything it rejects is
#: overloaded under *any* schedule.
MAX_STABLE_UTILIZATION = 0.95

#: Tolerated fraction of concurrency-time above the admission cap before
#: the scenario is declared queue-bound (and analytically unsupported).
MAX_OVERFLOW_FRACTION = 0.05


class UnsupportedScenario(ValueError):
    """The analytic mode cannot represent this scenario; run the DES."""


def _quantile(values: np.ndarray, q: float) -> float:
    """Rank-interpolated quantile, matching ``Histogram.quantile`` as
    ``Cluster.report`` uses it (linear interpolation at ``q * (n - 1)``).

    ``np.quantile``'s linear method, operation for operation, without
    its per-call overhead: the same order statistics and the same
    interpolation, so the same float.
    """
    n = values.size
    if n == 0:
        return float("nan")
    virtual = (n - 1) * q
    if virtual >= n - 1:
        # np.quantile points both neighbours at the last element.
        lo = hi = n - 1
        gamma = virtual + 1
    else:
        lo = math.floor(virtual)
        hi = lo + 1
        gamma = virtual - lo
    ranked = np.partition(values, sorted({lo, hi, n - 1}))
    if math.isnan(ranked[n - 1]):
        return float("nan")
    a, b = float(ranked[lo]), float(ranked[hi])
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


def analytic_cluster_report(
    accelerator: AcceleratorConfig,
    model: ModelConfig,
    requests: Iterable[InferenceRequest],
    num_engines: int = 1,
    placement: Optional[Mapping[str, str]] = None,
    max_batch_size: int = 16,
    tokens_per_page: int = 16,
    enable_prefix_sharing: bool = False,
    kv_recovery: Optional[KVRecoveryConfig] = None,
) -> ClusterReport:
    """Evaluate a serving scenario in closed form.

    Mirrors ``Cluster(...).run(requests)`` — same argument meanings,
    same :class:`ClusterReport` shape — without building a simulator.
    ``kv_recovery`` is accepted for signature parity; with no fault
    injection (the only analytic regime) it never acts.
    """
    if num_engines < 1:
        raise ValueError("need at least one engine")
    if max_batch_size < 1:
        raise ValueError("max batch size must be >= 1")
    if enable_prefix_sharing:
        raise UnsupportedScenario(
            "analytic mode does not support prefix sharing; use mode=des"
        )
    placement = resolve_placement(accelerator, placement)

    requests = list(requests)
    if not requests:
        return _empty_report(num_engines)

    arrival = np.array([r.arrival_time for r in requests], dtype=np.float64)
    prompt = np.array([r.prompt_tokens for r in requests], dtype=np.float64)
    output = np.array([r.output_tokens for r in requests], dtype=np.int64)
    cached = np.array(
        [r.cached_prompt_tokens for r in requests], dtype=np.float64
    )
    new_tokens = prompt - cached  # InferenceRequest guarantees >= 1
    count = len(requests)
    total_tokens = int(output.sum())

    _check_kv_pool(
        accelerator, model, placement, prompt, max_batch_size,
        tokens_per_page=tokens_per_page,
    )

    # ------------------------------------------------------------------
    # Hardware constants (identical to RooflineModel.time_step)
    # ------------------------------------------------------------------
    flops_eff = accelerator.effective_flops
    bw_eff = accelerator.bandwidth_efficiency
    w_tier = accelerator.tier(placement["weights"])
    kv_tier = accelerator.tier(placement["kv"])
    same_tier = w_tier.name == kv_tier.name
    w_read_bw = w_tier.read_bandwidth * bw_eff
    kv_read_bw = kv_tier.read_bandwidth * bw_eff
    kv_write_bw = kv_tier.write_bandwidth * bw_eff

    weights_bytes = float(model.weights_bytes)
    kv_tok = float(model.kv_bytes_per_token)
    # decode_flops_per_token(c) = dense + attention-slope * c
    flops_dense = 2.0 * model.n_params
    flops_attn = 4.0 * model.n_layers * model.n_kv_heads * model.head_dim

    # ------------------------------------------------------------------
    # Prefill: exact per request (matches engine._run_prefill routing:
    # weights read on the weights tier, KV written on the KV tier).
    # ------------------------------------------------------------------
    pre_flops = (
        2.0 * model.n_params * new_tokens
        + 2.0
        * model.n_layers
        * new_tokens**2
        * model.n_kv_heads
        * model.head_dim
    )
    pre_compute = pre_flops / flops_eff
    t_w = weights_bytes / w_read_bw
    t_kv_write = kv_tok * new_tokens / kv_write_bw
    if same_tier:
        pre_memory = t_w + t_kv_write
    else:
        pre_memory = np.maximum(t_w, t_kv_write)
    pre_time = np.maximum(pre_compute, pre_memory)
    pre_memory_bound = int(np.count_nonzero(pre_memory >= pre_compute))

    # ------------------------------------------------------------------
    # Per-context decode steps: flat arrays over every (request, step).
    # Context length at a request's s-th step is prompt + s.
    # ------------------------------------------------------------------
    ctx = np.repeat(prompt, output) + _step_index(output)
    starts = np.zeros(count, dtype=np.int64)
    output[:-1].cumsum(out=starts[1:])
    c_bar = float(ctx.mean())

    def step_times(
        batch_per_step: np.ndarray, co_ctx: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat step durations given each step's batch size.

        Returns ``(durations, memory_bound_flags)``.  The tagged context
        contributes its exact length; its ``b - 1`` co-runners enter at
        their realized summed context ``co_ctx`` (falling back to the
        mean length), mirroring ``decode_step_traffic_batch`` +
        ``RooflineModel.time_step``.
        """
        if co_ctx is None:
            co_ctx = (batch_per_step - 1.0) * c_bar
        compute = (
            flops_dense * batch_per_step + flops_attn * (ctx + co_ctx)
        ) / flops_eff
        kv_read = kv_tok * (ctx + co_ctx)
        if same_tier:
            memory = (
                (weights_bytes + kv_read) / kv_read_bw
                + kv_tok * batch_per_step / kv_write_bw
            )
        else:
            memory = np.maximum(
                weights_bytes / w_read_bw,
                kv_read / kv_read_bw + kv_tok * batch_per_step / kv_write_bw,
            )
        return np.maximum(compute, memory), memory >= compute

    solo = np.ones(ctx.size, dtype=np.float64)
    step_solo, _ = step_times(solo)
    decode_solo = np.add.reduceat(step_solo, starts)

    # ------------------------------------------------------------------
    # Stability guard: even with perfect cap-sized batching the offered
    # load must sit inside the envelope, or the DES is in a backlog
    # regime no fluid model should claim to summarize.
    # ------------------------------------------------------------------
    span = float(arrival.max() - arrival.min())
    lam_e = (count / span / num_engines) if span > 0 else 0.0
    best_service = float(np.mean(pre_time + decode_solo / max_batch_size))
    if lam_e * best_service >= MAX_STABLE_UTILIZATION:
        raise UnsupportedScenario(
            f"offered load rho>={lam_e * best_service:.2f} per engine even "
            f"at the admission cap; outside the analytic stability "
            f"envelope (<{MAX_STABLE_UTILIZATION}), use mode=des"
        )

    # ------------------------------------------------------------------
    # JSQ replay: assign requests to engines exactly as the cluster's
    # join-shortest-queue dispatcher would, using estimated residences.
    # Load ties go to the lowest engine index.  The DES breaks them by
    # engine *name*, which from 11 engines on is not index order
    # ("engine-10" < "engine-2"); but a cell's engines are identical and
    # all start idle, so any fixed tie order only relabels engines and
    # leaves the cell aggregates unchanged.
    # ------------------------------------------------------------------
    engine_of = _jsq_replay(
        arrival, arrival + pre_time + decode_solo, num_engines
    )

    # ------------------------------------------------------------------
    # Realized concurrency, two rounds: round 1 sweeps solo-time decode
    # intervals to get first-order batch factors; round 2 re-sweeps with
    # batch-dilated, wait-shifted intervals (batching feedback).
    # ------------------------------------------------------------------
    b_ctx, _, _, _, _ = _engine_geometry(
        arrival + pre_time, decode_solo, prompt, output, engine_of,
        num_engines, max_batch_size,
    )
    b_ctx = np.minimum(b_ctx, float(max_batch_size))
    step_time, _ = step_times(np.repeat(b_ctx, output))
    decode_sum = np.add.reduceat(step_time, starts)

    wait, ttft_delay, fin_delay = _admission_waits(
        arrival, pre_time, decode_sum, output, engine_of, num_engines
    )
    dstart = arrival + wait + pre_time + ttft_delay
    span_len = decode_sum + (fin_delay - ttft_delay)
    _, busy_union, peak, overflow, profiles = _engine_geometry(
        dstart, span_len, prompt, output, engine_of, num_engines,
        max_batch_size,
    )
    conc_time = float(busy_union.sum())
    if overflow > MAX_OVERFLOW_FRACTION * max(conc_time, 1e-12):
        raise UnsupportedScenario(
            f"realized concurrency (peak {int(peak)}) spills over the "
            f"admission cap ({max_batch_size}) for "
            f"{overflow / max(conc_time, 1e-12):.0%} of the busy time; "
            f"queue-bound scenario, use mode=des"
        )
    # Per-step batch sizes and co-runner context sums: sample the
    # engine's realized concurrency and total-context profiles at each
    # step's position within its request's decode span.  This keeps
    # E[1/b] (iteration shares) and the tbt tail honest — one
    # window-averaged batch per request would flatten both, and a mean
    # co-runner length would miss the slow iterations where several
    # long contexts decode together.
    frac = (_step_index(output) + 0.5) / np.repeat(output, output)
    flat_t = np.repeat(dstart, output) + frac * np.repeat(span_len, output)
    step_b, ctx_sum = _sample_profiles(
        flat_t, np.repeat(engine_of, output), profiles
    )
    co_ctx = np.maximum(ctx_sum - ctx, 0.0)
    raw_b = np.maximum(step_b, 1.0)
    np.maximum(step_b, 1.0, out=step_b)
    np.minimum(step_b, float(max_batch_size), out=step_b)
    # If the cap trimmed the batch, trim the co-runner context with it.
    co_ctx *= (step_b - 1.0) / np.maximum(raw_b - 1.0, 1.0)
    step_time, step_memory_bound = step_times(step_b, co_ctx)
    decode_sum = np.add.reduceat(step_time, starts)
    first_step = step_time[starts]
    wait, ttft_delay, fin_delay = _admission_waits(
        arrival, pre_time, decode_sum, output, engine_of, num_engines
    )

    first_token = arrival + wait + pre_time + ttft_delay + first_step
    ttft = first_token - arrival
    completion = arrival + wait + pre_time + decode_sum + fin_delay
    duration = float(completion.max())

    # ------------------------------------------------------------------
    # Byte traffic and energy.  KV traffic is exact; decode weight reads
    # amortize over each request's realized batch factor (a request's
    # share of an engine iteration is 1 / b_i).
    # ------------------------------------------------------------------
    step_share = 1.0 / step_b
    engine_steps = float(step_share.sum())
    weights_read = weights_bytes * (count + engine_steps)
    kv_read_total = kv_tok * float(ctx.sum())
    kv_written = kv_tok * (float(new_tokens.sum()) + total_tokens)

    tier_reads: Dict[str, float] = {t.name: 0.0 for t in accelerator.tiers}
    tier_writes: Dict[str, float] = {t.name: 0.0 for t in accelerator.tiers}
    tier_reads[w_tier.name] += weights_read
    tier_reads[kv_tier.name] += kv_read_total
    tier_writes[kv_tier.name] += kv_written
    access_energy = (
        w_tier.read_energy_j(weights_read)
        + kv_tier.read_energy_j(kv_read_total)
        + kv_tier.write_energy_j(kv_written)
    )
    busy_time = float(pre_time.sum()) + float((step_time * step_share).sum())
    board_energy = accelerator.board_power_w * busy_time

    total_steps = count + engine_steps
    memory_bound_fraction = (
        (pre_memory_bound + float(step_share[step_memory_bound].sum()))
        / total_steps
        if total_steps
        else 0.0
    )

    # ------------------------------------------------------------------
    # SLA attainment: same per-request test as Cluster._sla_attainment.
    # ------------------------------------------------------------------
    multi = output > 1
    mean_tbt = np.zeros(count, dtype=np.float64)
    np.divide(
        completion - first_token,
        np.maximum(output - 1, 1),
        out=mean_tbt,
        where=multi,
    )
    sla_attainment: Dict[SLAClass, float] = {}
    slas = np.array([r.sla.value for r in requests])
    for sla in SLAClass:
        mask = slas == sla.value
        total = int(np.count_nonzero(mask))
        if not total:
            continue
        ttft_limit, tbt_limit = DEFAULT_SLA_THRESHOLDS[sla]
        met = np.count_nonzero(
            mask & (ttft <= ttft_limit) & (mean_tbt <= tbt_limit)
        )
        sla_attainment[sla] = met / total

    return ClusterReport(
        engines=num_engines,
        duration_s=duration,
        requests_completed=count,
        tokens_generated=total_tokens,
        throughput_tokens_per_s=(
            total_tokens / duration if duration > 0 else 0.0
        ),
        ttft_p50_s=_quantile(ttft, 0.5),
        ttft_p99_s=_quantile(ttft, 0.99),
        tbt_p50_s=_quantile(step_time, 0.5),
        tbt_p99_s=_quantile(step_time, 0.99),
        memory_bound_fraction=memory_bound_fraction,
        tier_bytes_read=tier_reads,
        tier_bytes_written=tier_writes,
        access_energy_j=access_energy,
        board_energy_j=board_energy,
        sla_attainment=sla_attainment,
        requests_failed=0,
        kv_recoveries=0,
        kv_recompute_tokens=0,
    )


def _step_index(output: np.ndarray) -> np.ndarray:
    """Flat ``[0..n_0-1, 0..n_1-1, ...]`` step offsets for each request."""
    total = int(output.sum())
    index = np.arange(total, dtype=np.float64)
    starts = np.repeat(output.cumsum() - output, output)
    return index - starts


def _jsq_replay(
    arrival: np.ndarray, departure_est: np.ndarray, num_engines: int
) -> np.ndarray:
    """Replay the cluster's join-shortest-queue dispatch.

    The DES dispatcher counts each engine's unfinished requests at every
    arrival.  Here a request is "unfinished" while its estimated
    residence interval covers the arrival instant (``finish > now``),
    and ties break toward the lowest engine index.  Arrivals are taken
    in stable time order, so a request that has finished by one arrival
    has finished by every later one: a single min-heap of
    ``(finish, engine)`` retires them, and each arrival costs
    ``O(log n + num_engines)``.
    """
    engine_of = np.zeros(arrival.size, dtype=np.int64)
    if num_engines == 1:
        return engine_of
    order = np.argsort(arrival, kind="stable")
    loads = [0] * num_engines
    resident: List[Tuple[float, int]] = []  # min-heap of (finish, engine)
    picks: List[int] = []
    for now, finish in zip(
        arrival[order].tolist(), departure_est[order].tolist()
    ):
        while resident and resident[0][0] <= now:
            loads[heapq.heappop(resident)[1]] -= 1
        best = loads.index(min(loads))
        loads[best] += 1
        heapq.heappush(resident, (finish, best))
        picks.append(best)
    engine_of[order] = picks
    return engine_of


def _engine_geometry(
    dstart: np.ndarray,
    dlen: np.ndarray,
    prompt: np.ndarray,
    output: np.ndarray,
    engine_of: np.ndarray,
    num_engines: int,
    cap: int,
) -> Tuple[np.ndarray, np.ndarray, float, float, List]:
    """Sweep each engine's decode intervals ``[dstart, dstart + dlen)``.

    Returns ``(b_ctx, busy_union, peak, overflow, profiles)``:
    per-request realized mean batch (time-average concurrency over the
    request's own window, self included), per-engine busy-union
    durations, the peak concurrency across engines, the
    concurrency-time integral spent above ``cap`` (nonzero means the
    admission cap would have queued requests the fluid replay runs
    concurrently), and each engine's profile
    ``(boundaries, concurrency, ctx_const, ctx_slope)`` for point
    sampling — concurrency is a step function; the summed context of
    active requests is piecewise linear (each context grows one token
    per iteration), stored as per-segment ``const + slope * t``.
    """
    b_ctx = np.ones(dstart.size, dtype=np.float64)
    busy_union = np.zeros(num_engines, dtype=np.float64)
    peak = 0.0
    overflow = 0.0
    profiles: List = [None] * num_engines
    dend = dstart + dlen
    growth = output / np.maximum(dlen, 1e-300)  # tokens per second
    for e in range(num_engines):
        idx = np.flatnonzero(engine_of == e)
        if idx.size == 0:
            continue
        s, f = dstart[idx], dend[idx]
        bounds = np.concatenate([s, f])
        deltas = np.concatenate([np.ones(idx.size), -np.ones(idx.size)])
        # A request's context over its window is ~prompt + growth*(t-s):
        # accumulate the constant and slope parts at start, remove at end.
        const_part = prompt[idx] - growth[idx] * s
        const_deltas = np.concatenate([const_part, -const_part])
        slope_deltas = np.concatenate([growth[idx], -growth[idx]])
        order = np.argsort(bounds, kind="stable")
        t = bounds[order]
        conc = deltas[order].cumsum()
        ctx_const = const_deltas[order].cumsum()
        ctx_slope = slope_deltas[order].cumsum()
        profiles[e] = (t, conc, ctx_const, ctx_slope)
        seg = np.diff(t)
        if seg.size:
            live_conc = conc[:-1]
            busy_union[e] = float(seg[live_conc > 0.5].sum())
            overflow += float(
                (seg * np.maximum(live_conc - cap, 0.0)).sum()
            )
        peak = max(peak, float(conc.max()))
        # Cumulative ∫ c dt at each boundary; windows query it below.
        cum = np.concatenate([[0.0], (conc[:-1] * seg).cumsum()])

        def integral(x: np.ndarray) -> np.ndarray:
            # searchsorted(..., "right") - 1 never passes t.size - 1.
            k = np.maximum(t.searchsorted(x, side="right") - 1, 0)
            return cum[k] + conc[k] * np.maximum(x - t[k], 0.0)

        window = f - s
        live = window > 0
        co_int = integral(f) - integral(s)
        b_ctx[idx[live]] = co_int[live] / window[live]
    return b_ctx, busy_union, peak, overflow, profiles


def _sample_profiles(
    flat_t: np.ndarray, engine_flat: np.ndarray, profiles: List
) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate concurrency and summed-context profiles at given times."""
    conc_out = np.ones(flat_t.size, dtype=np.float64)
    ctx_out = np.zeros(flat_t.size, dtype=np.float64)
    for e, profile in enumerate(profiles):
        if profile is None:
            continue
        t, conc, ctx_const, ctx_slope = profile
        mask = engine_flat == e
        x = flat_t[mask]
        k = np.maximum(t.searchsorted(x, side="right") - 1, 0)
        conc_out[mask] = conc[k]
        ctx_out[mask] = ctx_const[k] + ctx_slope[k] * x
    return conc_out, ctx_out


def _admission_waits(
    arrival: np.ndarray,
    pre_time: np.ndarray,
    decode_sum: np.ndarray,
    output: np.ndarray,
    engine_of: np.ndarray,
    num_engines: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-request admission wait and prefill-preemption delays.

    ``wait``: time between arrival and prefill start — the tail of an
    earlier request's still-running prefill, plus (when the engine is
    decoding) the remainder of the in-flight iteration (~half a mean
    step).  ``ttft_delay``: prefill time of requests that arrive during
    this request's own prefill (the loop admits them all before the
    next decode iteration).  ``fin_delay``: prefill time of every
    request arriving before this one completes (each preempts one
    iteration-gap).
    """
    count = arrival.size
    wait = np.zeros(count, dtype=np.float64)
    ttft_delay = np.zeros(count, dtype=np.float64)
    fin_delay = np.zeros(count, dtype=np.float64)
    mean_step = decode_sum / np.maximum(output, 1)
    for e in range(num_engines):
        idx = np.flatnonzero(engine_of == e)
        if idx.size < 2:
            continue
        order = np.argsort(arrival[idx], kind="stable")
        idx = idx[order]
        a = arrival[idx]
        pre = pre_time[idx]
        # Tail of an in-flight earlier prefill at this arrival.
        prefill_end = a + pre
        prev_max = np.maximum.accumulate(prefill_end)
        w = np.zeros(idx.size, dtype=np.float64)
        w[1:] = np.maximum(prev_max[:-1] - a[1:], 0.0)
        # In-flight decode iteration residual: an arrival that lands
        # inside an earlier request's decode span waits ~half a step.
        dstart = a + w + pre
        dend = dstart + decode_sum[idx]
        busy_end = np.maximum.accumulate(dend)
        mid_decode = np.zeros(idx.size, dtype=bool)
        mid_decode[1:] = busy_end[:-1] > a[1:]
        w = w + np.where(mid_decode, 0.5 * mean_step[idx], 0.0)
        wait[idx] = w
        # Prefill preemptions: sum of pre over arrivals in a window.
        pre_cum = np.concatenate([[0.0], pre.cumsum()])
        lo = np.arange(1, idx.size + 1)  # strictly-after-self positions
        dstart = a + w + pre
        dend = dstart + decode_sum[idx]
        hi_first = np.searchsorted(a, dstart, side="left")
        hi_fin = np.searchsorted(a, dend, side="left")
        ttft_delay[idx] = pre_cum[np.maximum(hi_first, lo)] - pre_cum[lo]
        fin_delay[idx] = pre_cum[np.maximum(hi_fin, lo)] - pre_cum[lo]
    return wait, ttft_delay, fin_delay


def _check_kv_pool(
    accelerator: AcceleratorConfig,
    model: ModelConfig,
    placement: Mapping[str, str],
    prompt: np.ndarray,
    max_batch_size: int,
    admission_headroom_tokens: int = 128,
    tokens_per_page: int = 16,
) -> None:
    """Reject workloads the engine could never admit (it would raise)."""
    kv_tier = accelerator.tier(placement["kv"])
    reserved = 0
    if placement["weights"] == placement["kv"]:
        reserved += model.weights_bytes
    if placement["activations"] == placement["kv"]:
        reserved += model.activation_bytes(max_batch_size)
    capacity = kv_tier.capacity_bytes - reserved
    page_bytes = model.kv_bytes_per_token * tokens_per_page
    if capacity < page_bytes:
        raise UnsupportedScenario(
            f"no KV capacity on tier {kv_tier.name!r} after "
            f"weights/activations reservation"
        )
    total_pages = capacity // page_bytes
    need_tokens = int(prompt.max()) + admission_headroom_tokens
    need_pages = -(-need_tokens // tokens_per_page)
    if need_pages > total_pages:
        raise UnsupportedScenario(
            f"largest prompt ({int(prompt.max())} tokens) cannot fit the "
            f"KV pool ({total_pages} pages); the DES would deadlock too"
        )


def _empty_report(num_engines: int) -> ClusterReport:
    """What ``Cluster.run([])`` reports: zero work, NaN quantiles."""
    nan = float("nan")
    return ClusterReport(
        engines=num_engines,
        duration_s=0.0,
        requests_completed=0,
        tokens_generated=0,
        throughput_tokens_per_s=0.0,
        ttft_p50_s=nan,
        ttft_p99_s=nan,
        tbt_p50_s=nan,
        tbt_p99_s=nan,
        memory_bound_fraction=0.0,
        tier_bytes_read={},
        tier_bytes_written={},
        access_energy_j=0.0,
        board_energy_j=0.0,
        sla_attainment={},
        requests_failed=0,
        kv_recoveries=0,
        kv_recompute_tokens=0,
    )
