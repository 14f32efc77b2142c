"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro fig1                 # render Figure 1
    python -m repro tradeoff             # retention trade-off table
    python -m repro characterize         # workload characterization
    python -m repro provisioning         # the HBM fit-to-workload table
    python -m repro serve --rate 1.5     # simulate cluster serving
    python -m repro serve --mode analytic  # closed-form evaluator
    python -m repro sweep --mode cross-validate  # DES vs analytic grid
    python -m repro sensitivity          # Figure 1 robustness sweep
    python -m repro trace --out t.jsonl  # generate a Splitwise-shaped trace
    python -m repro obs top m.json       # inspect a metrics snapshot

Every subcommand prints the same tables the benchmark harness asserts
on, so the CLI is the interactive twin of ``pytest benchmarks/``.

The simulation-backed experiments (``serve``, ``faults``) accept
``--metrics PATH`` (dump the run's metrics snapshot: Prometheus text
when PATH ends in ``.prom``/``.txt``, canonical snapshot JSON
otherwise) and ``serve`` additionally ``--trace-out PATH`` (JSON-lines
span trace in simulated time).  ``repro obs`` inspects those artifacts.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.figures import format_table, render_figure1
from repro.units import DAY, HOUR, MINUTE, YEAR, seconds_to_human


class CLIError(Exception):
    """A user-input problem: reported as one line, never a traceback."""


def _parse_params(pairs: Optional[List[str]]) -> dict:
    """Parse repeated ``--param key=value`` flags into a dict.

    Values are coerced to the narrowest of bool/int/float, falling back
    to string.  Malformed entries (no ``=``, empty key) raise
    :class:`CLIError` so the user sees one clean line, not a traceback.
    """
    params: dict = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise CLIError(
                f"malformed --param {pair!r} (expected key=value)"
            )
        value: object
        lowered = raw.lower()
        if lowered in ("true", "false"):
            value = lowered == "true"
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        params[key] = value
    return params


def _add_metrics_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write the run's metrics (Prometheus text for .prom/.txt, "
             "canonical snapshot JSON otherwise)",
    )


def _write_metrics(path: str, obs_or_snapshot) -> None:
    """Dump metrics in the format the output path asks for."""
    from repro.obs.export import write_prometheus
    from repro.obs.snapshot import normalize_snapshot, write_snapshot

    if path.endswith((".prom", ".txt")):
        write_prometheus(path, obs_or_snapshot)
    else:
        snap = (
            obs_or_snapshot
            if isinstance(obs_or_snapshot, dict)
            else obs_or_snapshot.snapshot()
        )
        write_snapshot(path, normalize_snapshot(snap))
    print(f"metrics written to {path}")


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.endurance.requirements import check_figure1_shape, figure1_data

    data = figure1_data(lifetime_s=args.years * YEAR)
    print(render_figure1(data))
    print()
    shape = check_figure1_shape(data)
    print("shape checks:", shape)
    return 0 if all(shape.values()) else 1


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    from repro.core.retention import RetentionModel
    from repro.devices.catalog import get_profile

    reference = get_profile(args.reference)
    model = RetentionModel(reference)
    rows = []
    for retention in (10 * YEAR, YEAR, 30 * DAY, DAY, HOUR, MINUTE):
        rows.append(
            [
                seconds_to_human(retention),
                model.write_energy_j_per_byte(retention)
                / reference.write_energy_j_per_byte,
                model.write_latency_s(retention) / reference.write_latency_s,
                f"{model.endurance_cycles(retention):.2e}",
                model.density_multiplier(retention),
            ]
        )
    print(f"retention trade-off, reference: {reference.name}")
    print(
        format_table(
            rows,
            headers=["retention", "write energy", "write latency",
                     "endurance", "density"],
        )
    )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.analysis.characterization import (
        characterize,
        synthesize_access_stream,
    )
    from repro.workload.model import LLAMA2_13B
    from repro.workload.traces import generate_trace, replay_trace

    trace = generate_trace(LLAMA2_13B, count=args.requests, duration_s=None,
                           seed=args.seed)
    stream = synthesize_access_stream(
        LLAMA2_13B, list(replay_trace(trace)), batch_size=4
    )
    profile = characterize(stream)
    print(
        format_table(
            [
                ["read:write ratio", f"{profile.read_write_ratio:.0f}:1"],
                ["sequentiality", f"{profile.sequentiality:.1%}"],
                ["in-place updates", f"{profile.inplace_update_fraction:.2%}"],
                ["predictability", f"{profile.predictability:.1%}"],
            ],
            headers=["metric", "value"],
        )
    )
    return 0


def _cmd_provisioning(args: argparse.Namespace) -> int:
    from repro.analysis.overprovisioning import hbm_provisioning_table

    rows = hbm_provisioning_table()
    print(
        format_table(
            [
                [r.property, f"{r.provided:.3g}", f"{r.needed:.3g}",
                 f"{r.ratio:.3g}", r.verdict]
                for r in rows
            ],
            headers=["property", "provided", "needed", "ratio", "verdict"],
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.inference.accelerator import H100_80G
    from repro.inference.cluster import tensor_parallel_group
    from repro.inference.sweep import evaluate
    from repro.obs import MetricsRegistry, Tracer
    from repro.workload.model import LLAMA2_70B
    from repro.workload.requests import PoissonArrivals
    from repro.workload.traces import generate_trace, replay_trace

    trace = generate_trace(
        LLAMA2_70B,
        arrivals=PoissonArrivals(args.rate),
        duration_s=args.duration,
        seed=args.seed,
    )
    mode = args.mode
    obs = MetricsRegistry() if args.metrics else None
    tracer = Tracer() if args.trace_out else None
    if obs is not None or tracer is not None:
        # The analytic evaluator has no simulator, so there is no event
        # stream to observe and no simulated-time spans to trace.
        if mode == "analytic":
            raise CLIError(
                "--metrics/--trace-out need the event-level run; "
                "use --mode des"
            )
        # Auto means "analytic when it applies": event-level artifacts
        # are an explicit ask for the DES, so auto skips the analytic
        # attempt and leaves the breadcrumb in the snapshot.
        if obs is not None and mode == "auto":
            obs.counter(
                "serve.analytic_fallback_total", reason="event-artifacts"
            ).add()
        mode = "des"
    report, _evaluated, declined = evaluate(
        tensor_parallel_group(H100_80G, args.tp),
        LLAMA2_70B,
        replay_trace(trace),
        engines=args.engines,
        batch=args.batch,
        mode=mode,
        obs=obs,
        tracer=tracer,
    )
    if declined is not None:
        print(f"analytic evaluator declined ({declined}); "
              "falling back to DES")
    print(
        format_table(
            [
                ["requests", report.requests_completed],
                ["tokens", report.tokens_generated],
                ["throughput tok/s", f"{report.throughput_tokens_per_s:.0f}"],
                ["TTFT p50 s", f"{report.ttft_p50_s:.3f}"],
                ["TBT p50 ms", f"{report.tbt_p50_s * 1e3:.1f}"],
                ["memory-bound", f"{report.memory_bound_fraction:.1%}"],
                ["tokens/J", f"{report.tokens_per_joule:.4f}"],
            ],
            headers=["metric", "value"],
        )
    )
    if obs is not None:
        obs.info("run.command").set("serve")
        obs.info("run.seed").set(str(args.seed))
        _write_metrics(args.metrics, obs)
    if tracer is not None:
        from repro.obs.export import write_trace_jsonl

        write_trace_jsonl(
            args.trace_out, tracer,
            meta={"command": "serve", "seed": args.seed},
        )
        print(f"trace written to {args.trace_out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.inference.sweep import (
        CROSS_VAL_TOLERANCE,
        SERVE_MODES,
        cross_validate,
        cross_validation_grid,
        run_serve_sweep,
    )

    if args.workers is not None and args.workers < 1:
        raise CLIError(f"--workers must be >= 1 (got {args.workers})")
    points = cross_validation_grid(tiny=args.tiny)
    if args.mode == "cross-validate":
        rows = cross_validate(points, root_seed=args.seed,
                              workers=args.workers)
        print(f"DES vs analytic cross-validation (seed {args.seed})")
        print(
            format_table(
                [
                    [
                        row["point"]["model"],
                        row["point"]["accelerator"],
                        f"{row['point']['rate']:g}",
                        row["point"]["engines"],
                        max(row["metrics"],
                            key=lambda k: row["metrics"][k]["rel_err"]),
                        f"{row['max_rel_err']:.2%}",
                    ]
                    for row in rows
                ],
                headers=["model", "accelerator", "rate", "engines",
                         "worst metric", "max rel err"],
            )
        )
        worst = max(row["max_rel_err"] for row in rows)
        print(f"\nworst point: {worst:.2%} (tolerance {CROSS_VAL_TOLERANCE:.0%})")
        return 1 if worst > CROSS_VAL_TOLERANCE else 0
    if args.mode not in SERVE_MODES:
        raise CLIError(
            f"unknown sweep mode {args.mode!r}; known: "
            f"{', '.join(SERVE_MODES)}, cross-validate"
        )
    rows = run_serve_sweep(points, root_seed=args.seed, workers=args.workers,
                           mode=args.mode)
    print(f"serving sweep — mode {args.mode} (seed {args.seed})")
    print(
        format_table(
            [
                [
                    point["model"],
                    point["accelerator"],
                    f"{point['rate']:g}",
                    point["engines"],
                    row["requests_completed"],
                    f"{row['throughput_tokens_per_s']:.0f}",
                    f"{row['ttft_p50_s']:.3f}",
                    f"{row['tbt_p50_s'] * 1e3:.1f}",
                    f"{row['tokens_per_joule']:.4f}",
                ]
                for point, row in zip(points, rows)
            ],
            headers=["model", "accelerator", "rate", "engines", "requests",
                     "tok/s", "TTFT p50 s", "TBT p50 ms", "tokens/J"],
        )
    )
    if args.mode == "auto":
        fallbacks = sum(1 for row in rows if row.get("analytic_fallback"))
        print(f"\nanalytic evaluator declined {fallbacks}/{len(rows)} "
              "points (served by DES)")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.analysis.sensitivity import (
        robustness_summary,
        sweep_kv_requirement,
    )

    points = sweep_kv_requirement()
    print(
        format_table(
            [
                [p.parameter, p.value, f"{p.kv_writes_per_cell:.2e}"]
                for p in points
            ],
            headers=["parameter", "value", "KV writes/cell"],
        )
    )
    print()
    summary = robustness_summary(points)
    print(
        format_table(
            [[k, f"{v:.0%}"] for k, v in summary.items()],
            headers=["observation", "holds at"],
        )
    )
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    from repro.analysis.claims import run_all_claims

    results = run_all_claims()
    rows = []
    for result in results:
        rows.append(
            [
                "PASS" if result.holds else "FAIL",
                result.claim.claim_id,
                f"§{result.claim.section}",
                result.evidence,
            ]
        )
    print(format_table(rows, headers=["status", "claim", "section",
                                      "evidence"]))
    failed = sum(1 for r in results if not r.holds)
    print(f"\n{len(results) - failed}/{len(results)} claims hold")
    return 1 if failed else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.workload.model import LLAMA2_70B
    from repro.workload.traces import generate_trace, write_trace
    from repro.workload.distributions import (
        SPLITWISE_CODE,
        SPLITWISE_CONVERSATION,
    )

    profile = (
        SPLITWISE_CODE if args.profile == "code" else SPLITWISE_CONVERSATION
    )
    records = generate_trace(
        LLAMA2_70B, profile=profile, duration_s=args.duration, seed=args.seed
    )
    count = write_trace(records, args.out)
    print(f"wrote {count} requests ({profile.name}) to {args.out}")
    return 0


#: Fault-experiment families the ``faults`` subcommand can run.
FAULT_EXPERIMENT_FAMILIES = ("controller", "serving", "chaos")


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.experiment import (
        chaos_grid,
        controller_grid,
        run_chaos_experiment,
        run_controller_experiment,
        run_serving_experiment,
        serving_grid,
    )

    if args.family not in FAULT_EXPERIMENT_FAMILIES:
        raise CLIError(
            f"unknown fault experiment {args.family!r}; "
            f"known: {', '.join(FAULT_EXPERIMENT_FAMILIES)}"
        )
    if args.workers is not None and args.workers < 1:
        raise CLIError(f"--workers must be >= 1 (got {args.workers})")
    overrides = _parse_params(args.param)
    if args.metrics:
        # Each point observes itself; snapshots merge after the sweep.
        overrides = dict(overrides, observe=True)
    if args.family == "controller":
        points = [dict(p, **overrides) for p in controller_grid(args.tiny)]
        rows = run_controller_experiment(
            root_seed=args.seed, workers=args.workers, points=points
        )
        knob = "rate_multiplier"
    elif args.family == "chaos":
        points = [dict(p, **overrides) for p in chaos_grid(args.tiny)]
        rows = run_chaos_experiment(
            root_seed=args.seed, workers=args.workers, points=points
        )
        knob = "strike_rate_per_hour"
    else:
        points = [dict(p, **overrides) for p in serving_grid(args.tiny)]
        rows = run_serving_experiment(
            root_seed=args.seed, workers=args.workers, points=points
        )
        knob = "kv_loss_per_hour"
    print(f"fault injection — {args.family} (seed {args.seed})")
    print(
        format_table(
            [
                [
                    f"{row[knob]:g}",
                    row["fault_events"],
                    f"{row['baseline']['availability']:.4f}",
                    f"{row['mitigated']['availability']:.4f}",
                    row["timeline_fingerprint"],
                ]
                for row in rows
            ],
            headers=[knob, "events", "avail (baseline)",
                     "avail (mitigated)", "timeline"],
        )
    )
    if args.metrics:
        from repro.parallel import merge_sweep_snapshots

        _write_metrics(args.metrics, merge_sweep_snapshots(rows))
    worse = [
        row
        for row in rows
        if row["mitigated"]["availability"]
        < row["baseline"]["availability"]
    ]
    if worse:
        print(f"\nWARNING: mitigation underperformed at {len(worse)} points")
        return 1
    return 0


#: Fleet experiments the ``fleet`` subcommand can run.
FLEET_EXPERIMENTS = ("e13", "e14")


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import FleetConfig, run_fleet
    from repro.fleet.experiment import run_e13, run_e14

    if args.workers is not None and args.workers < 1:
        raise CLIError(f"--workers must be >= 1 (got {args.workers})")

    if args.experiment is not None:
        if args.experiment not in FLEET_EXPERIMENTS:
            raise CLIError(
                f"unknown fleet experiment {args.experiment!r}; "
                f"known: {', '.join(FLEET_EXPERIMENTS)}"
            )
        if args.experiment == "e13":
            result = run_e13(
                tiny=args.tiny, root_seed=args.seed, workers=args.workers
            )
            print(f"E13 — fleet SLO attainment and MRM burn "
                  f"(seed {args.seed}{', tiny' if args.tiny else ''})")
            rows = []
            for policy, tenants in result["table"].items():
                for tenant, entry in tenants.items():
                    worst_sla = min(
                        entry["sla_attainment"].values(), default=1.0
                    )
                    rows.append([
                        policy,
                        tenant,
                        f"{entry['users_per_day']:,.0f}",
                        f"{worst_sla:.4f}",
                        f"{entry['ttft_p99_worst_cell_s']:.3f}",
                        entry["shed_total"],
                        f"{entry['mrm_endurance_burn_per_day']:.3e}",
                    ])
            print(format_table(
                rows,
                headers=["routing", "tenant", "users/day", "worst SLA",
                         "p99 ttft (s)", "shed", "MRM burn/day"],
            ))
            print("\nusers/day (fleet total): " + ", ".join(
                f"{policy}={value:,.0f}"
                for policy, value in result["users_per_day_total"].items()
            ))
        else:
            result = run_e14(
                tiny=args.tiny, root_seed=args.seed, workers=args.workers
            )
            print(f"E14 — reactive vs static provisioning "
                  f"(seed {args.seed}{', tiny' if args.tiny else ''})")
            print(format_table(
                [
                    [
                        tenant,
                        entry["reactive_replica_epochs"],
                        entry["static_replica_epochs"],
                        f"{entry['capacity_saving']:.1%}",
                        entry["reactive_mrm_replica_epochs"],
                        entry["reactive_shed_total"],
                        entry["static_shed_total"],
                    ]
                    for tenant, entry in result["table"].items()
                ],
                headers=["tenant", "reactive rep-epochs",
                         "static rep-epochs", "saving", "MRM rep-epochs",
                         "shed (reactive)", "shed (static)"],
            ))
        if args.metrics:
            _write_metrics(args.metrics, result["obs"])
        return 0

    config = FleetConfig(
        num_clusters=args.clusters,
        horizon_s=args.horizon,
        epoch_s=args.epoch,
        routing=args.routing,
        scaling=args.scaling,
        mode=args.mode,
        rate_scale=args.rate_scale,
    )
    result = run_fleet(config, root_seed=args.seed, workers=args.workers)
    totals = result["totals"]
    print(
        f"fleet — {args.clusters} clusters, "
        f"{len(result['config']['tenants'])} tenants, "
        f"{result['config']['epochs']} epochs of {args.epoch:g}s "
        f"({args.routing}/{args.scaling}, seed {args.seed})"
    )
    print(format_table(
        [
            [
                tenant,
                entry["admitted"],
                entry["shed_total"],
                entry["requests_completed"],
                f"{entry['users_per_day']:,.0f}",
                entry["replica_peak"],
                entry["mrm_replica_epochs"],
                f"{entry['ttft_p99_worst_cell_s']:.3f}",
            ]
            for tenant, entry in result["tenants"].items()
        ],
        headers=["tenant", "admitted", "shed", "completed", "users/day",
                 "peak replicas", "MRM rep-epochs", "p99 ttft (s)"],
    ))
    print(
        f"\ntotals: {totals['requests_completed']} completed, "
        f"{totals['shed']} shed, {totals['users_per_day']:,.0f} users/day, "
        f"{totals['cells_analytic']}/{totals['num_cells']} cells analytic"
    )
    if args.metrics:
        _write_metrics(args.metrics, result["obs"])
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.inspect import render_diff, render_span_tree, render_top

    if args.obs_command == "top":
        print(render_top(args.snapshot, limit=args.limit,
                         section=args.section))
        return 0
    if args.obs_command == "spans":
        print(render_span_tree(args.trace, limit=args.limit))
        return 0
    text, count = render_diff(args.snapshot_a, args.snapshot_b)
    print(text)
    return 1 if count else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MRM (HotOS '25) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig1 = sub.add_parser("fig1", help="render Figure 1")
    fig1.add_argument("--years", type=float, default=5.0,
                      help="deployment lifetime (years)")
    fig1.set_defaults(func=_cmd_fig1)

    tradeoff = sub.add_parser("tradeoff", help="retention trade-off table")
    tradeoff.add_argument("--reference", default="rram-weebit",
                          help="catalog profile to relax")
    tradeoff.set_defaults(func=_cmd_tradeoff)

    characterize = sub.add_parser(
        "characterize", help="workload access-pattern characterization"
    )
    characterize.add_argument("--requests", type=int, default=8)
    characterize.add_argument("--seed", type=int, default=0)
    characterize.set_defaults(func=_cmd_characterize)

    provisioning = sub.add_parser(
        "provisioning", help="the HBM fit-to-workload table"
    )
    provisioning.set_defaults(func=_cmd_provisioning)

    serve = sub.add_parser("serve", help="simulate cluster serving")
    serve.add_argument("--rate", type=float, default=1.0,
                       help="request arrivals per second")
    serve.add_argument("--duration", type=float, default=30.0)
    serve.add_argument("--engines", type=int, default=2)
    serve.add_argument("--tp", type=int, default=4,
                       help="tensor-parallel group size")
    serve.add_argument("--batch", type=int, default=16)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--mode", choices=("des", "analytic", "auto"),
                       default="des",
                       help="evaluator: exact DES, closed-form analytic, or "
                            "auto (analytic with DES fallback)")
    _add_metrics_flag(serve)
    serve.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a JSON-lines span trace (simulated-time spans)",
    )
    serve.set_defaults(func=_cmd_serve)

    sweep = sub.add_parser(
        "sweep", help="serving sweep over the pinned grid (DES/analytic)"
    )
    sweep.add_argument("--mode", default="des",
                       help="des, analytic, auto, or cross-validate")
    sweep.add_argument("--tiny", action="store_true",
                       help="smoke-test grid (CI)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=None,
                       help="sweep worker processes (default REPRO_WORKERS)")
    sweep.set_defaults(func=_cmd_sweep)

    sensitivity = sub.add_parser(
        "sensitivity", help="Figure 1 robustness sweep"
    )
    sensitivity.set_defaults(func=_cmd_sensitivity)

    claims = sub.add_parser(
        "claims", help="run every paper-claim check (the live reproduction)"
    )
    claims.set_defaults(func=_cmd_claims)

    faults = sub.add_parser(
        "faults", help="availability vs fault rate, with/without mitigations"
    )
    faults.add_argument("--family", default="controller",
                        help="experiment family: controller, serving, "
                             "or chaos")
    faults.add_argument("--tiny", action="store_true",
                        help="smoke-test grid (CI)")
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--workers", type=int, default=None,
                        help="sweep worker processes (default REPRO_WORKERS)")
    faults.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="override a grid-point field (repeatable)")
    _add_metrics_flag(faults)
    faults.set_defaults(func=_cmd_faults)

    fleet = sub.add_parser(
        "fleet", help="multi-cluster multi-tenant fleet simulation"
    )
    fleet.add_argument("--clusters", type=int, default=4)
    fleet.add_argument("--horizon", type=float, default=600.0,
                       help="simulated horizon (seconds)")
    fleet.add_argument("--epoch", type=float, default=120.0,
                       help="autoscaler/routing epoch length (seconds)")
    fleet.add_argument("--routing", default="least-loaded",
                       help="fleet routing policy: least-loaded, "
                            "tenant-affinity, or power-of-two")
    fleet.add_argument("--scaling", choices=("reactive", "static"),
                       default="reactive",
                       help="capacity planning: reactive autoscaler or "
                            "static peak provisioning")
    fleet.add_argument("--mode", choices=("des", "analytic", "auto"),
                       default="auto",
                       help="cell evaluator (auto = analytic with DES "
                            "fallback)")
    fleet.add_argument("--rate-scale", type=float, default=1.0,
                       help="uniform traffic multiplier over all tenants")
    fleet.add_argument("--experiment", default=None,
                       help="run a canned experiment instead: e13 or e14")
    fleet.add_argument("--tiny", action="store_true",
                       help="smoke-test experiment variant (CI)")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--workers", type=int, default=None,
                       help="sweep worker processes (default REPRO_WORKERS)")
    _add_metrics_flag(fleet)
    fleet.set_defaults(func=_cmd_fleet)

    obs = sub.add_parser(
        "obs", help="inspect metrics snapshots and span traces"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_top = obs_sub.add_parser(
        "top", help="largest entries of one snapshot section"
    )
    obs_top.add_argument("snapshot", help="snapshot JSON path")
    obs_top.add_argument("--limit", type=int, default=20)
    obs_top.add_argument("--section", choices=("counters", "gauges"),
                         default="counters")
    obs_top.set_defaults(func=_cmd_obs)
    obs_spans = obs_sub.add_parser(
        "spans", help="span tree of a JSON-lines trace"
    )
    obs_spans.add_argument("trace", help="trace JSONL path")
    obs_spans.add_argument("--limit", type=int, default=None)
    obs_spans.set_defaults(func=_cmd_obs)
    obs_diff = obs_sub.add_parser(
        "diff", help="diff two snapshots (exit 1 when they differ)"
    )
    obs_diff.add_argument("snapshot_a")
    obs_diff.add_argument("snapshot_b")
    obs_diff.set_defaults(func=_cmd_obs)

    trace = sub.add_parser("trace", help="generate a synthetic trace file")
    trace.add_argument("--out", required=True)
    trace.add_argument("--profile", choices=("conversation", "code"),
                       default="conversation")
    trace.add_argument("--duration", type=float, default=60.0)
    trace.add_argument("--seed", type=int, default=0)
    trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (CLIError, KeyError, ValueError) as exc:
        # User-input problems (unknown profile/experiment, malformed
        # --param, out-of-range values): one line on stderr, exit 2.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Unreadable/unwritable artifact paths (obs inspector inputs,
        # --metrics/--trace-out destinations): same one-line contract.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
