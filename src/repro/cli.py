"""Command-line interface: ``python -m repro <command>``.

Exposes the library's main workflows without writing code:

* ``models``   -- list the model zoo with capacity/table summaries;
* ``shard``    -- build a sharding plan and print (or save) it;
* ``simulate`` -- run one configuration and print latency/CPU quantiles;
* ``suite``    -- run the paper's configuration matrix and print Figure-6
  style overheads;
* ``workload`` -- co-locate several models under a chosen arrival process
  (poisson / constant / diurnal / mmpp) and print per-workload latency,
  optionally with a cache-aware correlated-stream hit-rate summary;
* ``plan``     -- closed-loop capacity planning: simulate every candidate
  sharding configuration under the mix's arrival processes, check the
  latency SLA per workload, size replicas from measured per-shard CPU
  demand, enforce per-server DRAM capacity, and print the cheapest
  feasible deployment;
* ``chaos``    -- fault-injection availability sweep: replay one
  configuration under crash/straggler/network-spike experiments at
  increasing sparse-replica counts, and report availability, SLO
  retention, and the replica count needed for a retention target;
* ``lint``     -- static determinism lint: reject RNG/replay-contract
  hazards (global-state RNG, unseeded generators, wall-clock reads,
  draws under unordered iteration, salted ``hash()``, duplicated
  substream key paths, env reads in the simulation core) before a
  sweep can silently diverge; exits 1 on findings;
* ``trace``    -- replay one request and render the Figure-3 timeline.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.caching import trace_hit_summary
from repro.chaos import (
    PLACEMENTS,
    CorrelatedFailure,
    HealingPolicy,
    HostCrash,
    NetworkSpike,
    StragglerShard,
    availability_sweep,
    format_assessment,
)
from repro.resilience import ResiliencePolicy
from repro.analysis.report import (
    CAPACITY_CANDIDATE_HEADERS,
    CAPACITY_SIZING_HEADERS,
    capacity_candidate_rows,
    capacity_sizing_rows,
    format_table,
)
from repro.core.types import GIB
from repro.lint import (
    AllowRule,
    LintConfig,
    lint_paths,
    render_json,
    render_text,
)
from repro.experiments.configs import ShardingConfiguration, build_plan
from repro.experiments.parallel import run_suite_parallel
from repro.experiments.runner import (
    mix_stream,
    run_configuration,
    run_mix_configuration,
    run_suite,
    SuiteSettings,
)
from repro.models.zoo import MODEL_FACTORIES, build
from repro.planning import CandidateSpace, CapacityPlanner, SlaPolicy
from repro.requests.generator import RequestGenerator
from repro.serving.simulator import ClusterSimulation, ServingConfig
from repro.simulation.engine import DEFAULT_KERNEL, KERNELS
from repro.sharding.plan import SINGULAR
from repro.sharding.pooling import estimate_pooling_factors
from repro.sharding.serialization import dump_plan
from repro.tracing import TraceMode
from repro.tracing.visualize import render_trace
from repro.workloads import (
    ConstantRateArrivals,
    CorrelatedStream,
    MMPPArrivals,
    PiecewiseRateArrivals,
    PoissonArrivals,
    Workload,
    WorkloadMix,
)


def _positive_int(text: str) -> int:
    """argparse ``type=`` for count flags (requests, shards, workers,
    replicas, ...): rejects non-positive values with a usage error
    instead of a traceback."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_model_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", default="DRM1", choices=sorted(MODEL_FACTORIES),
        help="zoo model to operate on",
    )


def _add_trace_mode_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-mode", default=ServingConfig().trace_mode.value,
        choices=[mode.value for mode in TraceMode],
        help="'aggregate' (the default) is the span-free fast path; "
        "'full' also materializes spans and retains per-request "
        "attributions -- every printed column is identical either way",
    )


def _trace_mode(args: argparse.Namespace) -> TraceMode:
    return TraceMode(args.trace_mode)


def _add_kernel_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel", default=DEFAULT_KERNEL, choices=list(KERNELS),
        help="replay kernel: 'vectorized' (the default) replays eligible "
        "runs (serial closed-loop, chaos-free, aggregate tracing) as "
        "columnar numpy programs and falls back to 'batched' otherwise; "
        "'batched' merges a same-timestamp deque with the heap and grants "
        "free resources synchronously; 'reference' is the heap-only loop "
        "the other two are pinned to -- results are bit-identical "
        "(tests/test_kernel_equivalence.py)",
    )


def _configuration(args: argparse.Namespace) -> ShardingConfiguration:
    if args.strategy == SINGULAR:
        return ShardingConfiguration(SINGULAR)
    if args.strategy == "1-shard":
        return ShardingConfiguration("1-shard", 1)
    return ShardingConfiguration(args.strategy, args.shards)


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "resilience policy",
        "per-attempt timeouts, retries, hedging, and request deadlines for "
        "the faulted replays; leave every flag unset for the historical "
        "failover-only path (byte-identical to runs without the policy)",
    )
    group.add_argument(
        "--retry-timeout-ms", type=float, default=None,
        help="per-attempt RPC timeout in milliseconds; a timed-out attempt "
        "is replaced (budget permitting) up to --retry-max-attempts",
    )
    group.add_argument(
        "--retry-max-attempts", type=int, default=None,
        help="total attempts per RPC including the first (default 1; "
        "hedge flags imply 2)",
    )
    group.add_argument(
        "--retry-backoff-ms", type=float, default=0.0,
        help="exponential backoff base before each retry, milliseconds",
    )
    group.add_argument(
        "--retry-jitter", type=float, default=0.0,
        help="deterministic jitter fraction stretching each backoff "
        "(draws from the dedicated 'resilience' substream)",
    )
    group.add_argument(
        "--retry-budget", type=float, default=10.0,
        help="token-bucket capacity for extra attempts (anti-retry-storm)",
    )
    group.add_argument(
        "--retry-refill", type=float, default=10.0,
        help="token-bucket refill rate, tokens per simulated second",
    )
    group.add_argument(
        "--hedge-ms", type=float, default=None,
        help="issue one speculative duplicate this many milliseconds after "
        "the first send; first response wins",
    )
    group.add_argument(
        "--hedge-quantile", type=float, default=None,
        help="derive the hedge delay from this percentile of the healthy "
        "baseline's per-request embedded totals (e.g. 95)",
    )
    group.add_argument(
        "--deadline-ms", type=float, default=None,
        help="end-to-end request deadline in milliseconds; no new attempts "
        "start past it and overruns are flagged per request",
    )


def _resilience_policy(args: argparse.Namespace) -> ResiliencePolicy | None:
    """Build the policy from CLI flags; ``None`` when no flag was set."""
    hedging = args.hedge_ms is not None or args.hedge_quantile is not None
    if (
        args.retry_timeout_ms is None
        and args.retry_max_attempts is None
        and args.deadline_ms is None
        and not hedging
    ):
        return None
    max_attempts = args.retry_max_attempts
    if max_attempts is None:
        # Hedging needs a second attempt to issue; a bare timeout or
        # deadline changes accounting but not the attempt cap.
        max_attempts = 2 if hedging else 1
    return ResiliencePolicy(
        rpc_timeout=(
            args.retry_timeout_ms / 1e3
            if args.retry_timeout_ms is not None else None
        ),
        max_attempts=max_attempts,
        backoff_base=args.retry_backoff_ms / 1e3,
        backoff_jitter=args.retry_jitter,
        hedge_delay=args.hedge_ms / 1e3 if args.hedge_ms is not None else None,
        hedge_quantile=args.hedge_quantile,
        deadline=(
            args.deadline_ms / 1e3 if args.deadline_ms is not None else None
        ),
        retry_budget=args.retry_budget,
        retry_refill_rate=args.retry_refill,
    )


def _add_domain_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--domains", type=_positive_int, default=1,
        help="fault domains to place sparse replicas across (racks/zones); "
        "1 disables domain-aware placement",
    )
    parser.add_argument(
        "--placement", default="spread", choices=list(PLACEMENTS),
        help="'spread' stripes a shard's replicas across domains so one "
        "domain crash leaves survivors; 'packed' fills domain-by-domain",
    )


def cmd_models(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(MODEL_FACTORIES):
        model = build(name)
        pooling = model.expected_pooling_per_net()
        rows.append(
            (
                name,
                len(model.tables),
                round(model.sparse_bytes / GIB, 2),
                round(model.largest_table_bytes / GIB, 2),
                len(model.nets),
                round(sum(pooling.values()), 1),
            )
        )
    print(
        format_table(
            ["model", "tables", "sparse GiB", "largest GiB", "nets", "ids/request"],
            rows,
            title="Model zoo",
        )
    )
    return 0


def cmd_shard(args: argparse.Namespace) -> int:
    model = build(args.model)
    pooling = estimate_pooling_factors(model, num_requests=args.pooling_requests)
    plan = build_plan(model, _configuration(args), pooling)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(dump_plan(plan))
        print(f"wrote {plan.label} plan to {args.output}")
        return 0
    rows = [
        (
            shard.index + 1,
            round(shard.capacity_bytes(model) / GIB, 2),
            len(shard.assignments),
            ", ".join(sorted(shard.nets_present(model))),
        )
        for shard in plan.shards
    ]
    print(
        format_table(
            ["shard", "capacity GiB", "tables", "nets"],
            rows,
            title=f"{model.name}: {plan.label}",
        )
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    model = build(args.model)
    pooling = estimate_pooling_factors(model, num_requests=args.pooling_requests)
    plan = build_plan(model, _configuration(args), pooling)
    requests = RequestGenerator(model, seed=args.seed).generate_many(args.requests)
    result = run_configuration(
        model, plan, requests,
        ServingConfig(
            seed=args.seed, trace_mode=_trace_mode(args), kernel=args.kernel
        ),
    )
    rows = [
        (
            f"P{q}",
            round(float(np.percentile(result.e2e, q)) * 1e3, 3),
            round(float(np.percentile(result.cpu, q)) * 1e3, 3),
        )
        for q in (50, 90, 99)
    ]
    print(
        format_table(
            ["quantile", "E2E latency (ms)", "aggregate CPU (ms)"],
            rows,
            title=f"{model.name} / {plan.label} ({args.requests} serial requests)",
        )
    )
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    model = build(args.model)
    settings = SuiteSettings(
        num_requests=args.requests,
        serving=ServingConfig(seed=args.seed),
        trace_mode=_trace_mode(args),
        kernel=args.kernel,
    )

    def sweep():
        if args.parallel or args.workers is not None:
            return run_suite_parallel(model, settings, max_workers=args.workers)
        return run_suite(model, settings)

    if getattr(args, "profile", False):
        import cProfile
        import pstats
        import time

        profiler = cProfile.Profile()
        start = time.perf_counter()  # detlint: disable=DET003 -- profiling host wall time, not simulated time
        profiler.enable()
        try:
            results = sweep()
        finally:
            profiler.disable()
        elapsed = time.perf_counter() - start  # detlint: disable=DET003 -- profiling host wall time, not simulated time
        print(f"[profile] sweep wall time {elapsed:.2f}s", file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
    else:
        results = sweep()
    base = results[SINGULAR]
    rows = []
    for label, result in results.items():
        if label == SINGULAR:
            continue
        row = [label]
        for q in (50, 99):
            overhead = (
                np.percentile(result.e2e, q) - np.percentile(base.e2e, q)
            ) / np.percentile(base.e2e, q)
            row.append(f"{overhead:+.1%}")
        cpu = (
            np.percentile(result.cpu, 50) - np.percentile(base.cpu, 50)
        ) / np.percentile(base.cpu, 50)
        row.append(f"{cpu:+.1%}")
        rows.append(tuple(row))
    print(
        format_table(
            ["configuration", "P50 latency", "P99 latency", "P50 compute"],
            rows,
            title=f"{model.name} overheads vs singular ({args.requests} requests)",
        )
    )
    return 0


def _arrival_process(args: argparse.Namespace, index: int):
    """One workload's arrival process; seeds are offset per workload so
    co-located streams are independent."""
    seed = args.seed + index
    if args.arrivals == "poisson":
        return PoissonArrivals(args.qps, seed=seed)
    if args.arrivals == "constant":
        return ConstantRateArrivals(args.qps)
    if args.arrivals == "diurnal":
        return PiecewiseRateArrivals.diurnal(
            args.qps, trough_fraction=args.trough_fraction,
            hours=args.hours, seed=seed,
        )
    return MMPPArrivals(
        (args.qps / 2.0, 2.0 * args.qps),
        mean_dwell_seconds=args.dwell_seconds, seed=seed,
    )


def cmd_workload(args: argparse.Namespace) -> int:
    workloads = []
    for index, name in enumerate(args.models):
        workloads.append(
            Workload(
                name=f"{name.lower()}-{index}" if args.models.count(name) > 1 else name,
                model=build(name),
                arrivals=_arrival_process(args, index),
                request_seed=args.seed + index,
                # Seeded per workload (like arrivals and requests) so
                # co-located tenants draw independent id streams.
                id_stream=(
                    CorrelatedStream(
                        recency_weight=args.recency_weight, seed=args.seed + index
                    )
                    if args.cache_summary
                    else None
                ),
            )
        )
    mix = WorkloadMix(tuple(workloads))
    settings = SuiteSettings(
        num_requests=args.requests,
        pooling_requests=args.pooling_requests,
        serving=ServingConfig(seed=args.seed),
        trace_mode=_trace_mode(args),
        kernel=args.kernel,
    )
    stream = mix_stream(mix, settings)
    plans = [
        build_plan(
            workload.model,
            _configuration(args),
            estimate_pooling_factors(
                workload.model, num_requests=settings.pooling_requests,
                seed=settings.pooling_seed,
            ),
        )
        for workload in mix.workloads
    ]
    result = run_mix_configuration(
        mix, plans, stream, settings.resolved_serving()
    )
    rows = []
    per_workload = result.per_workload_e2e()
    for workload, plan in zip(mix.workloads, plans):
        latencies = per_workload[workload.name]
        rows.append(
            (
                workload.name,
                workload.model.name,
                plan.label,
                len(latencies),
                round(float(np.percentile(latencies, 50)) * 1e3, 3),
                round(float(np.percentile(latencies, 99)) * 1e3, 3),
            )
        )
    rows.append(
        (
            "all", "-", "-", len(result),
            round(float(np.percentile(result.e2e, 50)) * 1e3, 3),
            round(float(np.percentile(result.e2e, 99)) * 1e3, 3),
        )
    )
    print(
        format_table(
            ["workload", "model", "plan", "requests", "P50 (ms)", "P99 (ms)"],
            rows,
            title=(
                f"co-located {'+'.join(w.model.name for w in mix.workloads)} "
                f"under {args.arrivals} arrivals ({args.qps} QPS peak)"
            ),
        )
    )
    if args.cache_summary:
        cache_rows = []
        for name, trace in mix.access_traces(stream).items():
            summary = trace_hit_summary(trace, cache_fraction=args.cache_fraction)
            cache_rows.append(
                (name, trace.total_accesses(), round(summary["overall"], 3))
            )
        print()
        print(
            format_table(
                ["workload", "accesses", "LRU hit rate"],
                cache_rows,
                title=(
                    f"correlated-stream cache summary "
                    f"(LRU at {args.cache_fraction:.0%} of working set)"
                ),
            )
        )
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    workloads = []
    for index, name in enumerate(args.models):
        workloads.append(
            Workload(
                name=f"{name.lower()}-{index}" if args.models.count(name) > 1 else name,
                model=build(name),
                arrivals=_arrival_process(args, index),
                request_seed=args.seed + index,
            )
        )
    mix = WorkloadMix(tuple(workloads))
    planner = CapacityPlanner(
        policy=SlaPolicy(args.target_ms / 1e3) if args.target_ms else None,
        space=CandidateSpace(utilization_targets=tuple(args.utilization)),
        settings=SuiteSettings(
            num_requests=args.requests,
            pooling_requests=args.pooling_requests,
            serving=ServingConfig(seed=args.seed),
            trace_mode=_trace_mode(args),
            kernel=args.kernel,
        ),
        slack=args.slack,
    )
    plan = planner.plan(
        mix,
        parallel=args.parallel or args.workers is not None,
        max_workers=args.workers,
    )
    print(
        f"SLA window: {plan.policy.target_latency * 1e3:.3f} ms "
        + ("(explicit)" if args.target_ms else f"(singular P99 x {args.slack})")
    )
    print(
        format_table(
            CAPACITY_CANDIDATE_HEADERS,
            capacity_candidate_rows(plan.candidates),
            title=(
                f"closed-loop search: {'+'.join(w.model.name for w in mix.workloads)} "
                f"under {args.arrivals} arrivals (sizing peaks: "
                + ", ".join(
                    f"{w.arrivals.peak_rate():g} QPS" for w in mix.workloads
                )
                + ")"
            ),
        )
    )
    if not plan.feasible:
        print("\nno feasible deployment: no candidate meets the SLA within DRAM capacity")
        return 1
    chosen = plan.chosen
    print(
        f"\nchosen: {chosen.label} at {chosen.utilization_target:.0%} utilization "
        f"-- {chosen.total_servers} servers, "
        f"{chosen.total_memory_bytes / GIB:.1f} GiB pinned"
    )
    print(
        format_table(
            CAPACITY_SIZING_HEADERS,
            capacity_sizing_rows(chosen.workloads),
            title="per-workload sizing (label-column demand, own sharding plan)",
        )
    )
    if args.assess_availability:
        if args.domains > 1:
            experiments: tuple = (
                CorrelatedFailure(domain=0, at=args.crash_at),
            )
        else:
            experiments = (HostCrash(shard=0, at=args.crash_at),)
        assessment = planner.assess_availability(
            mix,
            chosen,
            experiments,
            tuple(args.assess_replicas),
            domains=args.domains,
            placement=args.placement,
            policy=_resilience_policy(args),
            parallel=args.parallel or args.workers is not None,
            max_workers=args.workers,
        )
        print(
            "\navailability assessment under "
            + ", ".join(type(e).__name__ for e in experiments)
            + ":"
        )
        print("\n".join(format_assessment(assessment)))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    model = build(args.model)
    workload = Workload(
        name=args.model.lower(),
        model=model,
        arrivals=_arrival_process(args, 0),
        request_seed=args.seed,
    )
    experiments = []
    if not args.no_crash:
        experiments.append(
            HostCrash(
                shard=args.crash_shard,
                at=args.crash_at,
                restart_after=args.restart_after,
            )
        )
    if args.straggler is not None:
        shard, start, duration, multiplier = args.straggler
        experiments.append(
            StragglerShard(
                shard=int(shard), start=start, duration=duration,
                multiplier=multiplier,
            )
        )
    if args.spike is not None:
        start, duration, extra_ms = args.spike
        experiments.append(
            NetworkSpike(start=start, duration=duration, extra_latency=extra_ms / 1e3)
        )
    if args.correlated_domain is not None:
        experiments.append(
            CorrelatedFailure(
                domain=args.correlated_domain,
                at=args.correlated_at,
                restart_after=args.correlated_restart,
                stagger=args.correlated_stagger,
            )
        )
    healing = (
        HealingPolicy(
            check_interval=args.check_interval,
            consecutive_misses=args.misses,
            recovery_lag=args.recovery_lag,
        )
        if args.heal
        else None
    )
    assessment = availability_sweep(
        workload,
        _configuration(args),
        tuple(experiments),
        tuple(args.replicas),
        healing=healing,
        domains=args.domains,
        placement=args.placement,
        policy=_resilience_policy(args),
        settings=SuiteSettings(
            num_requests=args.requests,
            pooling_requests=args.pooling_requests,
            serving=ServingConfig(seed=args.seed),
            trace_mode=_trace_mode(args),
            kernel=args.kernel,
        ),
        slo_latency=args.slo_ms / 1e3 if args.slo_ms else None,
        slo_slack=args.slack,
        window=args.window,
        parallel=args.parallel or args.workers is not None,
        max_workers=args.workers,
    )
    title = (
        f"chaos sweep: {model.name} / {_configuration(args).label} under "
        + ", ".join(type(experiment).__name__ for experiment in experiments)
        + (" with healing" if healing else "")
    )
    lines = [title, ""]
    lines.extend(format_assessment(assessment))
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report)
        print(f"\nwrote availability report to {args.report}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    config = LintConfig(allowlist=()) if args.no_default_allow else LintConfig()
    if args.allow:
        config = config.with_extra(
            tuple(AllowRule.parse(spec) for spec in args.allow)
        )
    report = lint_paths(args.paths, config)
    rendered = (
        render_json(report) if args.format == "json" else render_text(report)
    )
    print(rendered)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered)
            handle.write("\n")
        print(f"wrote lint report to {args.output}", file=sys.stderr)
    return 1 if report.findings else 0


def cmd_trace(args: argparse.Namespace) -> int:
    model = build(args.model)
    pooling = estimate_pooling_factors(model, num_requests=args.pooling_requests)
    plan = build_plan(model, _configuration(args), pooling)
    request = RequestGenerator(model, seed=args.seed).generate(args.request_id)
    # Rendering reads spans, so this is the one verb that asks for FULL.
    cluster = ClusterSimulation(
        model, plan, ServingConfig(seed=args.seed, trace_mode=TraceMode.FULL)
    )
    cluster.run_serial([request])
    print(render_trace(cluster.tracer.for_request(request.request_id), width=args.width))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Capacity-driven scale-out recommendation inference (ISPASS 2021 reproduction)",
        epilog="Every verb above replays deterministically: identical "
        "inputs give byte-identical results across serial/parallel "
        "sweeps, trace modes, and chaos baselines (the contract in "
        "repro/core/rng.py).  'repro lint' enforces that contract "
        "statically -- run it (like CI does, next to 'repro plan' and "
        "'repro chaos' smokes) before landing changes to simulation, "
        "serving, or chaos code.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("models", help="list the model zoo").set_defaults(func=cmd_models)

    def add_plan_arguments(sub: argparse.ArgumentParser) -> None:
        _add_model_argument(sub)
        sub.add_argument(
            "--strategy", default="load-bal",
            choices=[SINGULAR, "1-shard", "load-bal", "cap-bal", "NSBP"],
        )
        sub.add_argument("--shards", type=_positive_int, default=8)
        sub.add_argument("--pooling-requests", type=_positive_int, default=300)
        sub.add_argument("--seed", type=int, default=1)

    shard = commands.add_parser("shard", help="build and print a sharding plan")
    add_plan_arguments(shard)
    shard.add_argument("--output", help="write the plan as JSON to this path")
    shard.set_defaults(func=cmd_shard)

    simulate = commands.add_parser("simulate", help="simulate one configuration")
    add_plan_arguments(simulate)
    simulate.add_argument("--requests", type=_positive_int, default=150)
    _add_trace_mode_argument(simulate)
    _add_kernel_argument(simulate)
    simulate.set_defaults(func=cmd_simulate)

    suite = commands.add_parser("suite", help="run the paper's config matrix")
    _add_model_argument(suite)
    suite.add_argument("--requests", type=_positive_int, default=120)
    suite.add_argument("--seed", type=int, default=1)
    _add_trace_mode_argument(suite)
    _add_kernel_argument(suite)
    suite.add_argument(
        "--parallel", action="store_true",
        help="fan configurations out over worker processes "
        "(identical results to the serial sweep)",
    )
    suite.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker-process cap; implies --parallel (default: CPU count "
        "or REPRO_SWEEP_WORKERS)",
    )
    suite.add_argument(
        "--profile", action="store_true",
        help="profile the sweep with cProfile and print the top 25 "
        "functions by cumulative time to stderr (results are unchanged; "
        "profiling only observes the host process)",
    )
    suite.set_defaults(func=cmd_suite)

    workload = commands.add_parser(
        "workload",
        help="co-locate models under a chosen arrival process",
        description="Run a multi-model workload mix on one shared simulated "
        "cluster: each model gets its own sharding plan, requests "
        "interleave by merged arrival order, and contention between the "
        "models is simulated on shared hosts.  Prints per-workload and "
        "overall latency quantiles.",
    )
    def add_mix_arguments(sub: argparse.ArgumentParser) -> None:
        """Multi-model + arrival-process arguments shared by the workload
        and plan commands."""
        sub.add_argument(
            "--models", nargs="+", default=["DRM1", "DRM2"],
            choices=sorted(MODEL_FACTORIES),
            help="one workload per named model (repeat a name to co-locate "
            "two instances of the same model)",
        )
        sub.add_argument(
            "--arrivals", default="diurnal",
            choices=["poisson", "constant", "diurnal", "mmpp"],
            help="arrival process per workload: 'poisson' fixed-QPS open loop, "
            "'constant' deterministic gaps, 'diurnal' non-homogeneous Poisson "
            "over the sinusoidal day curve, 'mmpp' bursty Markov-modulated "
            "Poisson alternating qps/2 and 2*qps states",
        )
        sub.add_argument(
            "--qps", type=float, default=40.0,
            help="rate per workload: the fixed/constant rate, the diurnal peak, "
            "or the MMPP anchor rate",
        )
        sub.add_argument(
            "--trough-fraction", type=float, default=0.35,
            help="diurnal trough as a fraction of peak QPS",
        )
        sub.add_argument(
            "--hours", type=_positive_int, default=24, help="length of the diurnal curve"
        )
        sub.add_argument(
            "--dwell-seconds", type=float, default=60.0,
            help="mean MMPP state dwell time",
        )

    add_mix_arguments(workload)
    workload.add_argument(
        "--strategy", default="load-bal",
        choices=[SINGULAR, "1-shard", "load-bal", "cap-bal", "NSBP"],
        help="sharding strategy applied to every workload's model",
    )
    workload.add_argument("--shards", type=_positive_int, default=4)
    workload.add_argument(
        "--requests", type=_positive_int, default=120,
        help="request count per workload",
    )
    workload.add_argument("--pooling-requests", type=_positive_int, default=300)
    workload.add_argument("--seed", type=int, default=1)
    _add_trace_mode_argument(workload)
    _add_kernel_argument(workload)
    workload.add_argument(
        "--cache-summary", action="store_true",
        help="also emit each workload's temporally-correlated "
        "(popularity + recency) sparse-ID stream and print its LRU "
        "cache hit rates",
    )
    workload.add_argument(
        "--cache-fraction", type=float, default=0.10,
        help="cache size for --cache-summary, as a fraction of each "
        "table's observed working set",
    )
    workload.add_argument(
        "--recency-weight", type=float, default=0.3,
        help="probability an access re-references a recently touched row "
        "(--cache-summary streams)",
    )
    workload.set_defaults(func=cmd_workload)

    plan = commands.add_parser(
        "plan",
        help="closed-loop SLA-driven capacity planning over a workload mix",
        description="Search the deployment space (sharding configuration x "
        "utilization target) for the cheapest deployment that meets a "
        "latency SLA: each candidate is simulated under the mix's arrival "
        "processes (co-location contention included), checked per workload "
        "against the SLA, sized from measured per-shard CPU demand, and "
        "required to fit every server's pinned bytes in platform DRAM.  "
        "Exits 1 when no candidate qualifies.",
    )
    add_mix_arguments(plan)
    plan.add_argument(
        "--requests", type=_positive_int, default=60,
        help="request count per workload",
    )
    plan.add_argument("--pooling-requests", type=_positive_int, default=300)
    plan.add_argument("--seed", type=int, default=1)
    _add_trace_mode_argument(plan)
    _add_kernel_argument(plan)
    plan.add_argument(
        "--target-ms", type=float, default=None,
        help="explicit SLA window in milliseconds; default derives it from "
        "the mix's own singular baseline (P99 x slack)",
    )
    plan.add_argument(
        "--slack", type=float, default=1.5,
        help="headroom multiplier for the derived SLA window (ignored with "
        "--target-ms)",
    )
    plan.add_argument(
        "--utilization", nargs="+", type=float, default=[0.4, 0.6, 0.8],
        help="candidate utilization ceilings, headroom-first (ties resolve "
        "toward the first listed)",
    )
    plan.add_argument(
        "--parallel", action="store_true",
        help="evaluate candidate configurations over worker processes "
        "(identical plan to the serial search)",
    )
    plan.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker-process cap; implies --parallel",
    )
    plan.add_argument(
        "--assess-availability", action="store_true",
        help="after choosing a plan, re-simulate it under a chaos suite "
        "(a correlated domain crash with --domains > 1, a host crash "
        "otherwise) and report replicas-for-N-nines sizing",
    )
    plan.add_argument(
        "--assess-replicas", nargs="+", type=_positive_int, default=[1, 2, 3],
        help="sparse replica counts the availability assessment sweeps",
    )
    plan.add_argument(
        "--crash-at", type=float, default=0.1,
        help="fault time (simulated seconds) for the assessment suite",
    )
    _add_domain_arguments(plan)
    _add_resilience_arguments(plan)
    plan.set_defaults(func=cmd_plan)

    chaos = commands.add_parser(
        "chaos",
        help="fault-injection availability sweep over replica counts",
        description="Replay one sharded configuration under a deterministic "
        "fault suite (host crash, straggler shard, network spike) at "
        "increasing sparse-replica counts.  Each request ends ok (full, "
        "in-SLO), slow, degraded (dense-only partial result), or failed; "
        "the sweep reports availability and SLO retention per replica "
        "count, the replica count needed for the retention targets, and "
        "the crash/heal timeline.",
    )
    _add_model_argument(chaos)
    chaos.add_argument(
        "--strategy", default="load-bal",
        choices=["1-shard", "load-bal", "cap-bal", "NSBP"],
        help="sharding strategy (chaos needs remote sparse shards, so "
        "singular is excluded)",
    )
    chaos.add_argument("--shards", type=_positive_int, default=4)
    chaos.add_argument("--pooling-requests", type=_positive_int, default=300)
    chaos.add_argument("--requests", type=_positive_int, default=120)
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument(
        "--arrivals", default="poisson",
        choices=["poisson", "constant", "diurnal", "mmpp"],
    )
    chaos.add_argument("--qps", type=float, default=80.0)
    chaos.add_argument("--trough-fraction", type=float, default=0.35)
    chaos.add_argument("--hours", type=_positive_int, default=24)
    chaos.add_argument("--dwell-seconds", type=float, default=60.0)
    chaos.add_argument(
        "--replicas", nargs="+", type=_positive_int, default=[1, 2, 3],
        help="sparse replica counts to sweep",
    )
    chaos.add_argument(
        "--crash-shard", type=int, default=0,
        help="shard whose replica 0 crashes (see --no-crash)",
    )
    chaos.add_argument(
        "--crash-at", type=float, default=0.1,
        help="crash time in simulated seconds",
    )
    chaos.add_argument(
        "--restart-after", type=float, default=None,
        help="bring the crashed host back after this many seconds "
        "(default: stays down)",
    )
    chaos.add_argument(
        "--no-crash", action="store_true",
        help="drop the default host-crash experiment",
    )
    chaos.add_argument(
        "--straggler", nargs=4, type=float, default=None,
        metavar=("SHARD", "START", "DURATION", "MULT"),
        help="slow one shard's service times by MULT over [START, START+DURATION)",
    )
    chaos.add_argument(
        "--spike", nargs=3, type=float, default=None,
        metavar=("START", "DURATION", "EXTRA_MS"),
        help="add EXTRA_MS one-way latency to every RPC over [START, START+DURATION)",
    )
    chaos.add_argument(
        "--correlated-domain", type=int, default=None,
        help="crash every host in this fault domain at --correlated-at "
        "(requires --domains > 1 to be interesting)",
    )
    chaos.add_argument(
        "--correlated-at", type=float, default=0.1,
        help="correlated-failure time in simulated seconds",
    )
    chaos.add_argument(
        "--correlated-restart", type=float, default=None,
        help="bring the crashed domain back after this many seconds",
    )
    chaos.add_argument(
        "--correlated-stagger", type=float, default=0.0,
        help="spread the per-host crash instants over this window "
        "(deterministic draws from the chaos/correlated substream)",
    )
    _add_domain_arguments(chaos)
    _add_resilience_arguments(chaos)
    chaos.add_argument(
        "--heal", action="store_true",
        help="run the self-healing controller (heartbeat detection + "
        "re-replication)",
    )
    chaos.add_argument("--check-interval", type=float, default=0.05)
    chaos.add_argument("--misses", type=_positive_int, default=2)
    chaos.add_argument("--recovery-lag", type=float, default=0.25)
    chaos.add_argument(
        "--slo-ms", type=float, default=None,
        help="explicit latency SLO in milliseconds (default: healthy p99 "
        "x --slack)",
    )
    chaos.add_argument("--slack", type=float, default=1.5)
    chaos.add_argument(
        "--window", type=float, default=0.5,
        help="availability-timeline bin width in seconds",
    )
    _add_trace_mode_argument(chaos)
    _add_kernel_argument(chaos)
    chaos.add_argument(
        "--parallel", action="store_true",
        help="fan replica counts out over worker processes "
        "(byte-identical to the serial sweep)",
    )
    chaos.add_argument("--workers", type=_positive_int, default=None)
    chaos.add_argument(
        "--report", default=None,
        help="also write the availability report to this path",
    )
    chaos.set_defaults(func=cmd_chaos)

    lint = commands.add_parser(
        "lint",
        help="statically enforce the determinism contract (exit 1 on findings)",
        description="AST-based determinism lint over the given files or "
        "directories.  Rules DET001-DET007 reject RNG/replay-contract "
        "hazards: global-state RNG (DET001), unseeded generators "
        "(DET002), wall-clock reads (DET003), draws under unordered "
        "iteration (DET004), salted hash() in seed derivation (DET005), "
        "duplicated constant substream key paths across the whole linted "
        "tree (DET006), and os.environ reads inside the simulation core "
        "(DET007).  Silence a finding with a path-scoped allowlist entry "
        "or an inline '# detlint: disable=DETnnn -- <reason>' comment; "
        "the reason is mandatory.",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="report format ('json' is the versioned CI-artifact form)",
    )
    lint.add_argument(
        "--output", default=None,
        help="also write the report to this path",
    )
    lint.add_argument(
        "--allow", action="append", default=None, metavar="DETnnn:GLOB",
        help="extra allowlist entry, e.g. DET003:benchmarks/* (repeatable)",
    )
    lint.add_argument(
        "--no-default-allow", action="store_true",
        help="drop the built-in allowlist (DET003 under benchmarks/*)",
    )
    lint.set_defaults(func=cmd_lint)

    trace = commands.add_parser("trace", help="render one request's trace")
    add_plan_arguments(trace)
    trace.add_argument("--request-id", type=int, default=0)
    trace.add_argument("--width", type=int, default=96)
    trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
