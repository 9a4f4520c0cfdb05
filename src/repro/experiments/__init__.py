"""Experiment harness: configuration matrix, runner, figure generators.

Sizing and throughput knobs
---------------------------

* ``REPRO_REQUESTS`` -- request count per configuration in suites and
  benchmarks (default 200 for suites, 150 in ``benchmarks/``).  The
  paper's tail quantiles (P99 overheads, Section VI-B4) need large
  samples to stabilize; the simulation fast path (vectorized request
  generation, the DES plain-delay yield, columnar ``RunResult`` storage)
  exists so raising this knob is cheap.
* ``REPRO_SWEEP_WORKERS`` -- worker processes for
  :func:`~repro.experiments.parallel.run_suite_parallel`, which fans the
  configuration matrix out over ``multiprocessing`` and is byte-identical
  to the serial :func:`~repro.experiments.runner.run_suite`.
* ``SuiteSettings.trace_mode`` / ``ServingConfig.trace_mode`` --
  :class:`~repro.tracing.aggregate.TraceMode.AGGREGATE` (the default)
  runs sweeps with the span-free tracer: every result column every
  figure reads, per-shard and per-(shard, net) demand included, with no
  retained per-request attributions.  ``FULL`` adds spans and
  attributions for code that reads them (``repro trace``, Figure 3).
  ``SuiteSettings.kernel`` / ``ServingConfig.kernel`` default to
  ``"vectorized"``: eligible runs replay as columnar numpy programs, the
  rest on the batched DES (reason on ``RunResult.kernel_fallback``).
  The CLI exposes both as ``--trace-mode`` / ``--kernel``.
* ``results/BENCH_throughput.json`` -- simulated-requests-per-second
  trajectory (full + aggregate trace modes, plus the co-located diurnal
  ``mix_sweep`` entry), rewritten by
  ``benchmarks/test_perf_throughput.py`` via
  :func:`repro.analysis.bench.record_benchmark` only when
  ``REPRO_BENCH_RECORD=1`` (other runs write ``results/smoke/``).
* ``SuiteSettings.arrivals`` / ``repro.workloads`` -- any
  :class:`~repro.workloads.arrivals.ArrivalProcess` (diurnal, MMPP,
  constant-rate) can drive a classic suite; multi-model co-location runs
  through :func:`run_mix_suite` / :func:`run_mix_suite_parallel` over a
  :class:`~repro.workloads.workload.WorkloadMix`, producing
  per-workload-labeled :class:`RunResult` columns in both trace modes.
"""

from repro.experiments.configs import (
    PAPER_SHARD_COUNTS,
    ShardingConfiguration,
    build_plan,
    mix_configurations,
    paper_configurations,
)
from repro.experiments.parallel import (
    default_workers,
    run_cluster_tasks,
    run_mix_suite_parallel,
    run_suite_parallel,
)
from repro.experiments.runner import (
    RunResult,
    SuiteSettings,
    default_num_requests,
    mix_stream,
    run_configuration,
    run_mix_configuration,
    run_mix_suite,
    run_suite,
    suite_requests,
)
from repro.experiments import figures
from repro.tracing.aggregate import TraceMode

__all__ = [
    "PAPER_SHARD_COUNTS",
    "RunResult",
    "ShardingConfiguration",
    "SuiteSettings",
    "TraceMode",
    "build_plan",
    "default_num_requests",
    "default_workers",
    "figures",
    "mix_configurations",
    "mix_stream",
    "paper_configurations",
    "run_configuration",
    "run_mix_configuration",
    "run_mix_suite",
    "run_cluster_tasks",
    "run_mix_suite_parallel",
    "run_suite",
    "run_suite_parallel",
    "suite_requests",
]
