"""The benchmark's three workloads.

Each workload is a fixed list of *cases* derived from the seed.  A case
is one unit of work timed as a whole: one paper-grid cell (three
iterations with persisting caches), one 100-worker bidding stream, or
one open-loop service run followed by the five trace walkers.  Cases
run serially in this process; nothing uses a process pool.

:meth:`Workload.execute` is the timed part (CPU time, rescaled to
reference seconds when a host meter runs);
:meth:`Workload.settle` checks the outputs and reads the deterministic
work counters afterwards.  Importing this module imports every
``repro`` module a workload needs, so the set-up probe's import phase
covers them all.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

import repro  # noqa: F401  (the import a user pays first)
from repro.check.oracle import replay_trace
from repro.cluster.profiles import (
    BASE_NETWORK_MBPS,
    BASE_RW_MBPS,
    WorkerProfile,
    profile_by_name,
)
from repro.cluster.worker_spec import WorkerSpec
from repro.engine.runtime import WorkflowRuntime
from repro.experiments.configs import (
    JOB_CONFIG_NAMES,
    PROFILE_NAMES,
    default_engine_config,
)
from repro.experiments.runner import CellSpec, run_cell
from repro.faults import CrashRenewal, FaultPlan
from repro.metrics.analysis import summarize
from repro.obs import build_spans
from repro.obs.attribution import attribute
from repro.obs.explain import explain_document
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.serve import (
    AdmissionConfig,
    AutoscalerConfig,
    ServiceConfig,
    ServiceRuntime,
    make_arrivals,
)
from repro.workload.generators import JOBS_PER_CONFIG, job_config_by_name
from repro.workload.source import SyntheticJobSource
from hostmeter import speed_ratio
from taps import heap_pushes

#: Relative tolerance for float totals re-derived in another order.
_REL_TOL = 1e-9


@dataclass
class Outcome:
    """What one case produced.

    ``runs`` holds one dict of simulated results per engine run;
    ``counts`` the deterministic work counters; ``walk`` the CPU
    seconds of each trace walker.  ``failed`` counts offered jobs that
    failed permanently or belong to a run whose output check failed.
    ``host_s`` is the CPU seconds of the timed part, and ``ref_s`` the
    same span in reference seconds (see :mod:`hostmeter`; equal to
    ``host_s`` when the case ran unmetered).
    """

    offered: int
    completed: int
    failed: int
    host_s: float
    ref_s: float = 0.0
    runs: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    walk: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    rate: Optional[float] = None

    def fingerprint(self) -> tuple:
        """Every simulated output and counter; equal on a repeat."""
        return (
            self.offered,
            self.completed,
            tuple(tuple(sorted(run.items())) for run in self.runs),
            tuple(sorted(self.counts.items())),
            tuple(self.latencies),
        )


def runtime_counts(runtime) -> Counter:
    """Work counters read off a finished runtime's public surfaces.

    The one private read is the kernel's heap-push count (see
    :func:`taps.heap_pushes`), checked by :func:`check_pushes_grew`.
    """
    metrics = runtime.metrics
    counts = Counter()
    counts["sim.heap_pushes"] = heap_pushes(runtime.sim)
    counts["core.bids"] = sum(w.bids_submitted for w in metrics.workers.values())
    counts["core.contests"] = metrics.contests_opened
    counts["engine.offers"] = metrics.offers_made
    counts["engine.rejections"] = metrics.rejections_seen
    counts["net.publishes"] = runtime.topology.broker.published
    if metrics.trace.enabled:
        counts["obs.trace_events"] = len(metrics.trace.events)
    if runtime.obs is not None:
        if runtime.obs.ledger is not None:
            counts["obs.ledger_records"] = len(runtime.obs.ledger)
        counts["obs.probe_samples"] = sum(len(p.samples) for p in runtime.obs.probes)
    if runtime.monitor is not None:
        counts["check.hook_calls"] = runtime.monitor.checks
    return counts


def case_counts(subscriptions, caches) -> Counter:
    """Broker deliveries and cache lookups of everything a case created."""
    return Counter(
        {
            "net.deliveries": sum(s.delivered for s in subscriptions),
            "data.lookups": sum(cache.stats.lookups for cache in caches),
        }
    )


def check_pushes_grew(label: str, runtime, before: int) -> list:
    """An error unless the run advanced the kernel's heap-push count."""
    after = heap_pushes(runtime.sim)
    if before < 0 or after <= before:
        return [
            f"{label}: kernel heap-push count unreadable or not advanced"
            f" ({before} -> {after}); sim.heap_pushes_per_job would be wrong"
        ]
    return []


def _run_dict(makespan, data_mb, hits, misses, completed) -> dict:
    return {
        "makespan_s": makespan,
        "data_load_mb": data_mb,
        "cache_hits": hits,
        "cache_misses": misses,
        "completed": completed,
    }


class _FirstEvent(Exception):
    """Raised by a t=0 timer to stop a run at its first simulated event."""


def run_to_first_event(runtime) -> None:
    """Start ``runtime`` and stop it as soon as the kernel fires a timer."""

    def stop() -> None:
        raise _FirstEvent()

    runtime.sim.call_at(0.0, stop)
    try:
        runtime.run()
    except _FirstEvent:
        return
    raise RuntimeError("run ended before its first simulated event")


class Workload:
    """Base: a named list of cases, timed one at a time."""

    name = ""
    #: Which latency tap (see :class:`taps.Taps`) the workload uses.
    latency_tap = "collector"

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def cases(self, seed: int) -> list:
        raise NotImplementedError

    def build_first(self, seed: int):
        """The first case's runtime, built but not started (set-up probe)."""
        raise NotImplementedError

    def warmup(self, seed: int) -> None:
        """Run a small instance so imports and lazy set-up are done."""
        raise NotImplementedError

    def execute(self, case):
        raise NotImplementedError

    def settle(self, case, raw, taps) -> Outcome:
        raise NotImplementedError

    def run_case(self, case, taps, meter=None) -> Outcome:
        """Time ``execute`` in CPU time, then check and count (untimed).

        CPU time leaves out the time other processes on the host hold the
        core.  With a :class:`hostmeter.HostMeter` running, the meter's
        own CPU time is taken out and ``ref_s`` rescales the rest by the
        host speed sampled during the case.  A run that raises (for
        example ``WorkflowStalled`` when a job fails permanently) counts
        all its offered jobs as failed.
        """
        mark = meter.mark() if meter else None
        start = time.thread_time()
        try:
            raw = self.execute(case)
        except Exception as exc:  # a failing run is reported, not fatal
            raw, error = None, f"{self.describe(case)}: {type(exc).__name__}: {exc}"
        host = time.thread_time() - start
        ref = host
        if meter:
            samples, spent = meter.since(mark)
            host -= spent
            ref = host * speed_ratio(samples or [meter.sample()])
        if raw is None:
            taps.drain()
            offered = self.offered_estimate(case)
            return Outcome(
                offered=offered,
                completed=0,
                failed=offered,
                host_s=host,
                ref_s=ref,
                errors=[error],
            )
        outcome = self.settle(case, raw, taps)
        outcome.host_s, outcome.ref_s = host, ref
        if outcome.errors:
            outcome.failed = outcome.offered
            outcome.completed = 0
        return outcome

    def offered_estimate(self, case) -> int:
        raise NotImplementedError

    def describe(self, case) -> str:
        return f"{self.name} case {case!r}"

    def latency_sample(self, first: list) -> list:
        """The sojourn latencies behind the latency metrics (one pass)."""
        return [value for outcome in first for value in outcome.latencies]

    def max_rate_in_slo(self, first: list) -> float:
        """Highest offered rate meeting the SLO (0: no rate ladder)."""
        return 0.0


# -- closed loop -------------------------------------------------------------


def _check_closed_loop(label: str, runtimes: list, results: list) -> list:
    """Per-run output checks.

    A permanently failed job needs no check of its own: without
    ``allow_partial`` the run raises ``WorkflowStalled``, which
    :meth:`Workload.run_case` counts as a failure.
    """
    errors = []
    for (runtime, before), result in zip(runtimes, results):
        where = f"{label} iteration {result.iteration}"
        expected = len(runtime.stream)
        if result.jobs_completed != expected:
            errors.append(f"{where}: completed {result.jobs_completed} of {expected}")
        if result.cache_hits + result.cache_misses != result.jobs_completed:
            errors.append(
                f"{where}: hits {result.cache_hits} + misses {result.cache_misses}"
                f" != completed {result.jobs_completed}"
            )
        errors += check_pushes_grew(where, runtime, before)
    if len(runtimes) != len(results):
        errors.append(f"{label}: {len(runtimes)} runtimes for {len(results)} results")
    return errors


def _closed_loop_outcome(label, results, taps) -> Outcome:
    runtimes, subscriptions, caches, latencies = taps.drain()
    counts = Counter()
    for runtime, _before in runtimes:
        counts += runtime_counts(runtime)
    counts += case_counts(subscriptions, caches)
    offered = sum(len(runtime.stream) for runtime, _before in runtimes)
    completed = sum(result.jobs_completed for result in results)
    return Outcome(
        offered=offered,
        completed=completed,
        failed=0,
        host_s=0.0,
        runs=[
            _run_dict(
                r.makespan_s, r.data_load_mb, r.cache_hits, r.cache_misses, r.jobs_completed
            )
            for r in results
        ],
        latencies=latencies,
        counts=counts,
        errors=_check_closed_loop(label, runtimes, results),
    )


class PaperGrid(Workload):
    """Section 6.3.1: 8 schedulers x 5 job configs x 4 profiles x 3 iterations."""

    name = "paper_grid"

    def _spec(self, scheduler, config, profile, seed) -> CellSpec:
        overrides = (("n_jobs", 12),) if self.smoke else ()
        return CellSpec(
            scheduler=scheduler,
            workload=config,
            profile=profile,
            seed=seed,
            workload_overrides=overrides,
        )

    def cases(self, seed):
        schedulers = sorted(SCHEDULERS)
        configs, profiles = JOB_CONFIG_NAMES, PROFILE_NAMES
        if self.smoke:
            schedulers, configs, profiles = ["baseline", "bidding"], configs[:1], profiles[:1]
        # Each (job config, profile) pair draws its own stream from the
        # seed, so the grid averages over 20 streams instead of 5; all
        # eight schedulers still see the identical stream.
        return [
            self._spec(s, c, p, seed * 1000 + 10 * ci + pi)
            for s in schedulers
            for ci, c in enumerate(configs)
            for pi, p in enumerate(profiles)
        ]

    def build_first(self, seed):
        spec = self.cases(seed)[0]
        config = job_config_by_name(spec.workload)
        if spec.workload_overrides:
            config = replace(config, **dict(spec.workload_overrides))
        _corpus, stream = config.build(seed=spec.seed)
        return WorkflowRuntime(
            profile=profile_by_name(spec.profile),
            stream=stream,
            scheduler=make_scheduler(spec.scheduler),
            config=spec.engine_config(),
        )

    def warmup(self, seed):
        for scheduler in sorted(SCHEDULERS):
            run_cell(
                CellSpec(
                    scheduler=scheduler,
                    workload="80%_large",
                    profile="fast-slow",
                    seed=seed,
                    iterations=1,
                    workload_overrides=(("n_jobs", 10),),
                )
            )

    def execute(self, case):
        return run_cell(case)

    def settle(self, case, raw, taps):
        return _closed_loop_outcome(self.describe(case), raw, taps)

    def offered_estimate(self, case):
        n_jobs = dict(case.workload_overrides).get("n_jobs", JOBS_PER_CONFIG)
        return n_jobs * case.iterations

    def describe(self, case):
        return f"paper_grid {case.scheduler}/{case.workload}/{case.profile}"


#: bidding_fleet shape: 100 equal-speed workers, 80%_large at 0.2 s.
FLEET_WORKERS = 100
FLEET_INTERARRIVAL_S = 0.2
FLEET_JOBS = 600
#: Independent streams per run, so simulated metrics average over several.
FLEET_STREAMS = 6


def equal_fleet(workers: int) -> WorkerProfile:
    """``workers`` identical workers at the anchor (``BASE_*``) speeds."""
    return WorkerProfile(
        f"equal-{workers}",
        tuple(
            WorkerSpec(
                name=f"w{index:03d}",
                network_mbps=BASE_NETWORK_MBPS,
                rw_mbps=BASE_RW_MBPS,
            )
            for index in range(workers)
        ),
    )


class BiddingFleet(Workload):
    """Bidding only, 100 equal workers, one iteration per stream."""

    name = "bidding_fleet"

    def __init__(self, smoke: bool = False) -> None:
        super().__init__(smoke)
        self.workers = 10 if smoke else FLEET_WORKERS
        self.jobs = 20 if smoke else FLEET_JOBS
        self.profile = equal_fleet(self.workers)

    def cases(self, seed):
        streams = 2 if self.smoke else FLEET_STREAMS
        return [seed * 1000 + k for k in range(streams)]

    def _runtime(self, sub_seed: int, jobs: int) -> WorkflowRuntime:
        config = replace(
            job_config_by_name("80%_large"),
            n_jobs=jobs,
            mean_interarrival_s=FLEET_INTERARRIVAL_S,
        )
        _corpus, stream = config.build(seed=sub_seed)
        return WorkflowRuntime(
            profile=self.profile,
            stream=stream,
            scheduler=make_scheduler("bidding"),
            config=default_engine_config(sub_seed),
        )

    def build_first(self, seed):
        return self._runtime(self.cases(seed)[0], self.jobs)

    def warmup(self, seed):
        self._runtime(seed, 10).run()

    def execute(self, case):
        return [self._runtime(case, self.jobs).run()]

    def settle(self, case, raw, taps):
        return _closed_loop_outcome(self.describe(case), raw, taps)

    def offered_estimate(self, case):
        return self.jobs

    def describe(self, case):
        return f"bidding_fleet stream {case}"


# -- open loop ---------------------------------------------------------------

#: Poisson arrival rates (jobs/s) spanning the autoscaled fleet's capacity.
LADDER = (0.4, 0.7, 1.0, 1.3, 1.6)
#: The ladder rate whose latency percentiles are reported.
REFERENCE_RATE = 0.7
#: Independent service runs per rate, each of the service's default
#: length (``ServiceConfig().duration_s``, 600 s) over the job source's
#: default 60-repository pool.  The reference rate pools its runs'
#: completions (~40,000).  A run's p99 is set by the crashes and large
#: repositories it happens to draw, so fewer runs left the pooled p99
#: swinging between seeds: a quartile spread of ~0.20 of the median
#: with 24 runs and 0.09-0.14 with 48.
LADDER_RUNS = 1
REFERENCE_RUNS = 96
#: p99 limit for ``max_rate_in_slo`` (simulated seconds).
LATENCY_LIMIT_S = 120.0
#: The autoscaler's floor is the profile's five workers; it adds up to
#: five elastic workers under load (its default ceiling is ten).
SERVICE_MIN_WORKERS = 5
CRASH_MTBF_S = 300.0
CRASH_MTTR_S = 30.0


@dataclass(frozen=True)
class ServiceCase:
    rate: float
    sub_seed: int
    duration_s: float


class ServeObserved(Workload):
    """Open-loop bidding on fast-slow: autoscaler, crashes, full observation."""

    name = "serve_observed"
    latency_tap = "slo"

    def cases(self, seed):
        duration = 60.0 if self.smoke else ServiceConfig().duration_s
        cases = []
        for index, rate in enumerate(LADDER):
            runs = REFERENCE_RUNS if rate == REFERENCE_RATE else LADDER_RUNS
            if self.smoke:
                runs = 1
            for k in range(runs):
                cases.append(ServiceCase(rate, seed * 1000 + index * 100 + k, duration))
        return cases

    def _runtime(self, case: ServiceCase) -> ServiceRuntime:
        config = replace(
            default_engine_config(case.sub_seed), trace=True, obs=True, check=True
        )
        return ServiceRuntime(
            profile=profile_by_name("fast-slow"),
            scheduler=make_scheduler("bidding"),
            arrivals=make_arrivals("poisson", rate=case.rate),
            source=SyntheticJobSource(),
            admission_config=AdmissionConfig(),
            autoscaler_config=AutoscalerConfig(min_workers=SERVICE_MIN_WORKERS),
            service_config=ServiceConfig(duration_s=case.duration_s),
            config=config,
            faults=FaultPlan(
                renewals=(CrashRenewal(mtbf_s=CRASH_MTBF_S, mttr_s=CRASH_MTTR_S),)
            ),
        )

    def build_first(self, seed):
        return self._runtime(self.cases(seed)[0])

    def warmup(self, seed):
        runtime = self._runtime(ServiceCase(1.0, seed, 30.0))
        runtime.run()
        self._walk(runtime)

    @staticmethod
    def _walk(runtime) -> tuple[dict, dict]:
        """The five trace walkers, each timed by a direct call."""
        trace = runtime.metrics.trace
        times, out = {}, {}
        start = time.thread_time()
        spans = build_spans(trace)
        times["spans"] = time.thread_time() - start
        start = time.thread_time()
        out["explain"] = explain_document(trace, runtime.obs.ledger)
        times["explain"] = time.thread_time() - start
        start = time.thread_time()
        attribute(trace, spans)
        times["attribution"] = time.thread_time() - start
        start = time.thread_time()
        out["oracle"] = replay_trace(trace, runtime.metrics.started_at)
        times["oracle"] = time.thread_time() - start
        start = time.thread_time()
        summarize(trace, runtime.metrics.makespan)
        times["summary"] = time.thread_time() - start
        return times, out

    def execute(self, case):
        runtime = self._runtime(case)
        before = heap_pushes(runtime.sim)
        report = runtime.run()
        times, walked = self._walk(runtime)
        return runtime, before, report, times, walked

    def settle(self, case, raw, taps):
        runtime, before, report, times, walked = raw
        _runtimes, subscriptions, caches, latencies = taps.drain()
        label = self.describe(case)
        errors = check_pushes_grew(label, runtime, before)
        if report.completed + report.failed + report.shed != report.arrivals:
            errors.append(
                f"{label}: completed {report.completed} + failed {report.failed}"
                f" + shed {report.shed} != arrivals {report.arrivals}"
            )
        oracle = walked["oracle"]
        for name, engine, replayed in (
            ("completed", report.completed, oracle.jobs_completed),
            ("failed", report.failed, oracle.jobs_failed),
            ("cache_hits", report.cache_hits, oracle.cache_hits),
            ("cache_misses", report.cache_misses, oracle.cache_misses),
        ):
            if engine != replayed:
                errors.append(f"{label}: report {name} {engine} != replay {replayed}")
        if abs(report.data_load_mb - oracle.data_load_mb) > _REL_TOL * max(
            1.0, abs(report.data_load_mb)
        ):
            errors.append(
                f"{label}: report data {report.data_load_mb} != replay {oracle.data_load_mb}"
            )
        document = walked["explain"]
        makespan = document["makespan_s"]
        if abs(sum(document["categories"].values()) - makespan) > 1e-6 * max(1.0, makespan):
            errors.append(f"{label}: explain categories do not sum to makespan {makespan}")
        if len(latencies) != report.completed:
            errors.append(
                f"{label}: {len(latencies)} latencies for {report.completed} completions"
            )
        counts = runtime_counts(runtime) + case_counts(subscriptions, caches)
        counts["serve.arrivals"] = report.arrivals
        counts["serve.shed"] = report.shed
        counts["serve.scale_actions"] = report.scale_ups + report.scale_downs
        counts["serve.queue_peak"] = report.queue_peak
        counts["faults.crashes"] = report.crashes
        counts["faults.redispatches"] = report.redispatches
        return Outcome(
            offered=report.arrivals,
            completed=report.completed,
            failed=report.failed,
            host_s=0.0,
            runs=[
                _run_dict(
                    runtime.metrics.makespan,
                    report.data_load_mb,
                    report.cache_hits,
                    report.cache_misses,
                    report.completed,
                )
            ],
            latencies=latencies,
            counts=counts,
            walk=times,
            errors=errors,
            rate=case.rate,
        )

    def offered_estimate(self, case):
        return max(1, int(case.rate * case.duration_s))

    def latency_sample(self, first):
        return [
            value
            for outcome in first
            if outcome.rate == REFERENCE_RATE
            for value in outcome.latencies
        ]

    def max_rate_in_slo(self, first):
        """Highest ladder rate with no shed job and pooled p99 under the limit."""
        best = 0.0
        for rate in LADDER:
            at_rate = [outcome for outcome in first if outcome.rate == rate]
            if not at_rate or any(outcome.counts["serve.shed"] for outcome in at_rate):
                continue
            latencies = [value for outcome in at_rate for value in outcome.latencies]
            if latencies and np.percentile(latencies, 99) <= LATENCY_LIMIT_S:
                best = max(best, rate)
        return best

    def describe(self, case):
        return f"serve_observed rate {case.rate} seed {case.sub_seed}"


WORKLOADS = {
    cls.name: cls for cls in (PaperGrid, BiddingFleet, ServeObserved)
}
