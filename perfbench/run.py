"""Repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload's cases for ``--seconds`` in reference
seconds (CPU time rescaled by the host speed ``hostmeter.py`` samples
during each case) and prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics.  Both
check every output.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every check passed.  See ``perfbench/README.md`` for what
each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: p99 needs at least ten samples beyond it.
MIN_LATENCY_SAMPLES = 1000
#: Fresh-interpreter set-up probes per run, spread over the timed
#: passes; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Per-layer counters reported per completed job.
PER_JOB_COUNTS = (
    "sim.heap_pushes",
    "sim.resumes",
    "core.bids",
    "core.contests",
    "net.deliveries",
    "net.publishes",
    "engine.offers",
    "engine.rejections",
    "fleet.calls",
    "data.lookups",
    "obs.trace_events",
    "obs.ledger_records",
    "check.hook_calls",
)
WALKERS = ("spans", "explain", "attribution", "oracle", "summary")


def fail(message: str) -> None:
    """Report a set-up error and exit without a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_probe(workload: str, seed: int, smoke: bool) -> tuple[float, float]:
    """(import_s, build_s) of one fresh interpreter reaching its first event.

    Both are the child's own CPU time in reference seconds (see
    ``hostmeter.py``), read by the child itself, so neither the spawn
    nor the host's other processes count, and the host's speed is
    taken out.
    """
    command = [
        sys.executable,
        os.path.join(HERE, "setup_probe.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        fail(f"set-up probe failed:\n{done.stderr[-2000:]}")
    stamps = json.loads(done.stdout.strip().splitlines()[-1])
    return stamps["imported"], stamps["first_event"] - stamps["imported"]


def import_profile() -> tuple[float, list[tuple[float, str]]]:
    """``-X importtime`` of ``import repro``: scipy's total and top modules."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import repro"
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        fail(f"import profile failed:\n{done.stderr[-2000:]}")
    scipy_us = 0
    rows = []
    for line in done.stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s+)(\S+)", line)
        if match is None:
            continue
        own, cumulative, name = int(match[1]), int(match[2]), match[4]
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += own
        if name.startswith("repro") or name == "numpy":
            rows.append((cumulative / 1e6, name))
    rows.sort(reverse=True)
    return scipy_us / 1e6, rows[:10]


def run_for(
    workload, cases, taps, seconds: float, probe=None, probes: int = 0, meter=None
):
    """Pass over the cases until ``seconds`` passed (at least one pass).

    ``probe()`` (a set-up probe) runs ``probes`` times, spread evenly
    over the window, so set-up is sampled across the same stretch of
    host time as the cases; the probes' own time does not count against
    ``seconds``.  Returns ``({case index: [Outcome per pass]}, [probe
    results])``.  ``meter`` (a :class:`hostmeter.HostMeter`) goes to
    each case's timing.
    """
    outcomes: dict = {}
    probed: list = []
    started = time.perf_counter()
    paused = 0.0

    def probe_due() -> bool:
        elapsed = time.perf_counter() - started - paused
        return len(probed) < probes and elapsed >= seconds * len(probed) / probes

    index = 0
    while index < len(cases) or time.perf_counter() - started - paused < seconds:
        while probe_due():
            began = time.perf_counter()
            probed.append(probe())
            paused += time.perf_counter() - began
        position = index % len(cases)
        if position == 0:
            gc.collect()
        outcome = workload.run_case(cases[position], taps, meter)
        outcomes.setdefault(position, []).append(outcome)
        index += 1
    while len(probed) < probes:
        probed.append(probe())
    return outcomes, probed


def check_repeats(outcomes: dict, reference: dict = None) -> None:
    """Repeats of one case must reproduce its simulated outputs exactly.

    A repeat that differs from the case's first run (or from
    ``reference``'s) fails: its jobs count as failed.
    """
    for index, runs in sorted(outcomes.items()):
        first = (reference or outcomes)[index][0].fingerprint()
        for outcome in runs[0 if reference else 1 :]:
            if outcome.fingerprint() != first:
                outcome.errors.append(
                    f"case {index}: simulated outputs differ between runs of one seed"
                )
                outcome.failed = outcome.offered
                outcome.completed = 0


def summary(workload, outcomes: dict, smoke: bool) -> dict:
    """Simulated totals over the first pass and checks over all passes."""
    first = [runs[0] for _index, runs in sorted(outcomes.items())]
    every = [outcome for runs in outcomes.values() for outcome in runs]
    errors = [error for outcome in every for error in outcome.errors]
    runs = [run for outcome in first for run in outcome.runs]
    counts = sum((outcome.counts for outcome in first), start=type(first[0].counts)())
    completed = sum(outcome.completed for outcome in first)
    offered = sum(outcome.offered for outcome in first)
    latencies = workload.latency_sample(first)
    if not smoke and len(latencies) < MIN_LATENCY_SAMPLES:
        errors.append(f"{len(latencies)} < {MIN_LATENCY_SAMPLES} latency samples")
    return {
        "first": first,
        "errors": errors,
        "runs": runs,
        "counts": counts,
        "completed": completed,
        "offered": offered,
        "latencies": latencies,
        "attempted": sum(outcome.offered for outcome in every),
        "ok": sum(outcome.completed for outcome in every),
        "failed": sum(outcome.failed for outcome in every),
    }


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (0 for an empty sample)."""
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(outcomes: dict, totals: dict, setups: list, rss_mb: float) -> dict:
    host = sum(
        statistics.median(outcome.ref_s for outcome in runs) for runs in outcomes.values()
    )
    runs = totals["runs"]
    completed = totals["completed"]
    return {
        "jobs_per_s": (completed / host, "jobs/s"),
        "setup_s": (statistics.median(i + b for i, b in setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "completed_share": (totals["ok"] / totals["attempted"], "share"),
        "makespan_s": (statistics.fmean(r["makespan_s"] for r in runs), "sim_s"),
        "data_load_mb": (statistics.fmean(r["data_load_mb"] for r in runs), "MB"),
        "cache_miss_rate": (
            sum(r["cache_misses"] for r in runs) / max(1, completed),
            "misses/job",
        ),
        "latency_p99_s": (percentile(totals["latencies"], 99), "sim_s"),
    }


def case_seconds(outcomes: dict) -> float:
    """CPU seconds of the timed parts of one pass (the first)."""
    return sum(runs[0].host_s for runs in outcomes.values())


def per_layer(workload, totals, calls, shares, sampled_s, overhead, setups, scipy_s):
    counts = totals["counts"] + calls
    jobs = max(1, totals["completed"])
    first = totals["first"]
    metrics = {}
    for layer, share in shares.items():
        metrics[f"{layer}.self_s"] = (share * sampled_s, "s")
        metrics[f"{layer}.share"] = (share, "share")
    for key in PER_JOB_COUNTS:
        metrics[f"{key}_per_job"] = (counts[key] / jobs, "count/job")
    arrivals = counts["serve.arrivals"]
    metrics["serve.latency_p50_s"] = (
        percentile(totals["latencies"], 50) if arrivals else 0.0,
        "sim_s",
    )
    metrics["serve.queue_peak"] = (
        max((outcome.counts["serve.queue_peak"] for outcome in first), default=0),
        "jobs",
    )
    metrics["serve.scale_actions"] = (counts["serve.scale_actions"], "count")
    metrics["serve.shed_share"] = (
        counts["serve.shed"] / arrivals if arrivals else 0.0,
        "share",
    )
    metrics["serve.max_rate_in_slo"] = (workload.max_rate_in_slo(first), "jobs/s")
    metrics["faults.crashes"] = (counts["faults.crashes"], "count")
    metrics["faults.redispatches"] = (counts["faults.redispatches"], "count")
    metrics["obs.probe_samples"] = (counts["obs.probe_samples"], "count")
    for walker in WALKERS:
        metrics[f"walk.{walker}_s"] = (
            sum(outcome.walk.get(walker, 0.0) for outcome in first),
            "s",
        )
    metrics["setup.import_s"] = (statistics.median(i for i, _b in setups), "s")
    metrics["setup.build_s"] = (statistics.median(b for _i, b in setups), "s")
    metrics["setup.scipy_import_s"] = (scipy_s, "s")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the smoke test"
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail(f"no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    from hostmeter import REFERENCE_S, HostMeter
    from taps import CallCounter, LayerSampler, Taps

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; valid: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.smoke)
    cases = workload.cases(args.seed)

    probes = 1 if args.smoke else SETUP_PROBES

    def probe():
        return setup_probe(args.workload, args.seed, args.smoke)

    scipy_s = 0.0
    if args.trace:
        scipy_s, top = import_profile()
        print("top import contributors (cumulative s):", file=sys.stderr)
        for seconds, name in top:
            print(f"  {seconds:8.3f}  {name}", file=sys.stderr)

    with Taps(workload.latency_tap) as taps:
        workload.warmup(args.seed)
        taps.drain()
        if not args.trace:
            with HostMeter() as meter:
                outcomes, setups = run_for(
                    workload, cases, taps, args.seconds, probe, probes, meter
                )
            print(
                f"host speed: {REFERENCE_S * 1e3:.3f} ms reference kernel sampled at"
                f" median {statistics.median(meter.samples) * 1e3:.3f} ms"
                f" ({len(meter.samples)} samples)",
                file=sys.stderr,
            )
            check_repeats(outcomes)
            totals = summary(workload, outcomes, args.smoke)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(outcomes, totals, setups, rss_mb)
        else:
            untraced, setups = run_for(workload, cases, taps, 0.0, probe, probes)
            with CallCounter() as calls, LayerSampler() as sampler:
                traced, _none = run_for(workload, cases, taps, 0.0)
            check_repeats(traced, reference=untraced)
            totals = summary(workload, untraced, args.smoke)
            traced_totals = summary(workload, traced, args.smoke)
            for key in ("errors", "attempted", "failed"):
                totals[key] += traced_totals[key]
            metrics = per_layer(
                workload,
                totals,
                calls.counts,
                sampler.shares(),
                sampler.cpu_s,
                case_seconds(traced) / case_seconds(untraced),
                setups,
                scipy_s,
            )

    for error in totals["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    correct = not totals["errors"] and totals["failed"] == 0
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(totals["attempted"]),
                "failed": int(totals["failed"]),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
