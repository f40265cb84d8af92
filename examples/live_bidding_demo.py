"""Live demo: the bidding protocol's decisions on real processes.

Everything else in this repository runs inside the discrete-event
simulator; this example replays the same two schedulers on the real
execution backend (:mod:`repro.exec`).  The simulator makes every
allocation decision; spawned OS worker processes then execute that plan
over loopback sockets -- real queues, real caches, wall-clock sleeps
scaled at 1 simulated second = 0.5 ms -- so you can watch the protocol
produce the same qualitative outcome outside the simulator.

Run with::

    python examples/live_bidding_demo.py
"""

from repro.cluster.profiles import fast_slow
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.exec import ExecBackend, ExecConfig, capture_workflow_plan
from repro.metrics.report import format_table
from repro.schedulers.registry import make_scheduler
from repro.workload.generators import job_config_by_name


def main() -> None:
    # 120 jobs, repetitive large-repository pattern, same for both runs.
    config = job_config_by_name("80%_large")
    profile = fast_slow()

    rows = []
    distributions = []
    for scheduler in ("baseline", "bidding"):
        _corpus, stream = config.build(seed=99)
        runtime = WorkflowRuntime(
            profile=profile,
            stream=stream,
            scheduler=make_scheduler(scheduler),
            config=EngineConfig(seed=99, trace=False),
        )
        plan, _sim_result = capture_workflow_plan(runtime)
        # 1 simulated second = 0.5 ms wall time.
        report = ExecBackend(plan, ExecConfig(time_scale=0.0005)).run()
        rows.append(
            [
                scheduler,
                f"{report.wall_s:.2f}",
                str(report.cache_misses),
                str(report.cache_hits),
                f"{report.data_load_mb:.0f}",
            ]
        )
        distributions.append(
            format_table(
                ["worker", "jobs executed"],
                [
                    [name, str(len(done))]
                    for name, done in sorted(report.per_worker_completed.items())
                ],
                title=f"\n{scheduler}: job distribution (w1 fast, w2 slow)",
            )
        )

    print(
        format_table(
            ["scheduler", "wall time [s]", "misses", "hits", "data [MB]"],
            rows,
            title=(
                f"Real backend: {len(plan.jobs)} jobs on "
                f"{len(plan.workers)} worker processes"
            ),
        )
    )
    for table in distributions:
        print(table)


if __name__ == "__main__":
    main()
