"""Protocol tests for Crossflow's Baseline scheduler (Section 4)."""

import pytest

from conftest import make_profile, make_spec
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.net.topology import TopologyConfig
from repro.schedulers.baseline import BaselineMasterPolicy, make_baseline_policy
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


def quiet_config(seed=0):
    return EngineConfig(
        seed=seed,
        noise_kind="none",
        noise_params={},
        topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
    )


def arrivals(*specs):
    return JobStream(
        arrivals=[
            JobArrival(
                at=at,
                job=Job(
                    job_id=job_id,
                    task=TASK_ANALYZER,
                    repo_id=repo,
                    size_mb=size,
                ),
            )
            for job_id, repo, size, at in specs
        ]
    )


def runtime_for(stream, n_workers=3, requeue="front", initial_caches=None):
    profile = make_profile(*[make_spec(f"w{i + 1}") for i in range(n_workers)])
    return WorkflowRuntime(
        profile=profile,
        stream=stream,
        scheduler=make_baseline_policy(requeue=requeue),
        config=quiet_config(),
        initial_caches=initial_caches,
    )


class TestColdCacheBehaviour:
    def test_cold_job_rejected_before_acceptance(self):
        """First-time jobs are declined: "when executing the pipeline for
        the first time, all worker nodes will end up rejecting
        repository-related jobs"."""
        runtime = runtime_for(arrivals(("j0", "r0", 10.0, 0.0)))
        result = runtime.run()
        assert result.rejections >= 1
        assert result.jobs_completed == 1

    def test_every_job_completes_despite_rejections(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, float(i)) for i in range(12)])
        runtime = runtime_for(stream)
        result = runtime.run()
        assert result.jobs_completed == 12
        assert result.cache_misses == 12  # all distinct, all cold

    def test_worker_declines_each_job_at_most_once(self):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, 0.0) for i in range(6)])
        runtime = runtime_for(stream)
        runtime.metrics.trace.enabled = True
        runtime.run()
        seen = set()
        for event in runtime.metrics.trace.of_kind("rejected"):
            key = (event.job_id, event.worker)
            assert key not in seen, f"{key} declined twice"
            seen.add(key)

    def test_data_free_jobs_accepted_first_time(self):
        stream = JobStream(
            arrivals=[
                JobArrival(at=0.0, job=Job(job_id="s", task=TASK_ANALYZER, base_compute_s=1.0))
            ]
        )
        runtime = runtime_for(stream)
        result = runtime.run()
        assert result.rejections == 0


class TestLocalityAcceptance:
    def test_cached_worker_accepts_without_rejection(self):
        stream = arrivals(("j0", "hot", 10.0, 0.0))
        runtime = runtime_for(
            stream, initial_caches={"w1": {"hot": 10.0}}
        )
        result = runtime.run()
        assert runtime.master.assignments["j0"] == "w1"
        assert result.cache_misses == 0

    def test_busy_holder_forces_redundant_clone(self):
        """The paper's stated weakness: a busy holder means some other
        node is eventually forced to clone the repository again."""
        stream = arrivals(
            ("blocker", "big", 2000.0, 0.0),  # w1 busy for ~200 s
            ("j1", "hot", 10.0, 5.0),
        )
        runtime = runtime_for(
            stream,
            n_workers=2,
            initial_caches={"w1": {"hot": 10.0, "big": 2000.0}},
        )
        result = runtime.run()
        # w1 is stuck on the blocker, so w2 must take j1 on second offer.
        assert runtime.master.assignments["j1"] == "w2"
        assert result.cache_misses >= 1


class TestRequeueVariants:
    @pytest.mark.parametrize("requeue", ["front", "back"])
    def test_both_variants_complete(self, requeue):
        stream = arrivals(*[(f"j{i}", f"r{i}", 10.0, 0.0) for i in range(8)])
        result = runtime_for(stream, requeue=requeue).run()
        assert result.jobs_completed == 8

    def test_invalid_requeue_rejected(self):
        with pytest.raises(ValueError):
            BaselineMasterPolicy(requeue="sideways")

    def test_invalid_heartbeat_rejected(self):
        with pytest.raises(ValueError):
            make_baseline_policy(heartbeat_s=0.0).make_worker()

