"""The pull-protocol contract shared by Baseline, Matchmaking and Delay.

All three are strategies on :mod:`repro.schedulers.pull`; every test
here runs against each of them.  The first half drives a master policy
directly through its message seam (a recording stand-in for the master
node); the second half runs whole workflows for the behaviours that
need live workers: the pull discipline, an aborted hot-swap and a
scale-down drain.  The per-rule tests (``max_skips``, ``requeue``,
heartbeat validation) stay in ``test_scheduler_baseline.py`` and
``test_scheduler_others.py``.
"""

from types import SimpleNamespace

import pytest

from conftest import make_profile, make_spec
from repro.engine.messages import JobAccept, JobOffer, JobReject, NoWork, PullRequest
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.metrics.collector import MetricsCollector
from repro.net.topology import TopologyConfig
from repro.reconfig import ReconfigPlan, SchedulerSwap
from repro.schedulers.pull import PullMasterPolicy
from repro.schedulers.registry import make_scheduler
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER

PULL_SCHEDULERS = ("baseline", "matchmaking", "delay")


class RecordingMaster:
    """The slice of :class:`~repro.engine.master.Master` a pull policy
    touches, recording every message it sends."""

    def __init__(self) -> None:
        self.sim = SimpleNamespace(now=0.0)
        self.metrics = MetricsCollector()
        self.sent: list[tuple[str, object]] = []
        self.assigned: list[tuple[str, str]] = []

    def send_to_worker(self, worker: str, message: object) -> None:
        self.sent.append((worker, message))

    def note_external_assignment(self, job: Job, worker: str) -> None:
        self.assigned.append((job.job_id, worker))


def bound_master(name: str) -> tuple[PullMasterPolicy, RecordingMaster]:
    policy = make_scheduler(name).make_master()
    host = RecordingMaster()
    policy.bind(host)
    return policy, host


def data_free(job_id: str) -> Job:
    """A job with no repository: local to every puller under every rule."""
    return Job(job_id=job_id, task=TASK_ANALYZER, base_compute_s=1.0)


def offers(host: RecordingMaster) -> list[tuple[str, str]]:
    return [
        (worker, message.job.job_id)
        for worker, message in host.sent
        if isinstance(message, JobOffer)
    ]


@pytest.mark.parametrize("name", PULL_SCHEDULERS)
class TestMasterCore:
    def test_is_a_pull_core_strategy(self, name):
        policy, _host = bound_master(name)
        assert isinstance(policy, PullMasterPolicy)

    def test_offeree_crash_requeues_unacked_offer_at_front(self, name):
        policy, host = bound_master(name)
        policy.on_job(data_free("j0"))
        policy.on_job(data_free("j1"))
        policy.on_message(PullRequest(worker="w1"))
        assert offers(host) == [("w1", "j0")]
        assert set(policy.in_flight) == {"j0"}
        policy.on_worker_failed("w1", [])
        assert policy.in_flight == {}
        assert [job.job_id for job in policy.job_queue] == ["j0", "j1"]

    def test_crash_reclaim_answers_a_parked_pull(self, name):
        policy, host = bound_master(name)
        policy.on_job(data_free("j0"))
        policy.on_message(PullRequest(worker="w1"))
        policy.on_message(PullRequest(worker="w2"))
        assert list(policy.parked) == ["w2"]
        policy.on_worker_failed("w1", [])
        assert offers(host) == [("w1", "j0"), ("w2", "j0")]
        assert not policy.parked

    def test_retried_pull_holds_one_parked_entry(self, name):
        policy, host = bound_master(name)
        policy.on_message(PullRequest(worker="w1", attempt=1))
        policy.on_message(PullRequest(worker="w2", attempt=1))
        policy.on_message(PullRequest(worker="w1", attempt=2))
        # The retry keeps w1's place and takes its latest attempt.
        assert list(policy.parked) == ["w1", "w2"]
        assert policy._parked_attempt == {"w1": 2, "w2": 1}
        policy.on_job(data_free("j0"))
        policy.on_job(data_free("j1"))
        policy.on_job(data_free("j2"))
        assert offers(host) == [("w1", "j0"), ("w2", "j1")]
        assert [job.job_id for job in policy.job_queue] == ["j2"]

    def test_export_returns_queue_in_order_and_clears_skips(self, name):
        policy, host = bound_master(name)
        for i in range(3):
            policy.on_job(
                Job(job_id=f"j{i}", task=TASK_ANALYZER, repo_id=f"r{i}", size_mb=10.0)
            )
        # A first-attempt pull: Matchmaking and Delay find nothing local
        # (Delay counts a skip against every job); Baseline offers j0,
        # which the worker declines back to the front.
        policy.on_message(PullRequest(worker="w1"))
        for worker, message in host.sent:
            if isinstance(message, JobOffer):
                policy.on_message(JobReject(job=message.job, worker=worker))
        if name == "delay":
            assert policy.skips == {"j0": 1, "j1": 1, "j2": 1}
        policy.begin_quiesce()
        assert policy.quiescent()
        assert [job.job_id for job in policy.export_state()] == ["j0", "j1", "j2"]
        assert not policy.job_queue
        if name == "delay":
            assert policy.skips == {}

    def test_quiescent_only_after_outstanding_accepts(self, name):
        policy, host = bound_master(name)
        policy.on_job(data_free("j0"))
        policy.on_job(data_free("j1"))
        policy.on_message(PullRequest(worker="w1"))
        policy.on_message(PullRequest(worker="w2"))
        policy.begin_quiesce()
        assert not policy.quiescent()
        policy.on_message(JobAccept(job=data_free("j0"), worker="w1"))
        assert not policy.quiescent()
        policy.on_message(JobAccept(job=data_free("j1"), worker="w2"))
        assert policy.quiescent()
        assert host.assigned == [("j0", "w1"), ("j1", "w2")]

    def test_quiesce_parks_pulls_and_end_quiesce_serves_them(self, name):
        policy, host = bound_master(name)
        policy.begin_quiesce()
        policy.on_job(data_free("j0"))
        policy.on_message(PullRequest(worker="w1"))
        assert host.sent == []
        assert list(policy.parked) == ["w1"]
        policy.end_quiesce()
        assert offers(host) == [("w1", "j0")]

    def test_retired_worker_parked_pull_is_dropped(self, name):
        policy, host = bound_master(name)
        policy.on_message(PullRequest(worker="w1"))
        policy.on_worker_retired("w1")
        policy.on_job(data_free("j0"))
        assert host.sent == []
        assert [job.job_id for job in policy.job_queue] == ["j0"]

    def test_bounced_offer_requeues_at_front(self, name):
        policy, host = bound_master(name)
        policy.on_job(data_free("j0"))
        policy.on_job(data_free("j1"))
        policy.on_message(PullRequest(worker="w1"))
        policy.on_message(JobReject(job=data_free("j0"), worker="w1"))
        assert policy.in_flight == {}
        assert [job.job_id for job in policy.job_queue] == ["j0", "j1"]
        assert host.metrics.rejections_seen == 1


@pytest.mark.parametrize("name", ["matchmaking", "delay"])
def test_no_local_work_answers_nowork_instead_of_parking(name):
    policy, host = bound_master(name)
    policy.on_job(Job(job_id="j0", task=TASK_ANALYZER, repo_id="r0", size_mb=10.0))
    policy.on_message(PullRequest(worker="w1"))
    assert [type(message) for _, message in host.sent] == [NoWork]
    assert not policy.parked


# -- whole workflows --------------------------------------------------------


def stream_of(n_jobs, gap_s, size_mb=50.0, n_repos=3):
    return JobStream(
        arrivals=[
            JobArrival(
                at=i * gap_s,
                job=Job(
                    job_id=f"j{i}",
                    task=TASK_ANALYZER,
                    repo_id=f"r{i % n_repos}",
                    size_mb=size_mb,
                ),
            )
            for i in range(n_jobs)
        ]
    )


def runtime_for(name, stream, n_workers=3, latency=(0.001, 0.002), plan=None, seed=3):
    profile = make_profile(*[make_spec(f"w{i + 1}") for i in range(n_workers)])
    return WorkflowRuntime(
        profile=profile,
        stream=stream,
        scheduler=make_scheduler(name),
        config=EngineConfig(
            seed=seed,
            noise_kind="none",
            noise_params={},
            topology=TopologyConfig(min_latency=latency[0], max_latency=latency[1]),
            trace=True,
            check=True,
            max_sim_time=5000.0,
        ),
        reconfig=plan,
    )


@pytest.mark.parametrize("name", PULL_SCHEDULERS)
class TestPullDiscipline:
    def test_worker_executes_one_job_at_a_time(self, name):
        stream = stream_of(6, 0.0, size_mb=100.0, n_repos=6)
        runtime = runtime_for(name, stream, n_workers=2, seed=0)
        runtime.run()
        # Reconstruct per-worker concurrency from the trace.
        running = {worker: 0 for worker in runtime.workers}
        peak = 0
        for event in runtime.metrics.trace:
            if event.kind == "started":
                running[event.worker] += 1
                peak = max(peak, max(running.values()))
            elif event.kind == "completed" and event.worker is not None:
                running[event.worker] -= 1
        assert peak == 1

    def test_offers_only_go_to_pulling_workers(self, name):
        stream = stream_of(4, 0.0, size_mb=20.0, n_repos=4)
        runtime = runtime_for(name, stream, n_workers=2, seed=0)
        runtime.run()
        trace = runtime.metrics.trace
        offered = trace.of_kind("offered")
        assert offered, "expected offers to be traced"
        # An offer must never target a worker that is mid-execution.
        for offer in offered:
            starts = [
                e
                for e in trace
                if e.kind == "started" and e.worker == offer.worker and e.time <= offer.time
            ]
            ends = [
                e
                for e in trace
                if e.kind == "completed" and e.worker == offer.worker and e.time <= offer.time
            ]
            assert len(starts) == len(ends), (
                f"offer to {offer.worker} at {offer.time} while executing"
            )


@pytest.mark.parametrize(
    "name, swap_at_s",
    # Instants at which each scheduler still has an offer open, so the
    # 50 ms quiesce times out and the swap is abandoned.
    [("baseline", 7.3), ("matchmaking", 8.251), ("delay", 8.251)],
)
def test_aborted_swap_leaves_no_puller_waiting(name, swap_at_s):
    """A pull that arrives while the master quiesces parks, and the
    abandoned swap's ``end_quiesce`` answers it -- a swallowed pull
    would leave its worker waiting for an answer for the rest of the run."""
    latency = (0.1, 0.4)
    plan = ReconfigPlan(
        swaps=(
            SchedulerSwap(
                at_s=swap_at_s, scheduler="random", quiesce_timeout_s=0.05, poll_s=0.0125
            ),
        )
    )
    runtime = runtime_for(name, stream_of(40, 0.3), latency=latency, plan=plan)
    result = runtime.run()
    skipped = runtime.metrics.trace.of_kind("swap_skipped")
    assert len(skipped) == 1
    assert result.jobs_completed == 40
    late = {
        event.worker
        for event in runtime.metrics.trace.of_kind("assigned")
        if event.time > skipped[0].time
    }
    assert late == {"w1", "w2", "w3"}
    undisturbed = runtime_for(name, stream_of(40, 0.3), latency=latency).run()
    assert result.makespan_s <= undisturbed.makespan_s * 1.05


@pytest.mark.parametrize("name", PULL_SCHEDULERS)
def test_retired_worker_gets_no_new_work(name):
    """``Master.retire_worker`` means no new work: a parked pull is
    dropped, and an offer already on its way is bounced back."""
    runtime = runtime_for(name, stream_of(12, 6.0), latency=(0.01, 0.02))
    retire_at = 20.5

    def retire():
        runtime.master.retire_worker("w3")
        runtime.workers["w3"].begin_drain()

    runtime.sim.call_at(retire_at, retire)
    result = runtime.run()
    assert result.jobs_completed == 12
    late = [
        event.job_id
        for event in runtime.metrics.trace.of_kind("assigned")
        if event.worker == "w3" and event.time > retire_at
    ]
    assert late == []
