"""Unit tests for the master-side bidding contest (Listing 1)."""

import pytest

from conftest import make_profile, make_spec
from repro.core.bidding import BiddingMasterPolicy
from repro.core.contest import Contest, ContestStatus
from repro.engine.messages import Bid
from repro.engine.runtime import EngineConfig, WorkflowRuntime, restart_worker
from repro.net.topology import TopologyConfig
from repro.schedulers.registry import make_scheduler
from repro.sim import Simulator
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER


@pytest.fixture
def sim():
    return Simulator()


def make_job():
    return Job(job_id="j1", task="t", repo_id="r1", size_mb=10.0)


def make_bid(worker, cost, job_id="j1"):
    return Bid(job_id=job_id, worker=worker, cost_s=cost)


class TestContestLifecycle:
    def test_opens_open(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2"])
        assert contest.status is ContestStatus.OPEN
        assert contest.opened_at == 0.0

    def test_needs_workers(self, sim):
        with pytest.raises(ValueError):
            Contest(sim, make_job(), [])

    def test_all_bids_event_fires_when_complete(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2"])
        contest.add_bid(make_bid("w1", 5.0))
        assert not contest.all_bids.triggered
        contest.add_bid(make_bid("w2", 3.0))
        assert contest.all_bids.triggered

    def test_close_classifies_full(self, sim):
        contest = Contest(sim, make_job(), ["w1"])
        contest.add_bid(make_bid("w1", 1.0))
        assert contest.close() == "full"
        assert contest.status is ContestStatus.CLOSED

    def test_close_classifies_timeout(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2"])
        contest.add_bid(make_bid("w1", 1.0))
        assert contest.close() == "timeout"

    def test_close_classifies_fallback(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2"])
        assert contest.close() == "fallback"

    def test_double_close_rejected(self, sim):
        contest = Contest(sim, make_job(), ["w1"])
        contest.close()
        with pytest.raises(RuntimeError):
            contest.close()

    def test_duration_tracks_clock(self, sim):
        contest = Contest(sim, make_job(), ["w1"])
        sim.timeout(2.5)
        sim.run()
        assert contest.duration == pytest.approx(2.5)


class TestBidHandling:
    def test_winner_is_lowest_cost(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2", "w3"])
        contest.add_bid(make_bid("w1", 5.0))
        contest.add_bid(make_bid("w2", 2.0))
        contest.add_bid(make_bid("w3", 9.0))
        assert contest.winner() == "w2"

    def test_tie_breaks_by_name(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2"])
        contest.add_bid(make_bid("w2", 5.0))
        contest.add_bid(make_bid("w1", 5.0))
        assert contest.winner() == "w1"

    def test_no_bids_no_winner(self, sim):
        contest = Contest(sim, make_job(), ["w1"])
        assert contest.winner() is None

    def test_late_bid_recorded_not_counted(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2"])
        contest.add_bid(make_bid("w1", 5.0))
        contest.close()
        assert contest.add_bid(make_bid("w2", 1.0)) is False
        assert contest.winner() == "w1"
        assert len(contest.late_bids) == 1

    def test_uninvited_worker_rejected(self, sim):
        contest = Contest(sim, make_job(), ["w1"])
        with pytest.raises(ValueError, match="uninvited"):
            contest.add_bid(make_bid("intruder", 1.0))

    def test_duplicate_bid_rejected(self, sim):
        contest = Contest(sim, make_job(), ["w1", "w2"])
        contest.add_bid(make_bid("w1", 1.0))
        with pytest.raises(ValueError, match="duplicate"):
            contest.add_bid(make_bid("w1", 2.0))

    def test_misrouted_bid_rejected(self, sim):
        contest = Contest(sim, make_job(), ["w1"])
        with pytest.raises(ValueError, match="routed"):
            contest.add_bid(make_bid("w1", 1.0, job_id="other-job"))

    def test_negative_bid_cost_rejected(self):
        with pytest.raises(ValueError):
            Bid(job_id="j", worker="w", cost_s=-1.0)


class TestLateJoiners:
    def test_late_joiner_bid_filed_late(self, sim):
        contest = Contest(sim, make_job(), ["w1"])
        contest.add_late_joiner("w2")
        assert contest.add_bid(make_bid("w2", 1.0)) is False
        assert contest.late_bids[0].worker == "w2"
        assert contest.bids == {}
        with pytest.raises(ValueError, match="uninvited"):
            contest.add_bid(make_bid("intruder", 1.0))

    def test_invited_worker_is_not_a_late_joiner(self, sim):
        contest = Contest(sim, make_job(), ["w1"])
        contest.add_late_joiner("w1")
        assert contest.add_bid(make_bid("w1", 1.0)) is True
        assert contest.winner() == "w1"

    def test_policy_marks_open_contests_on_join(self, sim):
        policy = BiddingMasterPolicy()
        contest = Contest(sim, make_job(), ["w1"])
        policy.contests["j1"] = contest
        policy.on_worker_joined("e1")  # a scale-up join mid-contest
        assert contest.add_bid(make_bid("e1", 1.0)) is False
        assert contest.late_bids[0].worker == "e1"


def test_restart_inside_one_delivery_latency_does_not_crash_contests():
    """Regression: a worker killed right after winning a contest bounces
    the in-flight Assignment back as a second failure report.  Restarted
    between the two reports, the revived node is deactivated again by
    the stale one while it stays subscribed to announcements, so it bids
    on the orphan's re-contest, which did not invite it.  That bid is
    dropped as late instead of raising ``bid from uninvited worker``."""
    latency = 0.05
    stream = JobStream(
        arrivals=[
            JobArrival(
                at=0.0,
                job=Job(job_id="j0", task=TASK_ANALYZER, repo_id="r0", size_mb=5.0),
            )
        ]
    )
    runtime = WorkflowRuntime(
        profile=make_profile(make_spec("w1"), make_spec("w2"), make_spec("w3")),
        stream=stream,
        scheduler=make_scheduler("bidding"),
        config=EngineConfig(
            seed=1,
            noise_kind="none",
            noise_params={},
            topology=TopologyConfig(
                min_latency=latency, max_latency=latency, broker_processing=0.0
            ),
            fault_tolerance=True,
            check=True,
            max_sim_time=1000.0,
        ),
    )
    killed = []

    def crash_winner(job, worker, now):
        if killed:
            return
        killed.append(worker)
        runtime.workers[worker].kill()
        # The kill's own report lands after one latency, the bounced
        # Assignment's after two: restart in between.
        runtime.sim.call_later(1.5 * latency, restart_worker, runtime, worker)

    runtime.master.assignment_listeners.append(crash_winner)
    result = runtime.run()
    assert result.jobs_completed == 1
    assert result.redispatches == 1
    (victim,) = killed
    policy = runtime.master.policy
    late = [bid.worker for c in policy.contests.values() for bid in c.late_bids]
    assert late == [victim]
