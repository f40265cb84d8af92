"""The Bidding Scheduler: full master/worker protocol (Section 5).

Master side (Listing 1): each incoming job is published for bidding;
the master collects bids and closes the contest when every active
worker has answered or the 1-second window expires, then assigns the
job to the lowest estimate.  If *no* bids arrived, the job goes to an
arbitrary worker.

Worker side (Listing 2): on every announcement the worker submits
``committed workload + transfer estimate + processing estimate``
(computed by :class:`~repro.core.estimator.CostEstimator`).  Winning a
bid commits the job's own estimated cost to the worker's workload so
subsequent bids reflect it; the commitment is released when the job
finishes.

Configurable knobs (all ablatable, defaults = the paper):

* ``window_s`` -- the bidding window (paper: 1 second),
* ``max_concurrent_contests`` -- how many contests the master runs at
  once (paper's Listing 1 admits overlap; we default to 1, which makes
  every bid reflect fully settled workloads, and ablate larger values),
* ``speed_model`` -- nominal (Section 6.3) vs. historic-average
  (Section 6.4) vs. EWMA (future work),
* ``count_pending_downloads`` -- see
  :class:`~repro.core.estimator.CostEstimator`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.adaptive import BidCorrector
from repro.core.contest import Contest
from repro.core.estimator import CostEstimator
from repro.core.learning import NominalSpeedModel, SpeedModel
from repro.engine.messages import (
    TOPIC_ANNOUNCE,
    Assignment,
    Bid,
    JobAnnouncement,
)
from repro.schedulers.base import MasterPolicy, SchedulerPolicy, WorkerPolicy
from repro.sim.events import AnyOf
from repro.sim.resources import Store
from repro.workload.job import Job

#: The paper's bidding window: "The master waits for workers to make
#: submissions within one second".
DEFAULT_WINDOW_S = 1.0

#: Worker-side cost of computing one bid at a 1.0-CPU-factor machine:
#: scanning the local clone store and estimating costs is real work on a
#: t3.micro.  Scaled by each worker's CPU factor, so a 4x-slow worker
#: takes ~1 s -- which is exactly when the paper's 1-second window and
#: timeout-close path start to matter.  This constant realises the
#: contest overhead the paper reports ("for small resources or short
#: workflows, competing for jobs unnecessarily prolongs the execution");
#: ablation A1 sweeps it together with the window.
DEFAULT_BID_COMPUTE_S = 0.25


class BiddingMasterPolicy(MasterPolicy):
    """Listing 1: contest orchestration on the master.

    ``fast_local_close`` enables the future-work optimisation of
    "minimizing the bidding overhead for highly local jobs": the contest
    short-circuits as soon as an *idle holder* bids -- a worker whose
    bid shows zero transfer cost and zero committed workload.  Such a
    bid is unbeatable on data movement, so waiting out the window only
    adds latency.  Off by default (the paper's protocol).
    """

    name = "bidding"
    stale_inbound = (Bid,)

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        max_concurrent_contests: int = 1,
        fast_local_close: bool = False,
    ) -> None:
        super().__init__()
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if max_concurrent_contests < 1:
            raise ValueError("max_concurrent_contests must be >= 1")
        self.window_s = window_s
        self.max_concurrent_contests = max_concurrent_contests
        self.fast_local_close = fast_local_close
        #: Count of contests resolved through the fast-close path.
        self.fast_closes = 0
        self._pending: Optional[Store] = None
        #: job_id -> live Contest (Listing 1's ``Bids``/``bidsMap``).
        self.contests: dict[str, Contest] = {}
        #: job_ids already granted one fallback re-contest (recovery mode).
        self._rebids: set[str] = set()
        #: Workers that joined mid-run (revived or scaled up); see
        #: :meth:`on_worker_joined`.
        self._joined: set[str] = set()
        #: Hot-swap quiesce: runners stop opening contests and park
        #: pending jobs here for :meth:`export_state` instead.
        self._quiescing = False
        self._parked_for_export: list[Job] = []
        #: Runners currently holding a job (between take and settle);
        #: the quiescent test must see through the window where a job is
        #: in a runner's hand but no contest is open yet.
        self._busy_runners = 0

    def start(self) -> None:
        self._pending = Store(self.master.sim)
        for index in range(self.max_concurrent_contests):
            self.master.sim.process(
                self._contest_runner(), name=f"contest-runner-{index}"
            )

    # -- MasterPolicy hooks -----------------------------------------------

    def on_job(self, job: Job) -> None:
        """``sendJob`` entry: queue the job for a bidding contest."""
        assert self._pending is not None, "policy not started"
        self._pending.put(job)

    def on_message(self, message: object) -> bool:
        """``receiveBid``: record the bid against its contest."""
        if not isinstance(message, Bid):
            return False
        self.master.metrics.bid_received(
            self.master.sim.now, message.job_id, message.worker, message.cost_s
        )
        contest = self.contests.get(message.job_id)
        if contest is None:
            # Bid for a job we never announced: a protocol error.
            raise RuntimeError(f"bid for unknown job {message.job_id!r}")
        counted = contest.add_bid(message)
        if (
            counted
            and self.fast_local_close
            and not contest.fast_close.triggered
            and message.breakdown[0] == 0.0  # no committed workload
            and message.breakdown[1] == 0.0  # data already local
        ):
            self.fast_closes += 1
            contest.fast_close.succeed(message.worker)
        return True

    def on_worker_failed(self, worker: str, orphaned: list[Job]) -> None:
        """Exclude the dead worker from every open contest, so surviving
        bidders can close early instead of waiting out the window for a
        bid that will never come."""
        for contest in self.contests.values():
            contest.exclude(worker)

    def on_worker_joined(self, worker: str) -> None:
        """Mark a revived or scaled-up worker as a late joiner on every
        open contest, and on every later contest that does not invite it.

        The joiner's fresh node subscribes to announcements, but the
        active set a contest invites can lag it: a failure report from
        the name's previous incarnation (the dead-letter bounce of a job
        sent to the dead node) may still arrive after the revive and
        deactivate the live node.  Its bids on contests it was not
        invited to are then dropped as late, not protocol errors.
        """
        self._joined.add(worker)
        for contest in self.contests.values():
            contest.add_late_joiner(worker)

    def decision_context(self, job: Job, worker: str) -> tuple:
        """Ledger: the closed contest's bids are the candidate scores."""
        from repro.obs.ledger import CandidateScore

        contest = self.contests.get(job.job_id)
        if contest is None or worker not in contest.bids:
            # Zero-bid window: the master picked an arbitrary worker.
            bids = [] if contest is None else list(contest.bids.values())
            candidates = tuple(
                CandidateScore(worker=bid.worker, score=bid.cost_s)
                for bid in sorted(bids, key=lambda bid: (bid.cost_s, bid.worker))
            )
            return ("fallback", candidates, None, "no usable bids; arbitrary pick")
        ranked = sorted(
            contest.bids.values(), key=lambda bid: (bid.cost_s, bid.worker)
        )
        candidates = tuple(
            CandidateScore(
                worker=bid.worker,
                score=bid.cost_s,
                local=bid.breakdown[1] == 0.0,
                detail=(
                    f"workload={bid.breakdown[0]:.3f}s "
                    f"transfer={bid.breakdown[1]:.3f}s "
                    f"processing={bid.breakdown[2]:.3f}s"
                ),
            )
            for bid in ranked
        )
        runner_up = ranked[1].worker if len(ranked) > 1 else None
        chosen = contest.bids[worker]
        reason = f"lowest bid of {len(ranked)} ({chosen.cost_s:.3f} s)"
        if runner_up is not None:
            beaten = contest.bids[runner_up]
            saved = beaten.breakdown[1] - chosen.breakdown[1]
            if chosen.breakdown[1] == 0.0 and saved > 0 and job.repo_id:
                reason += (
                    f"; cache hit on repo {job.repo_id} saved "
                    f"est. {saved:.1f} s transfer vs {runner_up}"
                )
        return ("contest", candidates, runner_up, reason)

    # -- hot-swap seam ------------------------------------------------------

    def begin_quiesce(self) -> None:
        """Runners stop opening contests (pending jobs are parked for
        export); already-open contests run to their normal close, whose
        assignment survives the swap at the engine level."""
        self._quiescing = True

    def quiescent(self) -> bool:
        return self._busy_runners == 0 and not self._pending.items

    def end_quiesce(self) -> None:
        """Quiesce timed out: re-enter the parked jobs for contests."""
        self._quiescing = False
        parked = list(self._parked_for_export)
        self._parked_for_export.clear()
        for job in parked:
            self._pending.put(job)

    def export_state(self) -> list[Job]:
        jobs = list(self._parked_for_export)
        self._parked_for_export.clear()
        jobs.extend(item for item in self._pending.items if isinstance(item, Job))
        self._pending.items.clear()
        return jobs

    # -- the contest loop ------------------------------------------------------

    def _contest_runner(self):
        """Take pending jobs one at a time and run their contests."""
        master = self.master
        while True:
            job = yield self._pending.get()
            if self._quiescing:
                # Hot-swap quiesce: park for export instead of contesting.
                self._parked_for_export.append(job)
                continue
            self._busy_runners += 1
            if not master.active_workers:
                # Robustness: the whole fleet is momentarily down (crash
                # storm before restarts land).  Park the job and retry.
                yield master.sim.sleep(self.window_s)
                self._pending.put(job)
                self._busy_runners -= 1
                continue
            contest = Contest(master.sim, job, list(master.active_workers))
            for name in self._joined:
                contest.add_late_joiner(name)
            self.contests[job.job_id] = contest
            master.metrics.contest_opened(master.sim.now, job)
            master.broadcast(JobAnnouncement(job=job))
            window = master.sim.timeout(self.window_s)
            yield AnyOf(master.sim, [window, contest.all_bids, contest.fast_close])
            outcome = contest.close()
            winner = contest.winner()
            if (
                winner is None
                and master.recovery is not None
                and job.job_id not in self._rebids
            ):
                # Recovery extension: a zero-bid window usually means the
                # invitees died or were partitioned mid-contest.  Re-run
                # the contest once against the *current* fleet instead of
                # assigning blindly.  (The old contest stays in the map
                # until the rerun opens, absorbing stray late bids.)
                self._rebids.add(job.job_id)
                master.metrics.contest_closed(
                    master.sim.now, job, None, contest.duration, outcome
                )
                self._pending.put(job)
                self._busy_runners -= 1
                continue
            if winner is None:
                # "assigns the job to an arbitrary node in case none of
                # the workers submitted their estimates".
                winner = master.arbitrary_worker()
            master.metrics.contest_closed(
                master.sim.now, job, winner, contest.duration, outcome
            )
            master.assign(job, winner)
            self._busy_runners -= 1
            # The closed contest stays in the map (Listing 1 keeps its
            # Bids record): late bids are absorbed as ``late_bids``
            # rather than crashing the protocol.


class BiddingWorkerPolicy(WorkerPolicy):
    """Listing 2: estimate-and-bid on the worker."""

    def __init__(
        self,
        speed_model: Optional[SpeedModel] = None,
        count_pending_downloads: bool = True,
        bid_compute_s: float = DEFAULT_BID_COMPUTE_S,
        corrector: Optional[BidCorrector] = None,
    ) -> None:
        super().__init__()
        self.speed_model = speed_model or NominalSpeedModel()
        self.count_pending_downloads = count_pending_downloads
        if bid_compute_s < 0:
            raise ValueError("bid_compute_s must be non-negative")
        #: Simulated cost of *computing* a bid at CPU factor 1.0; divided
        #: by the worker's CPU factor at bid time.  The paper runs bidding
        #: "handled by a separate thread", so this cost delays only the
        #: bid, never job execution.
        self.bid_compute_s = bid_compute_s
        #: Optional estimate-vs-actual learning loop (future-work
        #: extension; see :class:`repro.core.adaptive.BidCorrector`).
        self.corrector = corrector
        self.estimator: Optional[CostEstimator] = None
        #: job_id -> own-cost of the bid we last submitted, so a win
        #: commits exactly what was promised.
        self._promised: dict[str, float] = {}
        #: job_id -> committed cost of jobs we won (kept until completion
        #: so the learning loop can compare promise vs. actual).
        self._won: dict[str, float] = {}

    def bind(self, worker) -> None:
        super().bind(worker)
        self.estimator = CostEstimator(
            worker,
            speed_model=self.speed_model,
            count_pending_downloads=self.count_pending_downloads,
        )

    def start(self) -> None:
        subscription = self.worker.topology.subscribe(TOPIC_ANNOUNCE, self.worker.name)
        self._subscription = subscription
        self.worker.sim.process(
            self._bid_loop(subscription), name=f"{self.worker.name}-bidder"
        )

    def on_killed(self) -> None:
        # Eager unsubscribe: without it the dead node's announce mailbox
        # keeps receiving until the bid loop sees the next announcement,
        # double-delivering to a restarted worker of the same name (the
        # fuzzer's fifo-per-pair monitor caught exactly this).  The lazy
        # checks in the loop stay as a safety net; unsubscribe is
        # idempotent.
        if getattr(self, "_subscription", None) is not None:
            self.worker.topology.broker.unsubscribe(self._subscription)

    def _bid_loop(self, subscription):
        """``sendBid`` for every announcement (Listing 2 lines 1-8)."""
        worker = self.worker
        while True:
            message = yield subscription.get()
            if worker.policy is not self:
                # Hot-swapped out; unsubscribe is idempotent with the
                # eager one in on_killed.
                worker.topology.broker.unsubscribe(subscription)
                return
            if not isinstance(message, JobAnnouncement):
                raise RuntimeError(f"unexpected announcement payload {message!r}")
            if not worker.alive:
                # Stop shadowing the announce topic: a restarted
                # replacement subscribes under the same name.
                worker.topology.broker.unsubscribe(subscription)
                return
            if worker.draining:
                # Scale-down: a draining worker abstains.  The contest's
                # invited set no longer includes it (the master retires
                # the name before the drain flag is set), so the silence
                # cannot stall the window-close condition.
                continue
            if self.bid_compute_s > 0:
                yield worker.sim.sleep(self.bid_compute_s / worker.spec.cpu_factor)
                if not worker.alive:
                    # Killed while computing the bid: the contest has (or
                    # will) exclude us, so stay silent and shut down.
                    worker.topology.broker.unsubscribe(subscription)
                    return
            estimate = self.estimator.estimate(message.job)
            own_cost = estimate.own_cost_s
            if self.corrector is not None:
                own_cost = self.corrector.correct(own_cost)
            self._promised[message.job.job_id] = own_cost
            worker.send_to_master(
                Bid(
                    job_id=message.job.job_id,
                    worker=worker.name,
                    cost_s=estimate.workload_s + own_cost,
                    breakdown=(
                        estimate.workload_s,
                        estimate.transfer_s,
                        estimate.processing_s,
                    ),
                )
            )

    def on_message(self, message: object) -> bool:
        """Winning assignment: queue the job, committing the promised cost."""
        if not isinstance(message, Assignment):
            return False
        job = message.job
        promised = self._promised.pop(job.job_id, None)
        if promised is None:
            # Fallback assignment without a prior bid (e.g. we were late);
            # commit a fresh estimate instead.
            promised = self.estimator.estimate(job).own_cost_s
        self._won[job.job_id] = promised
        self.worker.enqueue(job, promised)
        return True

    def on_job_finished(self, job: Job, elapsed_s: float = 0.0) -> None:
        """Release the commitment and feed the learning loop, if any."""
        self._promised.pop(job.job_id, None)
        promised = self._won.pop(job.job_id, None)
        if self.corrector is not None and promised is not None:
            self.corrector.observe(promised, elapsed_s)


def make_bidding_policy(
    window_s: float = DEFAULT_WINDOW_S,
    max_concurrent_contests: int = 1,
    speed_model_factory: Optional[Callable[[], SpeedModel]] = None,
    count_pending_downloads: bool = True,
    bid_compute_s: float = DEFAULT_BID_COMPUTE_S,
    fast_local_close: bool = False,
    adaptive: bool = False,
) -> SchedulerPolicy:
    """Package the Bidding Scheduler for the engine/registry.

    ``fast_local_close`` and ``adaptive`` enable the two future-work
    extensions (Section 7); both default to the paper's protocol.
    """
    factory = speed_model_factory or NominalSpeedModel
    return SchedulerPolicy(
        name="bidding",
        master_factory=lambda: BiddingMasterPolicy(
            window_s=window_s,
            max_concurrent_contests=max_concurrent_contests,
            fast_local_close=fast_local_close,
        ),
        worker_factory=lambda: BiddingWorkerPolicy(
            speed_model=factory(),
            count_pending_downloads=count_pending_downloads,
            bid_compute_s=bid_compute_s,
            corrector=BidCorrector() if adaptive else None,
        ),
    )
