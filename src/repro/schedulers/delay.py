"""Delay scheduling (Zaharia et al., EuroSys 2010) -- related-work comparator.

"Some approaches attempt to delay job assignment until an appropriate
node is available.  If that node is unavailable, the allocation will be
postponed, which can occur a fixed number of times." (Section 3)

Mapping to this engine: when an idle worker pulls, the master walks the
job queue in order; a job whose data is local to the puller is assigned
immediately, otherwise the job's *skip counter* increments.  A job
whose counter exceeds ``max_skips`` has waited long enough and is
assigned non-locally to the puller.  Workers always accept.

The master's locality knowledge comes from observed completions, as in
:mod:`repro.schedulers.matchmaking`.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.engine.messages import JobAccept, JobOffer, NoWork, PullRequest
from repro.fleet import HoldingsIndex, LocalityQueue
from repro.schedulers.base import MasterPolicy, SchedulerPolicy, WorkerPolicy
from repro.sim.events import AnyOf
from repro.sim.resources import Store
from repro.workload.job import Job

DEFAULT_MAX_SKIPS = 3
DEFAULT_HEARTBEAT_S = 1.0


class DelayMasterPolicy(MasterPolicy):
    """Skip-counted locality waiting."""

    name = "delay"
    stale_inbound = (PullRequest,)

    def __init__(self, max_skips: int = DEFAULT_MAX_SKIPS) -> None:
        super().__init__()
        if max_skips < 0:
            raise ValueError("max_skips must be non-negative")
        self.max_skips = max_skips
        self._quiescing = False
        self.skips: dict[str, int] = {}
        self.holdings: dict[str, set[str]] = {}
        #: Struct-of-arrays mirror of ``holdings``; drives the queue's
        #: vectorised locality mask.
        self._hx = HoldingsIndex()
        self.job_queue = LocalityQueue(self._hx)
        self.parked: deque[str] = deque()
        #: Mirror of ``parked`` membership for the O(1) dedup test.
        self._parked_set: set[str] = set()
        #: job_id -> (worker, job) for offers awaiting their JobAccept.
        #: An offered job lives in neither the queue nor the master's
        #: assignment table, so a crash of the offeree would otherwise
        #: lose it (requeued in :meth:`on_worker_failed`).
        self.in_flight: dict[str, tuple[str, Job]] = {}

    def on_job(self, job: Job) -> None:
        self.job_queue.append(job)
        self.skips.setdefault(job.job_id, 0)
        self._service_parked()

    def on_job_completed(self, job: Job, worker: str) -> None:
        if job.repo_id is not None and worker is not None:
            self.holdings.setdefault(worker, set()).add(job.repo_id)
            self._hx.add(worker, job.repo_id)

    def on_message(self, message: object) -> bool:
        if isinstance(message, PullRequest):
            if self._quiescing:
                # Swallow: the puller is about to be hot-swapped too and
                # its successor loop will re-pull.
                return True
            if not self._try_offer(message.worker):
                if self.job_queue:
                    self.master.send_to_worker(message.worker, NoWork(message.worker))
                else:
                    # One parked entry per worker: a retried pull (the
                    # loss-timeout path) must not claim two offers.
                    if message.worker not in self._parked_set:
                        self.parked.append(message.worker)
                        self._parked_set.add(message.worker)
            return True
        if isinstance(message, JobAccept):
            self.in_flight.pop(message.job.job_id, None)
            self.master.metrics.offer_accepted(
                self.master.sim.now, message.job, message.worker
            )
            self.master.note_external_assignment(message.job, message.worker)
            return True
        return False

    def on_worker_failed(self, worker: str, orphaned: list[Job]) -> None:
        """Forget the dead worker's parked pull and its holdings, and
        reclaim its unacked offers.  A late JobAccept cannot race the
        requeue: worker->master delivery is FIFO per pair, so an accept
        sent before the crash was processed before this WorkerFailure."""
        self.parked = deque(name for name in self.parked if name != worker)
        self._parked_set.discard(worker)
        self.holdings.pop(worker, None)
        self._hx.drop_worker(worker)
        lost = [
            job_id
            for job_id, (offeree, _) in self.in_flight.items()
            if offeree == worker
        ]
        for job_id in reversed(lost):
            _, job = self.in_flight.pop(job_id)
            self.job_queue.appendleft(job)
            self.skips.setdefault(job.job_id, 0)
        if lost:
            self._service_parked()

    def _local_for(self, worker: str, job: Job) -> bool:
        return job.repo_id is None or job.repo_id in self.holdings.get(worker, ())

    def decision_context(self, job: Job, worker: str) -> tuple:
        """Ledger: a non-local bind can only mean the skip budget ran out."""
        from repro.obs.ledger import CandidateScore

        local = self._local_for(worker, job)
        candidates = (CandidateScore(worker=worker, local=local),)
        if local:
            reason = (
                f"repo {job.repo_id} in the puller's holdings"
                if job.repo_id
                else "no data needed; any puller matches"
            )
            return ("local", candidates, None, reason)
        return (
            "skip-exhausted",
            candidates,
            None,
            f"skipped past max_skips={self.max_skips}; launched non-locally",
        )

    def _try_offer(self, worker: str) -> bool:
        """Walk the queue against one precomputed locality mask.

        The walk (and its skip accounting) stays sequential -- the skip
        counters mutate as the scan advances, which no batched form can
        reproduce -- but the per-job holdings-set probe is a single
        boolean gather over the queue's repo-column plane.
        """
        mask = self.job_queue.local_mask(worker)
        for index in range(len(self.job_queue)):
            job = self.job_queue[index]
            if mask[index]:
                self.job_queue.delete(index)
                self.skips.pop(job.job_id, None)
                self._offer(worker, job)
                return True
            self.skips[job.job_id] = self.skips.get(job.job_id, 0) + 1
            if self.skips[job.job_id] > self.max_skips:
                # Waited long enough: launch non-locally.
                self.job_queue.delete(index)
                self.skips.pop(job.job_id, None)
                self._offer(worker, job)
                return True
        return False

    def _offer(self, worker: str, job: Job) -> None:
        self.in_flight[job.job_id] = (worker, job)
        self.master.metrics.offer_made(self.master.sim.now, job, worker)
        self.master.send_to_worker(worker, JobOffer(job=job))

    # -- hot-swap seam ------------------------------------------------------

    def begin_quiesce(self) -> None:
        """Stop offering; ``in_flight`` drains as open offers are acked."""
        self._quiescing = True

    def quiescent(self) -> bool:
        return not self.in_flight

    def end_quiesce(self) -> None:
        """Quiesce timed out: resume servicing parked pulls."""
        self._quiescing = False
        self._service_parked()

    def export_state(self) -> list[Job]:
        jobs = []
        while self.job_queue:
            jobs.append(self.job_queue.popleft())
        self.skips.clear()
        return jobs

    def _service_parked(self) -> None:
        if self._quiescing:
            return
        still_parked: deque[str] = deque()
        while self.parked:
            worker = self.parked.popleft()
            if not self._try_offer(worker):
                if self.job_queue:
                    self.master.send_to_worker(worker, NoWork(worker))
                else:
                    still_parked.append(worker)
        self.parked = still_parked
        self._parked_set = set(still_parked)


class DelayWorkerPolicy(WorkerPolicy):
    """Pull loop; always accepts (the *master* does the delaying).

    ``response_timeout_s`` bounds the wait for the master's answer --
    ``PullRequest``/``NoWork`` are droppable control messages under the
    message-loss extension, and an unbounded wait deadlocks the worker
    when either side of the exchange is lost (a shrunk fuzzer reproducer
    for that stall lives in the check tests).  ``None`` -- the paper's
    loss-free default -- waits indefinitely.
    """

    stale_inbound = (NoWork,)

    def __init__(
        self,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        response_timeout_s: Optional[float] = None,
    ) -> None:
        super().__init__()
        if heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        if response_timeout_s is not None and response_timeout_s <= 0:
            raise ValueError("response_timeout_s must be positive")
        self.heartbeat_s = heartbeat_s
        self.response_timeout_s = response_timeout_s
        self._responses: Optional[Store] = None

    def start(self) -> None:
        self._responses = Store(self.worker.sim)
        self.worker.sim.process(self._pull_loop(), name=f"{self.worker.name}-puller")

    def on_message(self, message: object) -> bool:
        if isinstance(message, (JobOffer, NoWork)):
            self._responses.put(message)
            return True
        return False

    def _await_response(self):
        """Wait for the master's answer, bounded by the loss timeout."""
        get_event = self._responses.get()
        if self.response_timeout_s is None:
            response = yield get_event
            return response
        deadline = self.worker.sim.timeout(self.response_timeout_s)
        outcome = yield AnyOf(self.worker.sim, [get_event, deadline])
        if get_event in outcome:
            return outcome[get_event]
        # Timed out: withdraw the pending get so a late answer cannot be
        # silently swallowed by an event nothing waits on anymore.
        get_event.cancel()
        return None

    def _pull_loop(self):
        worker = self.worker
        while True:
            if not worker.is_idle:
                yield worker.wait_idle()
            if not worker.alive or worker.draining:
                return
            if worker.policy is not self:
                # Hot-swapped out: the successor runs its own loop.
                return
            worker.send_to_master(PullRequest(worker=worker.name))
            response = yield from self._await_response()
            if response is None:
                # Pull or answer lost in transit: re-pull.
                continue
            if isinstance(response, NoWork):
                yield worker.sim.timeout(self.heartbeat_s)
                continue
            job = response.job
            worker.send_to_master(JobAccept(job=job, worker=worker.name))
            worker.enqueue(job, worker._default_estimate(job))
            yield worker.wait_idle()


def make_delay_policy(
    max_skips: int = DEFAULT_MAX_SKIPS,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    response_timeout_s: Optional[float] = None,
) -> SchedulerPolicy:
    """Package the delay scheduler for the engine/registry."""
    return SchedulerPolicy(
        name="delay",
        master_factory=lambda: DelayMasterPolicy(max_skips=max_skips),
        worker_factory=lambda: DelayWorkerPolicy(
            heartbeat_s=heartbeat_s, response_timeout_s=response_timeout_s
        ),
    )
