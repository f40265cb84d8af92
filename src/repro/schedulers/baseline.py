"""Crossflow's Baseline scheduler (Section 4) -- the paper's comparator.

"Crossflow currently deals with scheduling by enabling worker nodes to
pull jobs from the master.  Before being executed, each pulled job is
internally evaluated by the worker to check if it conforms to that
worker's acceptance criteria.  If it does, the job is processed,
otherwise, it is returned to the master so another worker can consider
it. ... workers are required to keep track of any jobs they have
previously declined.  This enables them to accept such jobs upon a
second attempt."

Mechanics reproduced here:

* only *idle* workers pull (a worker executes one job at a time);
* the master holds unallocated jobs FIFO and parks pulls that arrive
  while the queue is empty, answering them as soon as work exists
  (a long-poll -- pull frequency therefore never limits throughput);
* the acceptance criterion for the MSR workload is data locality:
  accept iff the job has no data, the repository is cached locally, or
  this worker has declined the job before (the second-attempt rule);
* a rejected job is "returned to the master so another worker can
  consider it".  Where it re-enters the queue is a real Crossflow
  implementation detail with large behavioural consequences, so it is
  configurable:

  - ``requeue="front"`` (default) models JMS redelivery: the rejected
    message is re-offered immediately.  A lone idle worker therefore
    sees the job again on its very next pull and is forced to accept --
    reproducing the paper's observation that "there will be redundant
    clones of the same repository if a node is offered a job it has
    previously seen, even though some other node has that resource
    locally but is currently occupied";
  - ``requeue="back"`` lets the worker cycle through the whole queue
    before the second-attempt rule bites, which gives the Baseline much
    stronger emergent locality (ablated in A3).

The documented consequences -- every job is declined by every observer
on a cold cache, and nothing steers big jobs away from slow workers --
emerge from these rules, which is precisely what the Bidding Scheduler
is built to fix.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.engine.messages import (
    JobAccept,
    JobOffer,
    JobReject,
    NoWork,
    PullRequest,
)
from repro.schedulers.base import MasterPolicy, SchedulerPolicy, WorkerPolicy
from repro.sim.resources import Store
from repro.workload.job import Job


class BaselineMasterPolicy(MasterPolicy):
    """FIFO job queue + long-polled pulls + requeue on rejection."""

    name = "baseline"
    stale_inbound = (PullRequest,)

    def __init__(self, requeue: str = "front") -> None:
        super().__init__()
        if requeue not in ("front", "back"):
            raise ValueError(f"requeue must be 'front' or 'back', got {requeue!r}")
        self.requeue = requeue
        self._quiescing = False
        self.job_queue: deque[Job] = deque()
        #: Workers whose pulls arrived while the queue was empty.
        self.parked_pulls: deque[str] = deque()
        #: Mirror of ``parked_pulls`` membership -- the dedup test used
        #: to scan the deque per pull, O(parked) per message.
        self._parked_set: set[str] = set()
        #: job_id -> number of times offered (diagnostics).
        self.offer_counts: dict[str, int] = {}
        #: job_id -> (worker, job) for offers awaiting accept/reject.
        #: An offer is the one moment a job lives in neither the queue
        #: nor the master's assignment table, so a crash of the offeree
        #: would otherwise lose it forever (JMS would redeliver the
        #: unacked message; we requeue in :meth:`on_worker_failed`).
        self.in_flight: dict[str, tuple[str, Job]] = {}

    def on_job(self, job: Job) -> None:
        self.job_queue.append(job)
        self._match()

    def on_message(self, message: object) -> bool:
        if isinstance(message, PullRequest):
            # One parked entry per worker: a retried pull (the loss
            # -timeout path) must not claim a second offer.
            if message.worker not in self._parked_set:
                self.parked_pulls.append(message.worker)
                self._parked_set.add(message.worker)
            self._match()
            return True
        if isinstance(message, JobReject):
            self.in_flight.pop(message.job.job_id, None)
            self.master.metrics.offer_rejected(
                self.master.sim.now, message.job, message.worker
            )
            # "returned to the master so another worker can consider it".
            if self.requeue == "front":
                self.job_queue.appendleft(message.job)
            else:
                self.job_queue.append(message.job)
            self._match()
            return True
        if isinstance(message, JobAccept):
            self.in_flight.pop(message.job.job_id, None)
            self.master.metrics.offer_accepted(
                self.master.sim.now, message.job, message.worker
            )
            self.master.note_external_assignment(message.job, message.worker)
            return True
        return False

    def decision_context(self, job: Job, worker: str) -> tuple:
        """Ledger: the decision was the *worker's* (pull + accept); the
        master only reports how many offers it took to land."""
        from repro.obs.ledger import CandidateScore

        offers = self.offer_counts.get(job.job_id, 0)
        local = None
        if job.repo_id is not None:
            rows = self.master.fleet.candidate_snapshot([worker], job.repo_id)
            local = rows[0][3]
        candidates = (CandidateScore(worker=worker, local=local),)
        reason = f"pulled and accepted after {offers} offer(s)"
        if local:
            reason += f"; repo {job.repo_id} cached locally"
        elif local is False:
            reason += "; no local copy (second-attempt rule forced it)"
        return ("pull-accept", candidates, None, reason)

    def on_worker_failed(self, worker: str, orphaned: list[Job]) -> None:
        """Forget the dead worker's parked pull and reclaim its unacked
        offers; its orphans are re-dispatched by the master and answer
        live pulls instead."""
        self.parked_pulls = deque(
            name for name in self.parked_pulls if name != worker
        )
        self._parked_set.discard(worker)
        # An offer that died with its offeree goes back to the front of
        # the queue (JMS redelivery of the unacked message).  A late
        # JobAccept cannot race this requeue: worker->master delivery is
        # FIFO per pair, so an accept the worker managed to send before
        # dying was processed before this WorkerFailure arrived.
        lost = [
            job_id
            for job_id, (offeree, _) in self.in_flight.items()
            if offeree == worker
        ]
        for job_id in reversed(lost):
            _, job = self.in_flight.pop(job_id)
            self.job_queue.appendleft(job)
        if lost:
            self._match()

    def on_worker_retired(self, worker: str) -> None:
        """Scale-down: forget the retiring worker's parked pull so the
        long-poll can never hand it a job mid-drain."""
        self.parked_pulls = deque(
            name for name in self.parked_pulls if name != worker
        )
        self._parked_set.discard(worker)

    # -- hot-swap seam ------------------------------------------------------

    def begin_quiesce(self) -> None:
        """Stop offering: arriving jobs and reclaimed rejects pile up in
        the queue; ``in_flight`` drains as workers answer open offers."""
        self._quiescing = True

    def quiescent(self) -> bool:
        return not self.in_flight

    def end_quiesce(self) -> None:
        """Quiesce timed out: resume answering the parked pulls."""
        self._quiescing = False
        self._match()

    def export_state(self) -> list[Job]:
        jobs = list(self.job_queue)
        self.job_queue.clear()
        return jobs

    def _match(self) -> None:
        """Answer parked pulls while jobs are available."""
        if self._quiescing:
            return
        while self.job_queue and self.parked_pulls:
            worker = self.parked_pulls.popleft()
            self._parked_set.discard(worker)
            job = self.job_queue.popleft()
            prior = self.offer_counts.get(job.job_id, 0)
            self.offer_counts[job.job_id] = prior + 1
            self.in_flight[job.job_id] = (worker, job)
            self.master.metrics.offer_made(self.master.sim.now, job, worker)
            self.master.send_to_worker(worker, JobOffer(job=job, prior_offers=prior))


class BaselineWorkerPolicy(WorkerPolicy):
    """The opinionated node: locality acceptance + second-attempt rule.

    ``response_timeout_s`` is the message-loss robustness extension: a
    worker whose pull (or its answer) vanished re-pulls after this long
    instead of waiting forever.  ``None`` (the paper's reliable-broker
    assumption) disables it.
    """

    stale_inbound = (NoWork,)

    def __init__(
        self, heartbeat_s: float = 1.0, response_timeout_s: Optional[float] = None
    ) -> None:
        super().__init__()
        if heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        if response_timeout_s is not None and response_timeout_s <= 0:
            raise ValueError("response_timeout_s must be positive")
        self.heartbeat_s = heartbeat_s
        self.response_timeout_s = response_timeout_s
        #: Job ids this worker has declined (the second-attempt memory).
        self.declined: set[str] = set()
        self._responses: Optional[Store] = None

    def start(self) -> None:
        self._responses = Store(self.worker.sim)
        self.worker.sim.process(self._pull_loop(), name=f"{self.worker.name}-puller")

    def on_message(self, message: object) -> bool:
        if isinstance(message, (JobOffer, NoWork)):
            self._responses.put(message)
            return True
        return False

    def accepts(self, job: Job) -> bool:
        """The acceptance criterion (application-specific in Crossflow;
        data locality for the MSR workload, per Section 4)."""
        if not job.is_data_bound:
            return True
        if self.worker.cache.peek(job.repo_id):
            return True
        return job.job_id in self.declined

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
                # Pull (or its answer) was lost in transit: retry.
                continue
            if isinstance(response, NoWork):
                yield worker.sim.timeout(self.heartbeat_s)
                continue
            job = response.job
            if worker.draining:
                # Drain began while this offer was in flight: bounce it
                # back so an active worker picks it up.
                self.declined.add(job.job_id)
                worker.send_to_master(JobReject(job=job, worker=worker.name))
                return
            if self.accepts(job):
                worker.send_to_master(JobAccept(job=job, worker=worker.name))
                worker.enqueue(job, worker._default_estimate(job))
                yield worker.wait_idle()
            else:
                self.declined.add(job.job_id)
                worker.send_to_master(JobReject(job=job, worker=worker.name))

    def _await_response(self):
        """Wait for the master's answer, bounded by the loss timeout."""
        from repro.sim.events import AnyOf

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


def make_baseline_policy(
    heartbeat_s: float = 1.0,
    requeue: str = "front",
    response_timeout_s: Optional[float] = None,
) -> SchedulerPolicy:
    """Package the Baseline scheduler for the engine/registry."""
    return SchedulerPolicy(
        name="baseline",
        master_factory=lambda: BaselineMasterPolicy(requeue=requeue),
        worker_factory=lambda: BaselineWorkerPolicy(
            heartbeat_s=heartbeat_s, response_timeout_s=response_timeout_s
        ),
    )
