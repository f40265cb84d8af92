"""Matchmaking (He, Lu & Swanson, 2011) -- related-work comparator.

"The Matchmaking technique for MapReduce ... avoids wasting time by
allowing nodes to request jobs rather than receive them.  Only when a
node becomes available will it try to pull a task for which it has data
locally.  The node will remain idle for a single heartbeat if no such
task is present.  On the second attempt, it is bound to accept a task
even if it does not have data locally." (Section 3)

Mapping to this engine:

* idle workers pull with an ``attempt`` counter that resets after every
  executed job;
* on attempt 1 the master offers only a *local* job for that worker --
  one whose repository the worker holds (the master tracks holdings
  from completions, standing in for the JobTracker's block map) or one
  with no data at all; with no local job the worker idles one heartbeat;
* on attempt >= 2 the master offers the queue head unconditionally and
  the worker is bound to accept.
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
from repro.fleet import HoldingsIndex, LocalityQueue
from repro.schedulers.base import MasterPolicy, SchedulerPolicy, WorkerPolicy
from repro.sim.events import AnyOf
from repro.sim.resources import Store
from repro.workload.job import Job

DEFAULT_HEARTBEAT_S = 1.0


class MatchmakingMasterPolicy(MasterPolicy):
    """Locality-filtered offers on first attempt, forced on the second."""

    name = "matchmaking"
    stale_inbound = (PullRequest,)

    def __init__(self) -> None:
        super().__init__()
        self._quiescing = False
        #: worker -> repos known to be cached there (built from completions).
        self.holdings: dict[str, set[str]] = {}
        #: Struct-of-arrays mirror of ``holdings``; drives the queue's
        #: vectorised first-local scan.
        self._hx = HoldingsIndex()
        self.job_queue = LocalityQueue(self._hx)
        #: Pulls parked because nothing was offerable: (worker, attempt).
        self.parked: deque[tuple[str, int]] = deque()
        #: Mirror of ``parked`` worker membership -- the dedup test used
        #: to scan the deque per pull, O(parked) per message.
        self._parked_workers: set[str] = set()
        #: job_id -> (worker, job) for offers awaiting their JobAccept.
        #: An offered job lives in neither the queue nor the master's
        #: assignment table, so a crash of the offeree would otherwise
        #: lose it (requeued in :meth:`on_worker_failed`).
        self.in_flight: dict[str, tuple[str, Job]] = {}

    def on_job(self, job: Job) -> None:
        self.job_queue.append(job)
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
            if not self._try_offer(message.worker, message.attempt):
                if self.job_queue:
                    # Work exists but none is local on attempt 1: the
                    # worker idles one heartbeat (NoWork answer).
                    self.master.send_to_worker(message.worker, NoWork(message.worker))
                else:
                    # One parked entry per worker: a retried pull (the
                    # loss-timeout path) replaces the stale one instead
                    # of queueing a duplicate offer claim.
                    if message.worker in self._parked_workers:
                        self.parked = deque(
                            entry
                            for entry in self.parked
                            if entry[0] != message.worker
                        )
                    else:
                        self._parked_workers.add(message.worker)
                    self.parked.append((message.worker, message.attempt))
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
        """Forget the dead worker's parked pull and its holdings (the
        node's disk is gone; a restarted instance re-announces holdings
        through future completions), and reclaim its unacked offers.
        A late JobAccept cannot race the requeue: worker->master
        delivery is FIFO per pair, so an accept sent before the crash
        was processed before this WorkerFailure arrived."""
        self.parked = deque(entry for entry in self.parked if entry[0] != worker)
        self._parked_workers.discard(worker)
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
        if lost:
            self._service_parked()

    def _local_for(self, worker: str, job: Job) -> bool:
        return job.repo_id is None or job.repo_id in self.holdings.get(worker, ())

    def decision_context(self, job: Job, worker: str) -> tuple:
        """Ledger: locality per the holdings view distinguishes a
        first-attempt local match from a second-attempt forced bind."""
        from repro.obs.ledger import CandidateScore

        local = self._local_for(worker, job)
        candidates = (CandidateScore(worker=worker, local=local),)
        if local:
            reason = (
                f"repo {job.repo_id} in the puller's holdings"
                if job.repo_id
                else "no data needed; any puller matches"
            )
            return ("local-pull", candidates, None, reason)
        return (
            "forced",
            candidates,
            None,
            "second pull attempt: bound to accept without local data",
        )

    def _try_offer(self, worker: str, attempt: int) -> bool:
        """Offer a job per the attempt rule; returns True if offered."""
        if not self.job_queue:
            return False
        if attempt <= 1:
            index = self.job_queue.first_local(worker)
            if index < 0:
                return False
            self._offer(worker, self.job_queue.delete(index))
            return True
        job = self.job_queue.popleft()
        self._offer(worker, job)
        return True

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
        return jobs

    def _service_parked(self) -> None:
        """Re-examine parked pulls when new jobs arrive."""
        if self._quiescing:
            return
        still_parked: deque[tuple[str, int]] = deque()
        while self.parked:
            worker, attempt = self.parked.popleft()
            if not self._try_offer(worker, attempt):
                if self.job_queue:
                    self.master.send_to_worker(worker, NoWork(worker))
                else:
                    still_parked.append((worker, attempt))
        self.parked = still_parked
        self._parked_workers = {entry[0] for entry in still_parked}


class MatchmakingWorkerPolicy(WorkerPolicy):
    """Pull loop with the heartbeat/attempt discipline; accepts all offers.

    ``response_timeout_s`` bounds the wait for the master's answer.
    ``PullRequest``/``NoWork`` are control-plane messages, so the
    message-loss extension may drop either; a bounded wait re-sends the
    pull instead of blocking forever (the shrunk fuzzer reproducer for
    that stall lives in the check tests).  ``None`` -- the paper's
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
        attempt = 1
        while True:
            if not worker.is_idle:
                yield worker.wait_idle()
            if not worker.alive or worker.draining:
                return
            if worker.policy is not self:
                # Hot-swapped out: the successor runs its own loop.
                return
            worker.send_to_master(PullRequest(worker=worker.name, attempt=attempt))
            response = yield from self._await_response()
            if response is None:
                # Pull or answer lost in transit: re-pull, same attempt.
                continue
            if isinstance(response, NoWork):
                yield worker.sim.timeout(self.heartbeat_s)
                attempt += 1
                continue
            job = response.job
            worker.send_to_master(JobAccept(job=job, worker=worker.name))
            worker.enqueue(job, worker._default_estimate(job))
            yield worker.wait_idle()
            attempt = 1


def make_matchmaking_policy(
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    response_timeout_s: Optional[float] = None,
) -> SchedulerPolicy:
    """Package the Matchmaking scheduler for the engine/registry."""
    return SchedulerPolicy(
        name="matchmaking",
        master_factory=MatchmakingMasterPolicy,
        worker_factory=lambda: MatchmakingWorkerPolicy(
            heartbeat_s=heartbeat_s, response_timeout_s=response_timeout_s
        ),
    )
