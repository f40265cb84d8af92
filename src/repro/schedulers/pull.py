"""The pull-policy core shared by Baseline, Matchmaking and Delay.

All three pull schedulers speak one protocol: an idle worker sends a
:class:`PullRequest`, the master answers with a :class:`JobOffer` or a
:class:`NoWork` heartbeat, and the worker acks with :class:`JobAccept`
or returns the job with :class:`JobReject`.  They differ only in *which*
queued job the master offers a puller -- the locality-wait rule -- and
in whether the worker may decline it.  Everything else lives here, once:

* :class:`PullMasterPolicy` owns the job queue, the parked pulls (one
  entry per worker, answered as soon as work exists -- a long-poll),
  the ``in_flight`` offers (reclaimed to the queue front when the
  offeree crashes), accept/reject handling, scale-down retirement and
  the hot-swap seam: while quiescing, pulls park and are served when
  the quiesce ends or the job queue is exported;
* :class:`PullWorkerPolicy` owns the pull loop with its ``attempt``
  counter (reset after every executed job), the bounded response wait
  and the draining bounce: an offer that lands after scale-down began
  goes back to the master as a :class:`JobReject`.

A strategy subclasses the master core and supplies
:meth:`PullMasterPolicy._pick`: given a puller and its attempt count,
remove and return the queued job to offer it, or ``None`` to answer
``NoWork``.  A worker that may decline overrides
:meth:`PullWorkerPolicy.accepts`.
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
from repro.schedulers.base import MasterPolicy, WorkerPolicy
from repro.sim.events import AnyOf
from repro.sim.resources import Store
from repro.workload.job import Job

DEFAULT_HEARTBEAT_S = 1.0


class PullMasterPolicy(MasterPolicy):
    """Job queue + long-polled pulls + offer bookkeeping."""

    stale_inbound = (PullRequest,)

    def __init__(self, job_queue=None) -> None:
        super().__init__()
        self._quiescing = False
        #: Unallocated jobs, oldest first (``deque``-like).
        self.job_queue = deque() if job_queue is None else job_queue
        #: Workers whose pulls wait for work, in arrival order.
        self.parked: deque[str] = deque()
        #: worker -> attempt of its parked pull.  One entry per worker: a
        #: retried pull (the loss-timeout path) keeps the worker's place
        #: and updates its attempt instead of claiming a second offer.
        self._parked_attempt: dict[str, int] = {}
        #: job_id -> number of times offered (diagnostics).
        self.offer_counts: dict[str, int] = {}
        #: job_id -> (worker, job) for offers awaiting accept/reject.
        #: An offer is the one moment a job lives in neither the queue
        #: nor the master's assignment table, so a crash of the offeree
        #: would otherwise lose it forever (JMS would redeliver the
        #: unacked message; we requeue in :meth:`on_worker_failed`).
        self.in_flight: dict[str, tuple[str, Job]] = {}

    def _pick(self, worker: str, attempt: int) -> Optional[Job]:
        """The locality-wait rule: remove and return the job to offer
        ``worker`` on pull ``attempt`` (the queue is non-empty), or
        ``None`` to send it ``NoWork``."""
        raise NotImplementedError

    def _requeue(self, job: Job) -> None:
        """Return a rejected offer to the queue; default: the front."""
        self.job_queue.appendleft(job)

    def on_job(self, job: Job) -> None:
        self.job_queue.append(job)
        self._service_parked()

    def on_message(self, message: object) -> bool:
        if isinstance(message, PullRequest):
            if self._quiescing:
                self._park(message.worker, message.attempt)
            else:
                self._serve(message.worker, message.attempt)
            return True
        if isinstance(message, JobReject):
            self.in_flight.pop(message.job.job_id, None)
            self.master.metrics.offer_rejected(
                self.master.sim.now, message.job, message.worker
            )
            # "returned to the master so another worker can consider it".
            self._requeue(message.job)
            self._service_parked()
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
        """Forget the dead worker's parked pull and reclaim its unacked
        offers; its orphans are re-dispatched by the master and answer
        live pulls instead."""
        self._unpark(worker)
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
            self._service_parked()

    def on_worker_retired(self, worker: str) -> None:
        """Scale-down: forget the retiring worker's parked pull so the
        long-poll can never hand it a job mid-drain (an offer already
        on its way is bounced back by the worker)."""
        self._unpark(worker)

    # -- hot-swap seam ------------------------------------------------------

    def begin_quiesce(self) -> None:
        """Stop offering: arriving jobs and rejects pile up in the queue,
        pulls park; ``in_flight`` drains as workers answer open offers."""
        self._quiescing = True

    def quiescent(self) -> bool:
        return not self.in_flight

    def end_quiesce(self) -> None:
        """Quiesce timed out: resume answering the parked pulls."""
        self._quiescing = False
        self._service_parked()

    def export_state(self) -> list[Job]:
        jobs = list(self.job_queue)
        self.job_queue.clear()
        return jobs

    # -- offers -------------------------------------------------------------

    def _serve(self, worker: str, attempt: int) -> None:
        """Answer one pull: an offer, ``NoWork``, or park until work exists."""
        if not self.job_queue:
            self._park(worker, attempt)
            return
        job = self._pick(worker, attempt)
        if job is None:
            self.master.send_to_worker(worker, NoWork(worker))
        else:
            self._offer(worker, job)

    def _service_parked(self) -> None:
        """Answer parked pulls, oldest first, while jobs are queued."""
        if self._quiescing:
            return
        while self.job_queue and self.parked:
            worker = self.parked.popleft()
            self._serve(worker, self._parked_attempt.pop(worker))

    def _offer(self, worker: str, job: Job) -> None:
        prior = self.offer_counts.get(job.job_id, 0)
        self.offer_counts[job.job_id] = prior + 1
        self.in_flight[job.job_id] = (worker, job)
        self.master.metrics.offer_made(self.master.sim.now, job, worker)
        self.master.send_to_worker(worker, JobOffer(job=job, prior_offers=prior))

    def _park(self, worker: str, attempt: int) -> None:
        if worker not in self._parked_attempt:
            self.parked.append(worker)
        self._parked_attempt[worker] = attempt

    def _unpark(self, worker: str) -> None:
        if self._parked_attempt.pop(worker, None) is not None:
            self.parked.remove(worker)


class LocalityPullMasterPolicy(PullMasterPolicy):
    """A pull master that learns holdings from completions.

    The view stands in for the JobTracker's block map: a worker holds a
    repository once it has completed a job on it, and loses everything
    when it dies (a restarted node re-announces holdings through future
    completions).  It never sees evictions or prefetches -- the policies'
    knowledge lags reality by design.
    """

    def __init__(self) -> None:
        self._hx = HoldingsIndex()
        super().__init__(LocalityQueue(self._hx))

    def on_job_completed(self, job: Job, worker: str) -> None:
        if job.repo_id is not None and worker is not None:
            self._hx.add(worker, job.repo_id)

    def on_worker_failed(self, worker: str, orphaned: list[Job]) -> None:
        self._hx.drop_worker(worker)
        super().on_worker_failed(worker, orphaned)

    def _locality_context(
        self, job: Job, worker: str, local_kind: str, forced_kind: str, forced: str
    ) -> tuple:
        """Ledger entry naming a local match or a non-local bind."""
        from repro.obs.ledger import CandidateScore

        local = job.repo_id is None or self._hx.holds(worker, job.repo_id)
        candidates = (CandidateScore(worker=worker, local=local),)
        if not local:
            return (forced_kind, candidates, None, forced)
        reason = (
            f"repo {job.repo_id} in the puller's holdings"
            if job.repo_id
            else "no data needed; any puller matches"
        )
        return (local_kind, candidates, None, reason)


class PullWorkerPolicy(WorkerPolicy):
    """Pull loop with the heartbeat/attempt discipline.

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

    def accepts(self, job: Job) -> bool:
        """The worker's acceptance criterion; default: every offer."""
        return True

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
            if worker.draining:
                # Drain began while this offer was in flight: bounce it
                # back so an active worker picks it up.
                worker.send_to_master(JobReject(job=job, worker=worker.name))
                return
            if not self.accepts(job):
                worker.send_to_master(JobReject(job=job, worker=worker.name))
                continue
            worker.send_to_master(JobAccept(job=job, worker=worker.name))
            worker.enqueue(job, worker._default_estimate(job))
            yield worker.wait_idle()
            attempt = 1

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
