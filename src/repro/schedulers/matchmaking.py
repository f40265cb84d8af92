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

The pull protocol itself lives in :mod:`repro.schedulers.pull`; this
module supplies the attempt rule.
"""

from __future__ import annotations

from typing import Optional

from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.pull import (
    DEFAULT_HEARTBEAT_S,
    LocalityPullMasterPolicy,
    PullWorkerPolicy,
)
from repro.workload.job import Job


class MatchmakingMasterPolicy(LocalityPullMasterPolicy):
    """Locality-filtered offers on first attempt, forced on the second."""

    name = "matchmaking"

    def _pick(self, worker: str, attempt: int) -> Optional[Job]:
        if attempt > 1:
            return self.job_queue.popleft()
        index = self.job_queue.first_local(worker)
        # No local job on attempt 1: the worker idles one heartbeat.
        return None if index < 0 else self.job_queue.delete(index)

    def decision_context(self, job: Job, worker: str) -> tuple:
        """Ledger: locality per the holdings view distinguishes a
        first-attempt local match from a second-attempt forced bind."""
        return self._locality_context(
            job,
            worker,
            "local-pull",
            "forced",
            "second pull attempt: bound to accept without local data",
        )


def make_matchmaking_policy(
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    response_timeout_s: Optional[float] = None,
) -> SchedulerPolicy:
    """Package the Matchmaking scheduler for the engine/registry."""
    return SchedulerPolicy(
        name="matchmaking",
        master_factory=MatchmakingMasterPolicy,
        worker_factory=lambda: PullWorkerPolicy(
            heartbeat_s=heartbeat_s, response_timeout_s=response_timeout_s
        ),
    )
