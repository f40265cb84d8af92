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
:mod:`repro.schedulers.matchmaking`; the pull protocol itself lives in
:mod:`repro.schedulers.pull`, and this module supplies the skip rule.
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

DEFAULT_MAX_SKIPS = 3


class DelayMasterPolicy(LocalityPullMasterPolicy):
    """Skip-counted locality waiting."""

    name = "delay"

    def __init__(self, max_skips: int = DEFAULT_MAX_SKIPS) -> None:
        super().__init__()
        if max_skips < 0:
            raise ValueError("max_skips must be non-negative")
        self.max_skips = max_skips
        #: job_id -> times a puller passed the queued job over.
        self.skips: dict[str, int] = {}

    def _pick(self, worker: str, attempt: int) -> Optional[Job]:
        """Walk the queue against one precomputed locality mask.

        The walk (and its skip accounting) stays sequential -- the skip
        counters mutate as the scan advances, which no batched form can
        reproduce -- but the per-job holdings probe is a single boolean
        gather over the queue's repo-column plane.
        """
        mask = self.job_queue.local_mask(worker)
        for index in range(len(self.job_queue)):
            job_id = self.job_queue[index].job_id
            if not mask[index]:
                skips = self.skips.get(job_id, 0) + 1
                if skips <= self.max_skips:
                    self.skips[job_id] = skips
                    continue
                # Waited long enough: launch non-locally.
            self.skips.pop(job_id, None)
            return self.job_queue.delete(index)
        return None

    def export_state(self) -> list[Job]:
        self.skips.clear()
        return super().export_state()

    def decision_context(self, job: Job, worker: str) -> tuple:
        """Ledger: a non-local bind can only mean the skip budget ran out."""
        return self._locality_context(
            job,
            worker,
            "local",
            "skip-exhausted",
            f"skipped past max_skips={self.max_skips}; launched non-locally",
        )


def make_delay_policy(
    max_skips: int = DEFAULT_MAX_SKIPS,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    response_timeout_s: Optional[float] = None,
) -> SchedulerPolicy:
    """Package the delay scheduler for the engine/registry."""
    return SchedulerPolicy(
        name="delay",
        master_factory=lambda: DelayMasterPolicy(max_skips=max_skips),
        worker_factory=lambda: PullWorkerPolicy(
            heartbeat_s=heartbeat_s, response_timeout_s=response_timeout_s
        ),
    )
