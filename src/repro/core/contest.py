"""Master-side bidding contests (Listing 1).

A :class:`Contest` is the master's record for one job's bidding round:
which workers were invited, which bids arrived, and whether the contest
is still open.  It directly mirrors Listing 1's data structures
(``bidsMap`` keyed by job id, a per-job ``open``/``closed`` status) and
its closing rule (line 30)::

    biddingFinished(job_id) =
        len(bids[job_id]) == len(activeWorkers)  OR  bidding_lasted_for > 1s

The early-close condition is exposed as an event (:attr:`all_bids`) so
the policy can race it against the window timeout.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.engine.messages import Bid
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.workload.job import Job


class ContestStatus(enum.Enum):
    """Listing 1's per-job bidding status."""

    OPEN = "open"
    CLOSED = "closed"


class Contest:
    """One job's bidding round."""

    def __init__(self, sim: "Simulator", job: "Job", expected_workers: list[str]) -> None:
        if not expected_workers:
            raise ValueError("a contest needs at least one invited worker")
        self.sim = sim
        self.job = job
        self.expected: frozenset[str] = frozenset(expected_workers)
        self.status = ContestStatus.OPEN
        self.opened_at = sim.now
        self.bids: dict[str, Bid] = {}
        #: Fires once every invited worker has bid (the early-close trigger).
        self.all_bids: Event = Event(sim)
        #: Fires when the policy decides to short-circuit the contest
        #: (the fast-local-close future-work extension); never triggered
        #: under the paper's default rules.
        self.fast_close: Event = Event(sim)
        #: Bids that arrived after closing (diagnostics; the paper drops them).
        self.late_bids: list[Bid] = []
        #: Workers dropped from the contest after dying mid-window.
        self.excluded: set[str] = set()
        #: Uninvited workers that joined the fleet mid-run (revived or
        #: scaled up); their bids are dropped, not protocol errors.
        self.late_joiners: set[str] = set()

    @property
    def duration(self) -> float:
        """Seconds the contest has been (or was) open."""
        return self.sim.now - self.opened_at

    def add_bid(self, bid: Bid) -> bool:
        """Record a bid; returns ``True`` if it counted.

        Bids are dropped (but remembered in :attr:`late_bids`) when the
        contest is already closed; bids from uninvited workers or
        duplicate bids from the same worker are errors -- the protocol
        never produces them, so surfacing loudly catches engine bugs.
        """
        if bid.job_id != self.job.job_id:
            raise ValueError(
                f"bid for job {bid.job_id!r} routed to contest {self.job.job_id!r}"
            )
        if self.status is ContestStatus.CLOSED:
            self.late_bids.append(bid)
            return False
        if bid.worker in self.excluded or bid.worker in self.late_joiners:
            # A bid from a worker excluded after dying, or from a late
            # joiner, can legitimately arrive; it is dropped, not a
            # protocol error.
            self.late_bids.append(bid)
            return False
        if bid.worker not in self.expected:
            raise ValueError(f"bid from uninvited worker {bid.worker!r}")
        if bid.worker in self.bids:
            raise ValueError(f"duplicate bid from {bid.worker!r}")
        self.bids[bid.worker] = bid
        if len(self.bids) == len(self.expected) and not self.all_bids.triggered:
            self.all_bids.succeed()
        return True

    def exclude(self, worker: str) -> None:
        """Remove an invited worker that died mid-contest.

        Robustness extension: the contest no longer waits for (or
        counts) the dead worker's bid, so :attr:`all_bids` can fire off
        the survivors instead of stalling the window.  No-op when the
        contest is closed or the worker was not invited.
        """
        if self.status is ContestStatus.CLOSED or worker not in self.expected:
            return
        self.expected = self.expected - {worker}
        self.excluded.add(worker)
        self.bids.pop(worker, None)
        if (
            self.expected
            and len(self.bids) == len(self.expected)
            and not self.all_bids.triggered
        ):
            self.all_bids.succeed()

    def add_late_joiner(self, worker: str) -> None:
        """Mark an uninvited worker that joined the fleet mid-run.

        Robustness extension, the mirror of :meth:`exclude`: the
        joiner's fresh node is subscribed to announcements while the
        invited set predates it, so its bid is filed in
        :attr:`late_bids` instead of raising.  No-op when the worker was
        invited.
        """
        if worker not in self.expected:
            self.late_joiners.add(worker)

    def winner(self) -> Optional[str]:
        """``getPreferredWorker`` (Listing 1 lines 17-21): lowest estimate.

        Ties break deterministically by worker name (the Listing's sort
        is stable, ours is total).  ``None`` when no bids arrived.
        """
        if not self.bids:
            return None
        bids = list(self.bids.values())
        if len(bids) < 16:
            return min(bids, key=lambda bid: (bid.cost_s, bid.worker)).worker
        # Fleet-sized contests: one vectorised min over the cost plane,
        # then the name tie-break among the (rare) exact-cost ties --
        # the same (cost_s, worker) order as the scalar scan.
        costs = np.fromiter((bid.cost_s for bid in bids), np.float64, len(bids))
        ties = np.nonzero(costs == costs.min())[0]
        if ties.size == 1:
            return bids[int(ties[0])].worker
        return min(bids[int(i)].worker for i in ties)

    def close(self) -> str:
        """Close the contest and classify the outcome.

        Returns ``"full"`` (every worker bid), ``"fast"`` (short-circuited
        by the fast-local-close extension before all bids arrived),
        ``"timeout"`` (window expired with some bids) or ``"fallback"``
        (window expired with none -- the master must pick an arbitrary
        worker).
        """
        if self.status is ContestStatus.CLOSED:
            raise RuntimeError("contest already closed")
        self.status = ContestStatus.CLOSED
        if not self.bids:
            # Covers the degenerate every-invitee-excluded case too,
            # where expected and bids are both empty.
            return "fallback"
        if len(self.bids) == len(self.expected):
            return "full"
        if self.fast_close.triggered:
            return "fast"
        if self.bids:
            return "timeout"
        return "fallback"
