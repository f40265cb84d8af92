"""Per-object reference planners: the oracle for BAR's and Spark's
struct-of-arrays planners.

These are the dict/set scans that :mod:`repro.fleet` replaced in
:mod:`repro.schedulers.bar` and :mod:`repro.schedulers.spark`, kept as
subclasses that override exactly the vectorised parts: upfront planning
and arrival-time (streaming) dispatch, including the late-joiner rules.
Everything else -- the cost model, fleet-churn bookkeeping, the
decision ledger -- is the production code itself.

Two consumers share this single copy: ``tests/test_fleet_property.py``
draws random fleets, cache views and job streams and requires the
production planners to match these exactly (plan, load bits, move
count, planned counts, assignment sequence), and
``benchmarks/test_bench_fleet.py`` times them as the speed baseline.
"""

from repro.schedulers.bar import BARMasterPolicy
from repro.schedulers.spark import SparkMasterPolicy


class ReferenceBAR(BARMasterPolicy):
    """BAR with its per-object two-phase planner and streaming rules."""

    def _earliest(self) -> str:
        return min(self._load, key=lambda name: (self._load[name], name))

    def on_upfront_jobs(self, jobs) -> None:
        workers = list(self.master.worker_names)
        self._ensure_views(workers)
        self._load = {name: 0.0 for name in workers}
        placements: dict[str, str] = {}

        # Phase 1: entirely-local assignment where possible.
        for job in jobs:
            holders = [name for name in workers if self._is_local(job, name)]
            if holders:
                worker = min(holders, key=lambda name: (self._load[name], name))
            else:
                worker = self._earliest()
            placements[job.job_id] = worker
            self._load[worker] += self._cost(job, worker, self._is_local(job, worker))

        # Phase 2: trade locality for balance while the makespan improves.
        jobs_by_id = {job.job_id: job for job in jobs}
        moves = 0
        budget = self.max_adjustments if self.max_adjustments is not None else len(jobs) * 4
        while moves < budget:
            slowest = max(self._load, key=lambda name: (self._load[name], name))
            fastest = self._earliest()
            if slowest == fastest:
                break
            candidates = [
                job_id for job_id, worker in placements.items() if worker == slowest
            ]
            best_move = None
            best_makespan = self._load[slowest]
            for job_id in candidates:
                job = jobs_by_id[job_id]
                out_cost = self._cost(job, slowest, self._is_local(job, slowest))
                in_cost = self._cost(job, fastest, self._is_local(job, fastest))
                new_slowest = self._load[slowest] - out_cost
                new_fastest = self._load[fastest] + in_cost
                new_makespan = max(new_slowest, new_fastest)
                if new_makespan < best_makespan - 1e-12:
                    best_makespan = new_makespan
                    best_move = (job_id, out_cost, in_cost)
            if best_move is None:
                break
            job_id, out_cost, in_cost = best_move
            placements[job_id] = fastest
            self._load[slowest] -= out_cost
            self._load[fastest] += in_cost
            moves += 1
        self.adjustments = moves
        self._plan = placements

    def on_worker_joined(self, worker: str) -> None:
        if self._load and worker not in self._load:
            self._load[worker] = max(self._load.values())

    def on_job(self, job) -> None:
        worker = self._plan.pop(job.job_id, None)
        self._last_planned = worker is not None
        if worker is None:
            if not self._load:
                self._load = {name: 0.0 for name in self.master.active_workers}
                self._ensure_views(list(self._load))
            worker = self._earliest()
            self._load[worker] += self._cost(job, worker, self._is_local(job, worker))
        self.master.assign(job, worker)


class ReferenceSpark(SparkMasterPolicy):
    """Spark with its per-object planning loop and balanced dispatch."""

    def on_upfront_jobs(self, jobs) -> None:
        workers = self._executor_order()
        self._planned_counts = {worker: 0 for worker in workers}
        cap = len(jobs) / len(workers) + self.locality_wait_slots
        for job in jobs:
            worker = None
            if self.use_locality and job.repo_id is not None:
                holders = [
                    name
                    for name in workers
                    if job.repo_id in self.cache_view.get(name, ())
                ]
                # NODE_LOCAL if a holder has plan room; else degrade to ANY.
                holders = [h for h in holders if self._planned_counts[h] < cap]
                if holders:
                    worker = min(holders, key=lambda h: (self._planned_counts[h], h))
            if worker is None:
                worker = self._least_loaded(workers)
            self._plan[job.job_id] = worker
            self._planned_counts[worker] += 1

    def _least_loaded(self, workers: list[str]) -> str:
        """Balanced by *count* only; ties by executor registration order."""
        return min(
            enumerate(workers), key=lambda pair: (self._planned_counts[pair[1]], pair[0])
        )[1]

    def on_job(self, job) -> None:
        worker = self._plan.pop(job.job_id, None)
        self._last_planned = worker is not None
        if worker is None:
            workers = self._executor_order()
            for name in workers:
                self._planned_counts.setdefault(name, 0)
            worker = self._least_loaded(workers)
            self._planned_counts[worker] += 1
        self.master.assign(job, worker)
