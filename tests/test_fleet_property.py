"""Property tests: the struct-of-arrays fleet mirrors never drift.

The fast path (:mod:`repro.fleet`) keeps numpy planes *alongside* the
authoritative per-object state, maintained incrementally at the
mutation seams.  These tests drive randomized seam sequences -- joins,
retires, crashes, count reports, cache churn -- against both the mirror
and a plain-Python reference model, and require exact agreement: a
mirror that drifts by one bit would silently change scheduling
decisions while every example-based test still passes.

The planner properties hold BAR's and Spark's vectorised planners to
the per-object reference planners in ``fleet_reference.py``: random
fleets, cache views, job lists and streaming churn must produce the same
plan, the same load-table float bits and the same assignments.

The final test closes the loop end-to-end: a fault-injected workflow
run with the :mod:`repro.check` invariant monitors live, after which
the fleet planes must equal the worker nodes' own state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_profile, make_spec
from fleet_reference import ReferenceBAR, ReferenceSpark
from repro.data.cache import WorkerCache
from repro.engine.runtime import EngineConfig, WorkflowRuntime
from repro.fleet import FleetState, LoadTable
from repro.fleet.soa import _CacheObserver
from repro.net.topology import TopologyConfig
from repro.schedulers.bar import BARMasterPolicy
from repro.schedulers.registry import make_scheduler
from repro.schedulers.spark import SparkMasterPolicy
from repro.workload.job import Job, JobArrival, JobStream
from repro.workload.msr import TASK_ANALYZER

WORKERS = [f"w{i}" for i in range(6)]
REPOS = [f"r{i}" for i in range(8)]

worker_st = st.sampled_from(WORKERS)
repo_st = st.sampled_from(REPOS)

fleet_op_st = st.one_of(
    st.tuples(st.just("join"), worker_st),
    st.tuples(st.just("retire"), worker_st),
    st.tuples(st.just("fail"), worker_st),
    st.tuples(st.just("set_alive"), worker_st, st.booleans()),
    st.tuples(
        st.just("report"),
        worker_st,
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    ),
    st.tuples(st.just("cache_set"), worker_st, repo_st, st.booleans()),
    st.tuples(st.just("cache_clear"), worker_st),
)


class _Reference:
    """The plain-Python model the mirror must track exactly."""

    def __init__(self):
        self.alive = {}
        self.active = {}
        self.outstanding = {}
        self.queued = {}
        self.cache = {}

    def ensure(self, name):
        self.alive.setdefault(name, False)
        self.active.setdefault(name, False)
        self.outstanding.setdefault(name, 0)
        self.queued.setdefault(name, 0)
        self.cache.setdefault(name, set())

    def busy_count(self):
        return sum(
            1 for n in self.alive if self.alive[n] and self.outstanding[n] > 0
        )

    def active_busy_count(self):
        return sum(
            1 for n in self.active if self.active[n] and self.outstanding[n] > 0
        )


@given(st.lists(fleet_op_st, max_size=200))
@settings(max_examples=100, deadline=None)
def test_fleet_state_mirror_matches_reference(ops):
    fleet = FleetState()
    ref = _Reference()
    for op in ops:
        kind, name = op[0], op[1]
        slot = fleet.ensure_worker(name)
        ref.ensure(name)
        if kind == "join":
            fleet.on_join(name)
            ref.active[name] = True
        elif kind == "retire":
            fleet.on_retire(name)
            ref.active[name] = False
        elif kind == "fail":
            fleet.on_fail(name)
            ref.active[name] = False
        elif kind == "set_alive":
            fleet.set_alive(slot, op[2])
            ref.alive[name] = op[2]
        elif kind == "report":
            fleet.report(slot, op[2], op[3])
            ref.outstanding[name] = op[2]
            ref.queued[name] = op[3]
        elif kind == "cache_set":
            fleet.cache.set(slot, op[2], op[3])
            (ref.cache[name].add if op[3] else ref.cache[name].discard)(op[2])
        elif kind == "cache_clear":
            fleet.cache.clear_row(slot)
            ref.cache[name].clear()
    # Exact plane-by-plane agreement, then the derived counts.
    for name in ref.alive:
        slot = fleet.slot_of(name)
        assert bool(fleet.alive[slot]) == ref.alive[name]
        assert bool(fleet.active[slot]) == ref.active[name]
        assert int(fleet.outstanding[slot]) == ref.outstanding[name]
        assert int(fleet.queued[slot]) == ref.queued[name]
        assert fleet.cache.row_contents(slot) == ref.cache[name]
    assert fleet.busy_count() == ref.busy_count()
    assert fleet.active_busy_count() == ref.active_busy_count()
    if ref.alive:
        slots = np.array([fleet.slot_of(n) for n in ref.alive], dtype=np.intp)
        assert list(fleet.queued_values(slots)) == [
            ref.queued[n] for n in ref.alive
        ]
        assert list(fleet.busy_values(slots)) == [
            int(ref.alive[n] and ref.outstanding[n] > 0) for n in ref.alive
        ]


cache_op_st = st.one_of(
    st.tuples(st.just("insert"), repo_st, st.floats(min_value=1.0, max_value=40.0)),
    st.tuples(st.just("lookup"), repo_st),
    st.tuples(st.just("clear")),
    st.tuples(
        st.just("preload"),
        st.dictionaries(repo_st, st.floats(min_value=1.0, max_value=40.0), max_size=4),
    ),
)


@given(
    st.floats(min_value=20.0, max_value=120.0),
    st.lists(cache_op_st, max_size=100),
)
@settings(max_examples=100, deadline=None)
def test_cache_observer_tracks_worker_cache(capacity_mb, ops):
    """Cache churn through the observer seam: inserts, LRU eviction
    cascades, preloads and clears on a capacity-bounded cache keep the
    bit-matrix row equal to the cache's own membership after every op."""
    fleet = FleetState()
    slot = fleet.ensure_worker("w0")
    cache = WorkerCache(capacity_mb=capacity_mb)
    cache.observer = _CacheObserver(fleet, slot)
    for op in ops:
        if op[0] == "insert":
            cache.insert(op[1], op[2])
        elif op[0] == "lookup":
            cache.lookup(op[1])
        elif op[0] == "clear":
            cache.clear()
        elif op[0] == "preload":
            cache.preload(op[1])
        assert fleet.cache.row_contents(slot) == set(cache.contents())


load_op_st = st.one_of(
    st.tuples(st.just("ensure"), worker_st, st.floats(0.0, 100.0)),
    st.tuples(st.just("add"), worker_st, st.floats(0.1, 10.0)),
    st.tuples(st.just("set"), worker_st, st.floats(0.0, 100.0)),
    st.tuples(st.just("pop"), worker_st),
)


@given(st.lists(load_op_st, max_size=150))
@settings(max_examples=100, deadline=None)
def test_load_table_matches_dict_scans(ops):
    """LoadTable vs the dict it mirrors: after every mutation the rank
    argmin/argmax must equal ``min``/``max`` over the dict with the
    (value, name) tuple key -- the exact scans the planners replaced."""
    table = LoadTable()
    ref = {}
    for op in ops:
        kind, name = op[0], op[1]
        if kind == "ensure":
            if name not in ref:
                ref[name] = op[2]
            table.ensure(name, op[2])
        elif kind == "add":
            if name in ref:
                ref[name] += op[2]
                table.add(name, op[2])
        elif kind == "set":
            # ``set`` targets existing entries (consumers ensure first).
            if name in ref:
                ref[name] = op[2]
                table.set(name, op[2])
        elif kind == "pop":
            ref.pop(name, None)
            table.pop(name)
        assert len(table) == len(ref)
        for key, value in ref.items():
            assert table.get(key) == value
        if ref:
            assert table.argmin_name() == min(ref, key=lambda n: (ref[n], n))
            assert table.argmax_name() == max(ref, key=lambda n: (ref[n], n))
            assert table.max_value() == max(ref.values())


def test_fleet_mirror_consistent_after_faulty_run():
    """End-to-end: a monitored, fault-injected run (worker crash +
    restart under fault tolerance) leaves the mirror equal to every
    node's own state -- counts, liveness, link and cache contents."""
    stream = JobStream(
        arrivals=[
            JobArrival(
                at=float(i),
                job=Job(
                    job_id=f"j{i}",
                    task=TASK_ANALYZER,
                    repo_id=f"r{i % 4}",
                    size_mb=40.0,
                ),
            )
            for i in range(10)
        ]
    )
    runtime = WorkflowRuntime(
        profile=make_profile(make_spec("w1"), make_spec("w2"), make_spec("w3")),
        stream=stream,
        scheduler=make_scheduler("bidding"),
        config=EngineConfig(
            seed=3,
            noise_kind="none",
            noise_params={},
            topology=TopologyConfig(min_latency=0.001, max_latency=0.002),
            fault_tolerance=True,
            max_sim_time=2000.0,
            check=True,
        ),
    )
    runtime.sim.timeout(5.0).add_callback(lambda _e: runtime.workers["w2"].kill())
    result = runtime.run()
    assert result.jobs_completed == 10
    fleet = runtime.fleet
    for name, node in runtime.workers.items():
        slot = fleet.slot_of(name)
        assert bool(fleet.alive[slot]) == node.alive
        assert int(fleet.outstanding[slot]) == node._outstanding_jobs
        assert int(fleet.queued[slot]) == len(node.queue)
        assert fleet.cache.row_contents(slot) == set(node.cache.contents())
        assert bool(fleet.link_busy[slot]) == node.machine.link.busy
    assert set(
        name for name in runtime.master.active_workers
    ) == {name for name in fleet.names if fleet.active[fleet.slot_of(name)]}


# -- planners vs the per-object reference ----------------------------------

PLAN_REPOS = [f"r{i}" for i in range(5)]
# Discrete values keep exact load/count ties (and thus every tie-break
# rule) frequent; the float ranges cover everything in between.
mb_st = st.one_of(st.sampled_from([1.0, 10.0, 40.0]), st.floats(0.5, 80.0))
seconds_st = st.one_of(st.sampled_from([0.0, 0.5, 2.0]), st.floats(0.01, 5.0))
speed_st = st.tuples(
    st.one_of(st.sampled_from([10.0, 20.0]), st.floats(2.0, 50.0)),
    st.one_of(st.sampled_from([50.0, 100.0]), st.floats(10.0, 200.0)),
    st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    st.sampled_from([0.0, 0.05, 0.5]),
)
plan_job_st = st.tuples(
    # None = no data; "rx" = a repo no worker holds.
    st.sampled_from(PLAN_REPOS + [None, "rx"]),
    mb_st,
    seconds_st,
)
stream_op_st = st.one_of(
    st.tuples(st.just("planned"), st.integers(0, 40)),
    st.tuples(st.just("dynamic"), plan_job_st),
    st.tuples(st.just("join"), speed_st),
    st.tuples(st.just("fail"), st.integers(0, 10)),
)


@st.composite
def planning_case(draw):
    n_workers = draw(st.integers(1, 6))
    workers = [f"w{i}" for i in range(n_workers)]
    return {
        "workers": workers,
        "cache_view": {
            name: draw(st.sets(st.sampled_from(PLAN_REPOS), max_size=3))
            for name in workers
        },
        "speeds": {name: draw(speed_st) for name in workers},
        "jobs": draw(st.lists(plan_job_st, max_size=25)),
        "ops": draw(st.lists(stream_op_st, max_size=15)),
    }


class _PlanningMaster:
    """The master surface the planners touch: fleet names, the per-run
    RNG (Spark's executor shuffle) and an assignment log."""

    def __init__(self, workers, seed=5):
        self.worker_names = list(workers)
        self.active_workers = list(workers)
        self.rng = np.random.default_rng(seed)
        self.assigned = []

    def assign(self, job, worker):
        self.assigned.append((job.job_id, worker))


def _jobs(specs, prefix):
    return [
        Job(
            job_id=f"{prefix}{i}",
            task=TASK_ANALYZER,
            repo_id=repo,
            size_mb=size if repo is not None else 0.0,
            base_compute_s=compute,
        )
        for i, (repo, size, compute) in enumerate(specs)
    ]


def _load_bits(policy):
    return [(name, float(value).hex()) for name, value in policy._load.items()]


def _drive(policy_cls, case, **kwargs):
    """Plan ``case`` with ``policy_cls``, then replay its streaming ops
    (planned and dynamic arrivals, late joins, failures); returns the
    policy and a snapshot of its state after every step."""
    master = _PlanningMaster(case["workers"])
    policy = policy_cls(**kwargs)
    policy.bind(master)
    policy.cache_view = {name: set(repos) for name, repos in case["cache_view"].items()}
    if hasattr(policy, "speed_view"):
        policy.speed_view = dict(case["speeds"])
    jobs = _jobs(case["jobs"], "j")
    policy.on_upfront_jobs(jobs)
    snapshots = [_snapshot(policy, master)]
    joined = 0
    for step, op in enumerate(case["ops"]):
        if op[0] == "planned" and jobs:
            policy.on_job(jobs[op[1] % len(jobs)])
        elif op[0] == "dynamic":
            policy.on_job(_jobs([op[1]], f"d{step}-")[0])
        elif op[0] == "join":
            name = f"e{joined}"
            joined += 1
            master.worker_names.append(name)
            master.active_workers.append(name)
            policy.cache_view[name] = set()
            if hasattr(policy, "speed_view"):
                policy.speed_view[name] = op[1]
            policy.on_worker_joined(name)
        elif op[0] == "fail" and len(master.active_workers) > 1:
            name = master.active_workers.pop(op[1] % len(master.active_workers))
            policy.on_worker_failed(name, [])
        snapshots.append(_snapshot(policy, master))
    return policy, snapshots


def _snapshot(policy, master):
    state = {"plan": list(policy._plan.items()), "assigned": list(master.assigned)}
    if isinstance(policy, BARMasterPolicy):
        state["load"] = _load_bits(policy)
        state["adjustments"] = policy.adjustments
    else:
        state["counts"] = list(policy._planned_counts.items())
    return state


@given(planning_case(), st.one_of(st.none(), st.integers(0, 12)))
@settings(max_examples=150, deadline=None)
def test_bar_planner_matches_reference(case, max_adjustments):
    """Vectorised BAR == the per-object planner: same placements, same
    float bits in every load cell, same number of phase-2 moves, and the
    same arrival-time picks through late joins and failures."""
    _, fast = _drive(BARMasterPolicy, case, max_adjustments=max_adjustments)
    _, reference = _drive(ReferenceBAR, case, max_adjustments=max_adjustments)
    assert fast == reference


@given(planning_case(), st.integers(0, 3), st.booleans())
@settings(max_examples=150, deadline=None)
def test_spark_planner_matches_reference(case, wait_slots, use_locality):
    """Vectorised Spark == the per-object planner: same plan, same
    planned counts, and the same balanced dynamic picks through late
    joins and failures."""
    kwargs = {"locality_wait_slots": wait_slots, "use_locality": use_locality}
    _, fast = _drive(SparkMasterPolicy, case, **kwargs)
    _, reference = _drive(ReferenceSpark, case, **kwargs)
    assert fast == reference
