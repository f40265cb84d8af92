"""Measurement taps installed from outside the program.

Nothing here edits ``src/``.  Every tap wraps a public entry point at
class level for the duration of a ``with`` block and restores the
original on exit:

* :class:`Taps` -- what every run needs: the runtimes a case built
  (with the kernel's heap-push count when each run started), the
  broker subscriptions and worker caches they opened (including those
  of crashed and retired nodes), and per-job sojourn latencies
  (submission to completion for closed-loop runs, arrival to completion
  for service runs).  One wrapper call per run, subscription or job.
* :class:`CallCounter` -- the traced run only: exact call counts of
  ``Process._resume`` (the kernel's generator resumes) and of every
  public function of :mod:`repro.fleet`.
* :class:`LayerSampler` -- the traced run only: a CPU-time sampling
  profiler that charges each sample to the innermost ``repro.<layer>``
  frame on the stack, so a layer's self time includes the library code
  (numpy, heapq, stdlib) it calls directly.
"""

from __future__ import annotations

import inspect
import os
import re
import signal
import time
from collections import Counter

#: Layers reported by the traced run, in output order.  Each is a
#: ``repro.<subpackage>``; ``other`` collects top-level ``repro``
#: modules, subpackages not listed here and code outside ``repro``
#: (the benchmark's own loop).
LAYERS = (
    "sim",
    "net",
    "data",
    "cluster",
    "workload",
    "engine",
    "schedulers",
    "core",
    "fleet",
    "faults",
    "serve",
    "metrics",
    "check",
    "obs",
    "experiments",
    "other",
)


def heap_pushes(sim) -> int:
    """Heap entries the kernel has scheduled so far, or -1 if unreadable.

    The kernel numbers its heap entries with a private ``itertools.count``
    (``Simulator._seq``) and has no public counter, so this reads the
    count's repr, ``count(N)``.  Callers check that a run advances it, so
    a kernel that numbers its entries differently fails the check instead
    of reporting a wrong count.
    """
    match = re.fullmatch(r"count\((\d+)\)", repr(getattr(sim, "_seq", None)))
    return int(match[1]) if match else -1


class _Patches:
    """Class-attribute replacements undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, name: str, make) -> None:
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Taps:
    """Per-case collection of runtimes, subscriptions and latencies.

    ``latency`` selects the latency tap: ``"collector"`` (closed loop)
    or ``"slo"`` (service, arrival to completion including admission
    wait).  :meth:`drain` hands back and clears what one case produced.
    Each closed-loop runtime comes as ``(runtime, pushes_before)``, where
    ``pushes_before`` is :func:`heap_pushes` when its run started.
    """

    def __init__(self, latency: str) -> None:
        if latency not in ("collector", "slo"):
            raise ValueError(f"unknown latency tap {latency!r}")
        self.latency = latency
        self.runtimes: list = []
        self.subscriptions: list = []
        self.caches: list = []
        self.latencies: list[float] = []
        self._open: dict[tuple[int, str], float] = {}
        self._patches = _Patches()

    def __enter__(self) -> "Taps":
        from repro.data.cache import WorkerCache
        from repro.engine.runtime import WorkflowRuntime
        from repro.metrics.collector import MetricsCollector
        from repro.net.broker import Broker
        from repro.serve.slo import SLOTracker

        runtimes = self.runtimes
        subscriptions = self.subscriptions
        caches = self.caches
        opened = self._open
        latencies = self.latencies

        def run(original):
            def wrapper(runtime):
                before = heap_pushes(runtime.sim)
                result = original(runtime)
                runtimes.append((runtime, before))
                return result

            return wrapper

        def subscribe(original):
            def wrapper(broker, *args, **kwargs):
                subscription = original(broker, *args, **kwargs)
                subscriptions.append(subscription)
                return subscription

            return wrapper

        def created(original):
            def wrapper(cache):
                original(cache)
                caches.append(cache)

            return wrapper

        def start(original):
            def wrapper(owner, now, job, *args):
                opened[(id(owner), job.job_id)] = now
                return original(owner, now, job, *args)

            return wrapper

        def finish(original):
            def wrapper(owner, now, job, *args):
                began = opened.pop((id(owner), job.job_id), None)
                if began is not None:
                    latencies.append(now - began)
                return original(owner, now, job, *args)

            return wrapper

        self._patches.wrap(WorkflowRuntime, "run", run)
        self._patches.wrap(Broker, "subscribe", subscribe)
        self._patches.wrap(WorkerCache, "__post_init__", created)
        if self.latency == "collector":
            self._patches.wrap(MetricsCollector, "job_submitted", start)
            self._patches.wrap(MetricsCollector, "job_completed", finish)
        else:
            self._patches.wrap(SLOTracker, "job_arrived", start)
            self._patches.wrap(SLOTracker, "job_completed", finish)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def drain(self) -> tuple[list, list, list, list[float]]:
        """What the finished case left behind; resets the collections.

        Returns ``(runtimes, subscriptions, caches, latencies)``.
        """
        collected = (self.runtimes, self.subscriptions, self.caches, self.latencies)
        out = tuple(list(items) for items in collected)
        for items in collected:
            items.clear()
        self._open.clear()
        return out


class CallCounter:
    """Exact call counts for generator resumes and fleet entry points."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._patches = _Patches()

    def _counting(self, key: str):
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            return wrapper

        return make

    def __enter__(self) -> "CallCounter":
        import repro.fleet.soa as soa
        from repro.sim.process import Process

        self._patches.wrap(Process, "_resume", self._counting("sim.resumes"))
        for name, value in list(vars(soa).items()):
            if name.startswith("_"):
                continue
            if inspect.isclass(value) and value.__module__ == soa.__name__:
                for attr, member in list(vars(value).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        self._patches.wrap(value, attr, self._counting("fleet.calls"))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


class LayerSampler:
    """SIGPROF sampler attributing CPU time to ``repro`` subpackages."""

    def __init__(self, interval_s: float = 0.001) -> None:
        import repro

        self.interval_s = interval_s
        self.samples: Counter = Counter()
        self._root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        self._own = os.path.dirname(os.path.abspath(__file__)) + os.sep
        self._layer_of: dict = {}
        self._previous = None
        self.cpu_s = 0.0
        self._started = 0.0

    def _layer(self, code) -> object:
        """The layer of a code object, or ``None`` outside ``repro``.

        The benchmark's own code (its loop and the counting wrappers) is
        ``other``, so tracing overhead does not inflate a layer.
        """
        filename = code.co_filename
        if filename.startswith(self._own):
            return "other"
        if not filename.startswith(self._root):
            return None
        head = filename[len(self._root):].split(os.sep, 1)
        if len(head) == 1:  # a top-level module such as repro/config.py
            return "other"
        return head[0] if head[0] in LAYERS else "other"

    def _tick(self, signum, frame) -> None:
        layer_of = self._layer_of
        while frame is not None:
            code = frame.f_code
            layer = layer_of.get(code, False)
            if layer is False:
                layer = layer_of[code] = self._layer(code)
            if layer is not None:
                self.samples[layer] += 1
                return
            frame = frame.f_back
        self.samples["other"] += 1

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        self._started = time.thread_time()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self.cpu_s = time.thread_time() - self._started
        signal.signal(signal.SIGPROF, self._previous)

    def shares(self) -> dict[str, float]:
        """Fraction of samples per layer (every layer present, maybe 0)."""
        total = sum(self.samples.values())
        return {
            layer: (self.samples[layer] / total if total else 0.0) for layer in LAYERS
        }
