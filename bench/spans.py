"""Per-name span aggregation for the traced benchmark run.

The benchmark never edits the program.  It replaces module-level functions
that the harness and the controller look up by name at call time (for example
``ancsim.harness.forward_pass``) with wrappers that time each call and fold it
into one :class:`SpanStat` per span name.  Only counts and sums are kept, so
memory stays flat however long the run; ``harness.run`` alone also keeps one
duration per closed-loop run, for its median.

Self time is a span's duration minus the time of the spans opened inside it.
``total`` counts only the outermost span of a name, so a re-entrant span (a
scratch evaluation nested in another) is never counted twice.

Pool workers are forked from the workload process and inherit the patched
functions.  :func:`pooled_worker` replaces ``ancsim.harness._worker``; after
each run it writes the worker's aggregates and its peak resident memory to a
file, and :meth:`Tracer.collect_workers` merges those files in the parent.
The wrapper is installed in untraced runs too (with no spans), since the
workers' peak memory is an end-to-end metric.
"""

import json
import os
import resource
import time

__all__ = ["SpanStat", "Tracer", "pooled_worker"]


class SpanStat:
    __slots__ = ("count", "total", "self_time", "samples")

    def __init__(self, keep_samples: bool = False):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.samples = [] if keep_samples else None

    def merge(self, count, total, self_time, samples):
        self.count += count
        self.total += total
        self.self_time += self_time
        if self.samples is not None and samples:
            self.samples.extend(samples)

    def as_list(self):
        return [self.count, self.total, self.self_time, self.samples]


class Tracer:
    """Span aggregates plus the patches that feed them."""

    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.stats = {}
        self.gauges = {}
        self.marks = {}            # first start time of each span name since last clear
        self._stack = []           # one [child_seconds] cell per open span
        self._depth = {}
        self._patches = []

    # -- wrapping --------------------------------------------------------

    def _timed(self, name, fn, keep_samples):
        stat = self.stats.setdefault(name, SpanStat(keep_samples))
        stack, depth, marks = self._stack, self._depth, self.marks
        depth.setdefault(name, 0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            depth[name] += 1
            t0 = clock()
            if name not in marks:
                marks[name] = t0
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                stat.count += 1
                stat.self_time += dt - child[0]
                if depth[name] == 0:
                    stat.total += dt
                if stat.samples is not None:
                    stat.samples.append(dt)
                if stack:
                    stack[-1][0] += dt
        return traced

    def patch(self, owner, attr: str, name: str, keep_samples: bool = False):
        """Time every call of ``owner.attr`` under span ``name``."""
        self._replace(owner, attr, self._timed(name, getattr(owner, attr), keep_samples))

    def patch_width(self, owner, attr: str, name: str):
        """Record the largest gradient length of the jets ``owner.attr`` returns."""
        fn = getattr(owner, attr)
        gauges = self.gauges

        def measured(*args, **kwargs):
            jet = fn(*args, **kwargs)
            width = jet.grad.shape[-1]
            if width > gauges.get(name, 0):
                gauges[name] = width
            return jet
        self._replace(owner, attr, measured)

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def checkpoint(self) -> int:
        return len(self._patches)

    def restore(self, checkpoint: int = 0):
        """Undo the patches made since ``checkpoint``, newest first."""
        while len(self._patches) > checkpoint:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- pool workers ----------------------------------------------------

    def _reset_in_worker(self):
        # a forked worker inherits the parent's aggregates; start from zero
        self.pid = os.getpid()
        for stat in self.stats.values():
            stat.count, stat.total, stat.self_time = 0, 0.0, 0.0
            if stat.samples is not None:
                stat.samples.clear()
        self.gauges.clear()
        self._stack.clear()
        for name in self._depth:
            self._depth[name] = 0

    def _dump_worker(self):
        state = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 "stats": {k: v.as_list() for k, v in self.stats.items()},
                 "gauges": self.gauges}
        path = os.path.join(self.worker_dir, f"worker_{self.pid}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        os.replace(path + ".tmp", path)

    def collect_workers(self):
        """Merge and delete the files of finished workers; returns their peak RSS (KB)."""
        rss = []
        for fname in sorted(os.listdir(self.worker_dir)):
            if not (fname.startswith("worker_") and fname.endswith(".json")):
                continue
            path = os.path.join(self.worker_dir, fname)
            with open(path, encoding="utf-8") as fh:
                state = json.load(fh)
            os.remove(path)
            rss.append(state["maxrss_kb"])
            for name, row in state["stats"].items():
                self.stats.setdefault(name, SpanStat(row[3] is not None)).merge(*row)
            for name, width in state["gauges"].items():
                self.gauges[name] = max(self.gauges.get(name, 0), width)
        return rss


# Pool workers resolve the function they run by module and name, so the
# active tracer and the wrapped harness worker live at module level.
_ACTIVE = None
_HARNESS_WORKER = None


def install_worker_hook(tracer: Tracer, harness):
    """Route the harness's pooled runs through :func:`pooled_worker`."""
    global _ACTIVE, _HARNESS_WORKER
    _ACTIVE, _HARNESS_WORKER = tracer, harness._worker
    tracer._replace(harness, "_worker", pooled_worker)


def pooled_worker(idx):
    if _ACTIVE.pid != os.getpid():
        _ACTIVE._reset_in_worker()
    result = _HARNESS_WORKER(idx)
    _ACTIVE._dump_worker()
    return result
