"""Span tracing of the calibcox layers, installed from outside the package.

``install`` replaces every public function of each layer module (and
``ValidationDataset.subject_groups``) with a wrapper that records a span:
name, start, end, parent span and whether it raised.  Because the package
calls across modules through module attributes (``coxph.score(...)``) and
within a module through its globals, the wrappers see every such call
without any change to the package source.  Spans stay in memory; the
benchmark writes them out once, at the end of the run.

Each thread keeps its own stack of open spans.  Work handed to the thread
pool in ``simulate`` is run under the span that submitted it, so replicate
spans on worker threads nest under ``simulate.run_cell``.
"""

import functools
import inspect
import itertools
import statistics
import threading
import time

LAYERS = ("cli", "data_model", "transforms", "linalg", "mem", "coxph",
          "inference", "model_select", "simulate")

MIB = 1024.0 * 1024.0


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "failed", "extra")

    def __init__(self, span_id, parent, name, t0, t1, failed, extra):
        self.id, self.parent, self.name = span_id, parent, name
        self.t0, self.t1, self.failed, self.extra = t0, t1, failed, extra

    def as_list(self):
        return [self.id, self.parent, self.name, self.t0, self.t1, self.failed]


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def run_under(self, parent, fn, *args, **kwargs):
        """Run ``fn`` on this thread as if called inside span ``parent``."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def wrap(self, name, fn, probe=None):
        """``fn`` recording a span; ``probe(bound_args, result)`` adds a value."""
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, name, t0, t1, True, None))
                raise
            t1 = time.perf_counter()
            stack.pop()
            extra = None
            if probe is not None:
                extra = probe(signature.bind(*args, **kwargs).arguments, result)
            self.spans.append(Span(span_id, parent, name, t0, t1, False, extra))
            return result

        return traced


def _tensor_mib(n, *dims):
    size = 8.0 * n
    for d in dims:
        size *= d
    return size / MIB


def _width(a):
    return 1 if a.ndim == 1 else a.shape[1]


# Values read at the boundary of a call: counts the per-layer metrics need
# and the sizes of the largest arrays the call allocates (computed from the
# input shapes, not measured).
PROBES = {
    "coxph.fit": lambda a, r: r[1].iterations,
    "coxph.information": lambda a, r: _tensor_mib(
        len(a["u"]), _width(a["u"]), _width(a["u"])),
    "inference.u_alpha_hat": lambda a, r: _tensor_mib(
        len(a["u"]), _width(a["u"]), a["phi"].shape[1]),
    "data_model.read_main_csv": lambda a, r: len(r),
}


def install(tracer, package):
    """Wrap the layer functions of ``package``; returns an undo callable."""
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            name = f"{layer}.{attr}"
            replace(module, attr, tracer.wrap(name, obj, PROBES.get(name)))

    dataset = package.data_model.ValidationDataset
    replace(dataset, "subject_groups",
            tracer.wrap("data_model.ValidationDataset.subject_groups",
                        dataset.subject_groups))

    if isinstance(getattr(package.simulate, "ThreadPoolExecutor", None), type):
        class PropagatingExecutor(package.simulate.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_under, tracer.current(),
                                      fn, *args, **kwargs)

        replace(package.simulate, "ThreadPoolExecutor", PropagatingExecutor)

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


def self_times(spans):
    """Span duration minus the part of its interval its children cover.

    Children on several threads may overlap each other, so the covered part
    is the length of the union of their intervals.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, end = 0.0, s.t0
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, end), min(b, s.t1)
            if b > a:
                covered += b - a
                end = b
        out[s.id] = (s.t1 - s.t0) - covered
    return out


def command_coverage(spans, selfs, wall, threads=1):
    """Share of the command's thread time that the layer spans account for.

    The numerator is the self time of the ``cli.cmd_*`` spans and of every
    span below them, so ``cli.main`` and the time around the command are
    not counted; the denominator is the calls' wall time times the threads
    the command runs on.  It falls below 1 by the time spent outside the
    command spans (argument parsing and dispatch in ``cli.main``) and by
    the time a worker thread waits for work.
    """
    by_id = {s.id: s for s in spans}
    inside = {}

    def under_command(span):
        chain = []
        while span is not None and span.id not in inside:
            if span.name.startswith("cli.cmd_"):
                inside[span.id] = True
                break
            chain.append(span.id)
            span = by_id.get(span.parent)
        found = span is not None and inside[span.id]
        for span_id in chain:
            inside[span_id] = found
        return found

    covered = sum(selfs[s.id] for s in spans if under_command(s))
    return covered / (wall * threads)


def iterations_per_call(spans, name, step):
    """``step`` spans per ``name`` span, over the ``name`` calls that returned."""
    ok = {s.id for s in spans if s.name == name and not s.failed}
    steps = sum(1 for s in spans if s.name == step and s.parent in ok)
    return steps / len(ok) if ok else 0.0


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def span_metric(spans, selfs, n_calls, prefix, stat):
    """One ``<prefix>.<stat>`` per-layer value from the traced calls.

    ``prefix`` selects spans named exactly so or nested under it by name
    (``cli`` selects every ``cli.*`` span).  Totals are per traced CLI call.
    """
    chosen = [s for s in spans
              if s.name == prefix or s.name.startswith(prefix + ".")]
    # Percentiles describe the calls that returned: a call that raised early
    # (a failed rank check) would otherwise pull them down.
    durations_ms = [1e3 * (s.t1 - s.t0) for s in chosen if not s.failed]
    if stat == "self_s":
        return sum(selfs[s.id] for s in chosen) / n_calls
    if stat == "calls":
        return len(chosen) / n_calls
    if stat == "failed":
        return sum(s.failed for s in chosen) / n_calls
    if stat == "ms_p50":
        return _quantile(durations_ms, 50)
    if stat == "ms_p90":
        return _quantile(durations_ms, 90)
    if stat == "newton_iters":
        iters = [s.extra for s in chosen if s.extra is not None]
        return sum(iters) / len(iters) if iters else 0.0
    if stat == "tensor_mb_computed":
        return max((s.extra for s in chosen if s.extra is not None), default=0.0)
    if stat == "rows_per_s":
        rows = sum(s.extra for s in chosen if s.extra is not None)
        busy = sum(s.t1 - s.t0 for s in chosen if not s.failed)
        return rows / busy if busy > 0 else 0.0
    raise KeyError(f"no per-layer statistic '{stat}'")
