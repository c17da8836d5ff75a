"""One workload process: build the seeded inputs, then run the timed calls.

Started by run.py, never by hand.  It prints ``READY`` once the inputs are
written (run.py times set-up up to that line), then, unless the mode is
``setup``, runs the workload's CLI calls in this one process and prints
``RESULT <json>`` as its last line.  The CLI's own printing goes to a log
file so that this protocol owns stdout.

Modes: ``setup`` stops after READY; ``timed`` runs untraced calls for the
given seconds; ``trace`` alternates untraced and traced calls and reports
the per-layer metrics; ``ref`` runs one call and keeps its outputs.
"""

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import calibcox  # noqa: E402
from calibcox import cli  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS, sha256  # noqa: E402

REFS = Path(__file__).resolve().parent / "refs" / "digests.json"


class Runner:
    def __init__(self, workload, workdir, use_refs=True):
        self.w = workload
        self.workdir = workdir
        refs = json.loads(REFS.read_text()) if use_refs else {}
        self.refs = refs.get(workload.name, {})
        self.refs_used = 0
        self.first = {}  # outputs of the first call on each input
        self.n = 0
        self.log = open(workdir / "cli.log", "w")

    def _compare(self, key, digests):
        """Outputs must repeat on the same input and match its reference."""
        problems = []
        if self.first.setdefault(key, digests) != digests:
            problems.append(f"outputs on input {key} differ from the first call on it")
        if key in self.refs:
            self.refs_used += 1
            if digests != self.refs[key]:
                problems.append(f"outputs on input {key} differ from the stored reference")
        return problems

    def call(self, i, threads=None, keep=False):
        """CLI call on input i, timed around cli.main only; checked after."""
        outdir = self.workdir / f"call{self.n}"
        self.n += 1
        argv = self.w.argv(i, outdir, threads)
        key = self.w.ref_key(i)
        problems = []
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.log):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed call
            rc = getattr(exc, "code", None) or 1
            traceback.print_exc()
        wall = time.perf_counter() - t0
        record = {"rc": rc, "wall": wall, "input": key, "ops_attempted":
                  self.w.ops_per_call, "ops_ok": 0, "fits_ok": 0, "failed_names": []}
        if rc != 0:
            problems.append(f"calibcox {argv[0]} exited with {rc}")
        else:
            try:
                outcome = self.w.check(outdir)
                digests = {f: sha256(outdir / f) for f in self.w.outputs}
            except (OSError, ValueError, IndexError) as exc:
                problems.append(f"outputs of {argv[0]} unreadable: {exc}")
            else:
                problems += outcome.problems + self._compare(key, digests)
                record.update(digests=digests, failed_names=outcome.failed_names)
                if not problems:
                    record.update(ops_ok=outcome.ops_ok, fits_ok=outcome.fits_ok)
        record["problems"] = problems
        if not keep:
            shutil.rmtree(outdir, ignore_errors=True)
        return record


def run_timed(runner, seconds):
    calls, t_start = [], time.perf_counter()
    while True:
        calls.append(runner.call(len(calls)))
        elapsed = time.perf_counter() - t_start
        if (len(calls) >= runner.w.min_calls
                and elapsed + elapsed / len(calls) > seconds):
            return calls


def run_trace(runner, seconds):
    """Untraced/traced pairs on the same input; per-layer metrics from the
    traced calls.

    On mc_cell each input also gets an untraced ``--threads 1`` call, run
    before or after the two-thread one in turn; ``speedup_2w`` is the median
    of the paired wall-time ratios, after a warm-up call that is not paired.
    The check that outputs repeat on the same input then requires the one-
    and two-thread calls to write the same replicates.csv and summary.csv."""
    threaded = runner.w.name == "mc_cell"
    calls, t_start = [], time.perf_counter()
    layer = {"simulate.run_cell.speedup_2w": 0.0,
             "model_select.candidates_failed": 0.0}
    if threaded:
        calls.append(runner.call(0))  # warm-up
    tr = tracer.Tracer()
    plain, traced, speedups = [], [], []
    while True:
        i = len(traced)
        if threaded:
            pair = {t: runner.call(i, threads=t)
                    for t in ((1, None) if i % 2 else (None, 1))}
            one, two = pair[1], pair[None]
            calls.append(one)
            plain.append(two)
            speedups.append(one["wall"] / two["wall"])
        else:
            plain.append(runner.call(i))
        uninstall = tracer.install(tr, calibcox)
        try:
            traced.append(runner.call(i))
        finally:
            uninstall()
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(traced) > seconds:
            break
    calls += plain + traced
    if threaded:
        layer["simulate.run_cell.speedup_2w"] = statistics.median(speedups)
    layer["trace.overhead_frac"] = (statistics.median(c["wall"] for c in traced)
                                    / statistics.median(c["wall"] for c in plain) - 1.0)
    selfs = tracer.self_times(tr.spans)
    layer["trace.coverage"] = tracer.command_coverage(
        tr.spans, selfs, sum(c["wall"] for c in traced),
        runner.w.threads if threaded else 1)
    layer["mem.fit_gee.irls_iters"] = tracer.iterations_per_call(
        tr.spans, "mem.fit_gee", "mem.estimate_psi")
    n = len(traced)
    if runner.w.name == "select_grid":
        layer["model_select.candidates_failed"] = (
            sum(len(c["failed_names"]) for c in traced) / n)
    spans_file = ROOT / ".perfbench_work" / f"spans-{runner.w.name}.json"
    spans_file.write_text(json.dumps([s.as_list() for s in tr.spans]))
    return calls, {"spans": tr.spans, "selfs": selfs, "n": n, "fixed": layer}


def layer_values(names, trace):
    out = {}
    for name in names:
        if name in trace["fixed"]:
            out[name] = trace["fixed"][name]
        else:
            prefix, stat = name.rsplit(".", 1)
            out[name] = tracer.span_metric(trace["spans"], trace["selfs"],
                                           trace["n"], prefix, stat)
    return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--mode", required=True, choices=("setup", "timed", "trace", "ref"))
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--layer-metrics", default="")
    args = p.parse_args()
    if not Path(calibcox.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"calibcox imported from {calibcox.__file__}, not from this checkout")

    workdir = Path(args.dir)
    workload = WORKLOADS[args.workload]()
    workload.build_inputs(workdir, args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return
    runner = Runner(workload, workdir, use_refs=args.mode != "ref")
    layer = {}
    if args.mode == "trace":
        calls, trace = run_trace(runner, args.seconds)
        layer = layer_values(args.layer_metrics.split(","), trace)
    elif args.mode == "timed":
        calls = run_timed(runner, args.seconds)
    else:
        calls = [runner.call(i, keep=True) for i in range(workload.inputs)]
    runner.log.close()
    result = {
        "calls": calls,
        "layer": layer,
        "fits_ok_per_s": workload.rate(calls) if args.mode == "timed" else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "references_used": runner.refs_used,
    }
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
