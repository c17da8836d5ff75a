"""calibcox benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload mc_cell --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workloads, metrics and bounds are in
BENCHMARK.json; why each workload exists and which end-to-end metric each
per-layer metric moves are in perfbench/layer_map.json.

Set-up is timed several times, each in a fresh process (interpreter start,
imports, and writing the seeded inputs); the last of those processes then
runs the workload, so one process holds one RSS high-water mark.  With
``--trace 0`` it runs untraced calls and reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced calls and reports the
per-layer metrics.  Every call's outputs are checked, and compared byte for
byte with the stored reference when the seed has one.  A line of machine
facts precedes the result line.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3          # set-up runs per benchmark run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, including set-up


def machine_facts():
    """Read from this process, /proc and /sys, plus the checkout's git state."""
    facts = {"nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                facts["mem_total_kb"] = int(line.split()[1])
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        # The ceiling keeps git from searching above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10)
        facts["git_describe"] = (described.stdout.strip()
                                 if described.returncode == 0 else "n/a")
    except (OSError, subprocess.SubprocessError):
        facts["git_describe"] = "n/a"
    return facts


def worker_env():
    # BLAS runs on one thread: the only parallelism is what the CLI asks for
    # (--threads 2 on mc_cell), and outputs match the stored references.
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1")


def start_worker(args, deadline):
    """Start worker.py; return (process, set-up seconds up to its READY line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + args,
                            cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup_s


def finish(proc, deadline):
    """Wait for the worker; return its RESULT payload (None if it had none)."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline")
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1][len("RESULT "):])


def run_workload(name, seed, seconds, mode, workdir, layer_names=()):
    """Set up SETUPS times, run the workload in the last process."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        d = workdir / f"setup{i}"
        d.mkdir(parents=True)
        args = ["--workload", name, "--seed", str(seed), "--dir", str(d),
                "--mode", mode if last else "setup", "--seconds", str(seconds)]
        if layer_names:
            args += ["--layer-metrics", ",".join(layer_names)]
        proc, setup_s = start_worker(args, deadline)
        setups.append(setup_s)
        result = finish(proc, deadline)
        if not last:
            shutil.rmtree(d)
    if result is None:
        raise RuntimeError("worker exited without a result")
    result["setup_s"] = statistics.median(setups)
    return result


def end_to_end(result):
    calls = result["calls"]
    attempted = sum(c["ops_attempted"] for c in calls) or 1
    return {
        "setup_s": result["setup_s"],
        "fits_ok_per_s": result["fits_ok_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": sum(c["ops_ok"] for c in calls) / attempted,
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "calibcox" / "cli.py").is_file():
        sys.exit(f"no calibcox source under {ROOT / 'src'}; run from a checkout")

    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              "trace" if args.trace else "timed", workdir,
                              [m["name"] for m in spec["per_layer"]] if args.trace else ())
    except RuntimeError as exc:
        sys.exit(f"benchmark failed: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = result["layer"] if args.trace else end_to_end(result)
    calls = result["calls"]
    failed_calls = [c for c in calls if c["rc"] != 0 or c["problems"]]
    for c in failed_calls:
        for problem in c["problems"]:
            print(f"check failed: {problem}")
    ops = sum(c["ops_attempted"] for c in calls)
    failed_ops = ops - sum(c["ops_ok"] for c in calls)
    names_failed = sorted({n for c in calls for n in c["failed_names"]})
    print(f"{args.workload} seed={args.seed}: {len(calls)} calls, "
          f"failed_frac={failed_ops / max(ops, 1):.4f} ({failed_ops}/{ops} operations)"
          + (f", failed: {' '.join(names_failed)}" if names_failed else "")
          + f", {result['references_used']} calls compared with stored references")
    facts = machine_facts()
    facts["numpy"] = result["numpy"]
    print("machine " + json.dumps(facts))
    print(json.dumps({
        "correct": not failed_calls,
        "attempted": len(calls),
        "failed": len(failed_calls),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_spec},
    }))


if __name__ == "__main__":
    main()
