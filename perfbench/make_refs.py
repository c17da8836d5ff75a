"""Regenerate the stored reference outputs in perfbench/refs.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs every input of the named workloads (default: all) once, for the seeds
in workloads.py,
and records the SHA-256 of each output file in refs/digests.json; the
output files themselves are kept for the workload seed and the held-out
seed.  References record the program's outputs at the commit that made
them: regenerate only when a change is meant to alter outputs, and say so.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import HERE, ROOT, worker_env

sys.path.insert(0, str(ROOT / "src"))
from workloads import FULL_SEEDS, REF_SEEDS, WORKLOADS  # noqa: E402


def one(name, seed):
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", name,
             "--seed", str(seed), "--dir", tmp, "--mode", "ref"],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1][len("RESULT "):])
        digests = {}
        for n, call in enumerate(result["calls"]):
            if call["problems"]:
                raise RuntimeError(f"{name} seed {seed}: {call['problems']}")
            digests[call["input"]] = call["digests"]
            if seed in FULL_SEEDS:
                keep = HERE / "refs" / name / call["input"]
                keep.mkdir(parents=True, exist_ok=True)
                for f in call["digests"]:
                    shutil.copy(Path(tmp) / f"call{n}" / f, keep / f)
    print(f"{name} seed {seed}: {len(digests)} inputs", flush=True)
    return name, digests


def main():
    names = sys.argv[1:] or list(WORKLOADS)
    digests_file = HERE / "refs" / "digests.json"
    refs = json.loads(digests_file.read_text()) if digests_file.exists() else {}
    for name in names:
        refs[name] = {}
        shutil.rmtree(HERE / "refs" / name, ignore_errors=True)
    jobs = [(name, seed) for name in names for seed in REF_SEEDS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for name, digests in pool.map(lambda job: one(*job), jobs):
            refs[name].update(digests)
    digests_file.write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
