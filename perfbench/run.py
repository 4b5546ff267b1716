#!/usr/bin/env python3
"""Build and run the ElephantSim benchmark. Run from the repository root.

One run of one workload (the last line printed is the JSON result):

    python3 perfbench/run.py --workload hybrid_web --seed 1 --seconds 20 --trace 0

Steadiness: two passes, each running every workload of BENCHMARK.json
once per seed 1-10 for its run_seconds, workloads interleaved; then each
end-to-end metric's median, quartiles and spread per pass, and the change
of its median from the first pass to the second, beside its bound:

    python3 perfbench/run.py steady

Both build the benchmark first, with an optimized build type, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return "git " + sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256 " + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("run from the repository root: src/CMakeLists.txt not found")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "esim_perfbench"


def run_once(binary, args):
    print("source:", source_id(), flush=True)
    return subprocess.run([str(binary), *args]).returncode


def run_for_result(binary, workload, seed, seconds):
    out = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or not lines or lines[-1][:1] != "{":
        sys.stderr.write(out.stderr)
        fail(f"{workload} seed {seed} exited {out.returncode}")
    return json.loads(lines[-1])


STEADY_SEEDS = range(1, 11)
STEADY_PASSES = 2


def steady(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    print("source:", source_id(), flush=True)
    results = {(w, p): [] for w in workloads for p in range(STEADY_PASSES)}
    for p in range(STEADY_PASSES):
        for seed in STEADY_SEEDS:
            for w in workloads:
                results[w, p].append(
                    run_for_result(binary, w, seed, spec["run_seconds"]))
    print(f"{'workload':<16} {'metric':<12} {'pass':>4} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for p in range(STEADY_PASSES):
                values = [r["metrics"][name]["value"] for r in results[w, p]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                spread = (q3 - q1) / med
                verdict = ("steady" if spread < bound / 3 else
                           "within bound" if spread <= bound else "TOO WIDE")
                print(f"{w:<16} {name:<12} {p + 1:>4} {med:>11.5g} "
                      f"{q1:>11.5g} {q3:>11.5g} {spread:>7.3f} "
                      f"{bound:>6.2f}  {verdict}")
                print(" " * 17 + "by seed: " +
                      " ".join(f"{v:.4g}" for v in values))
            change = (medians[-1] - medians[0]) / medians[0]
            print(f"{w:<16} {name:<12} median pass 1 -> {STEADY_PASSES}: "
                  f"{change:+.3f} against bound {bound:.2f}  "
                  f"{'agrees' if abs(change) <= bound else 'DISAGREES'}")
        for p in range(STEADY_PASSES):
            shares = {r["failed"] / r["attempted"] for r in results[w, p]}
            incorrect = sum(not r["correct"] for r in results[w, p])
            print(f"{w:<16} pass {p + 1}: failed shares {sorted(shares)}, "
                  f"{incorrect} incorrect runs")
    sys.stdout.flush()


def main():
    binary = build()
    if sys.argv[1:] == ["steady"]:
        steady(binary)
        return 0
    return run_once(binary, sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
