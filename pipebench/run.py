#!/usr/bin/env python3
"""Build the acdse pipeline benchmark from source and run one workload.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pipebench/run.py --selftest

Run from the root of a checkout. The library and the benchmark build with
CMake (Release) into a directory of $CARGO_TARGET_DIR (default
.bench_build) keyed by the checkout's path; the first run builds, later
runs only re-check the build. What a workload reads but does not time (the
campaign cache) is built first by an untimed process of its own, in a work
directory keyed by a hash of the sources it was simulated from, so two
checkouts or two commits never share it. The benchmark's last line of
standard output is one JSON object; before printing it, this script checks
that it names exactly the metrics BENCHMARK.json lists for the run's mode
(end_to_end untraced, per_layer traced) with their units. Build output
goes to standard error. See pipebench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Prepare and run together stay inside the 180 s a run may take.
DEADLINE_S = 170


def fail(message):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(1)


def sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


def build_dir():
    """This checkout's build directory under $CARGO_TARGET_DIR."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = target if target.is_absolute() else ROOT / target
    return target / f"pipebench-{sha(str(ROOT).encode())}"


def source_hash():
    """Hash of every file the benchmark binary is built from."""
    h = hashlib.sha256()
    files = [BENCH_DIR / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR / "src"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def work_dir(out):
    """The work directory of these sources; stale ones are removed."""
    work = out / f"work-{source_hash()}"
    for old in out.glob("work-*"):
        if old != work:
            shutil.rmtree(old, ignore_errors=True)
    return work


def configured_here(out):
    """Whether @p out holds a CMake configuration of this checkout."""
    cache = out / "CMakeCache.txt"
    if not cache.exists():
        return False
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1]).resolve() == BENCH_DIR
    return False


def build(out):
    """Configure (again, if the tree was configured elsewhere), then build."""
    if not configured_here(out):
        shutil.rmtree(out, ignore_errors=True)
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", str(out), "--target", "acdse_pipebench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "acdse_pipebench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")


def run(args, deadline, **kwargs):
    """Run @p args from the checkout's root, killed at @p deadline."""
    try:
        return subprocess.run(args, cwd=ROOT, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"{Path(args[0]).name} {args[1]} ran past the deadline")


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    opts = parser.parse_args(argv)
    if not opts.selftest and None in (opts.workload, opts.seed,
                                      opts.seconds, opts.trace):
        parser.error("--workload, --seed, --seconds and --trace are needed")

    out = build_dir()
    binary = build(out)
    deadline = time.monotonic() + DEADLINE_S
    if opts.selftest:
        return run([str(binary), "--selftest"], deadline).returncode

    work = str(work_dir(out))
    prepare = run([str(binary), "--prepare", "--workload", opts.workload,
                   "--work-dir", work], deadline, stdout=sys.stderr)
    if prepare.returncode != 0:
        fail(f"prepare exited with {prepare.returncode}")
    measured = run([str(binary), "--workload", opts.workload,
                    "--seed", opts.seed, "--seconds", opts.seconds,
                    "--trace", opts.trace, "--work-dir", work],
                   deadline, stdout=subprocess.PIPE)
    lines = measured.stdout.splitlines()
    if measured.returncode != 0 or not lines:
        sys.stdout.write(measured.stdout)
        fail(f"benchmark exited with {measured.returncode}")
    validate(lines[-1], opts.trace == "1")
    sys.stdout.write(measured.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
