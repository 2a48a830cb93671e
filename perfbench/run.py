#!/usr/bin/env python3
"""Repo benchmark entry point: builds the driver from source, runs one workload.

    python3 perfbench/run.py --workload ps-pagerank --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The first call configures and builds
perfbench/ (every source under src/ plus perfbench/driver.cc, Release) into
.bench_build/; later calls only rebuild what changed. Build output goes to
stderr. The driver's stdout is passed through unchanged, so the last stdout
line is the result JSON: {"correct", "attempted", "failed", "metrics"}.

Extra flags --threads and --min-reps go straight to the driver (the
determinism test uses them); the benchmark itself never sets them.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "psg_perfbench"
# The driver must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no src/ directory under {ROOT}; run from a full checkout")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "psg_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_hash():
    """Hash of every file under src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def source_stamp():
    """Commit id when the checkout is a git repo, else a hash of the sources.

    Uncommitted changes under src/ or perfbench/ add "-dirty" and the
    hash, so a change measured before it is committed is told apart from
    its parent.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.split()
        # Only this checkout's own repository counts, not an enclosing one.
        if (out.returncode == 0 and len(lines) == 2
                and pathlib.Path(lines[0]).resolve() == ROOT):
            status = subprocess.run(
                ["git", "status", "--porcelain", "--", "src", "perfbench"],
                cwd=ROOT, capture_output=True, text=True)
            if status.returncode == 0 and status.stdout.strip():
                return f"{lines[1]}-dirty-{source_hash()}"
            return lines[1]
    except OSError:
        pass
    return source_hash()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # The driver rejects unknown workload names.
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--min-reps", type=int)
    args = parser.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    if args.min_reps is not None:
        cmd += ["--min-reps", str(args.min_reps)]
    env = dict(os.environ, PSG_BENCH_COMMIT=source_stamp())
    # Run inside the build tree so nothing the driver might write lands
    # in the checkout's source directories.
    proc = subprocess.Popen(cmd, cwd=BUILD_DIR, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"driver exited with code {code}")


if __name__ == "__main__":
    main()
