#!/usr/bin/env python3
"""Build and run the host-time benchmark.

    python3 hostbench/run.py --workload variants-1800 --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. Configures and builds hostbench/ (which
compiles ../src) into $CARGO_TARGET_DIR/hostbench, default
.bench_build/hostbench, then runs the binary with the given arguments. The
binary owns the command line (it rejects unknown flags and workloads with
exit 2) and prints the result as the last line of standard output. Build
output goes to standard error; per-run records and Chrome traces go to
<build>/out/.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """Content hash of the sources the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "hostbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt"):
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:12]


def revision(root):
    rev = "no-git"
    if (root / ".git").exists():
        got = subprocess.run(["git", "-C", str(root), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            rev = got.stdout.strip()
    return f"{rev}+src.{source_digest(root)}"


def build(root, build_dir):
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={root / 'hostbench'}" not in cache.read_text():
        shutil.rmtree(build_dir)  # configured from another source tree
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(root / "hostbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "hostbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {root / 'src'}; run from a full source tree")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "hostbench"
    build(root, build_dir)
    out_dir = build_dir / "out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(build_dir / "hostbench"), *sys.argv[1:],
           "--revision", revision(root), "--out-dir", str(out_dir)]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
