#!/usr/bin/env python3
"""Build and run the whole-job SCF benchmark.

    python3 perfbench/run.py --workload scf-dclass --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds a
Release tree of the libraries under src/ plus the benchmark program in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the program's JSON result. Exits non-zero without a result when
the library sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build_root, "perfbench")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--parallel", "4",
                  "--target", "scf_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "scf_bench")] + sys.argv[1:],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
