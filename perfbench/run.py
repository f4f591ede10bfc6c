#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload route-serial --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from source first. All build
output (binary, Go build cache, temporary files, traced-run spans) goes
under the directory named by CARGO_TARGET_DIR, default `.bench_build` in
the checkout. Every argument is passed through to the program; a traced
run (--trace 1) also writes its spans to
<build dir>/spans/<workload>-seed<seed>.jsonl. The program's stdout is
passed through unchanged: JSON rows, the last of which is the result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def arg(argv, name, default):
    for i, a in enumerate(argv):
        if a == name and i + 1 < len(argv):
            return argv[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return default


def main(argv):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # Keep the go command's cache, module path, config and telemetry
    # inside the build directory.
    env.update(
        GOCACHE=os.path.join(build_dir, "go-cache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
    )
    binary = os.path.join(build_dir, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    args = list(argv)
    if arg(args, "--trace", "0") == "1" and arg(args, "--spans-out", None) is None:
        name = "%s-seed%s.jsonl" % (arg(args, "--workload", "none"), arg(args, "--seed", "1"))
        args += ["--spans-out", os.path.join(build_dir, "spans", name)]
    # The program runs in the foreground and this script waits for it, so
    # no process outlives the run.
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
