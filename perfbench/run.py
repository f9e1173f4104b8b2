#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

Everything the build and the run write stays under .bench_build/ in the
current directory (or under $CARGO_TARGET_DIR when it is set): the Go build
cache, the binary, the temporary result cache and span dumps. The script
replaces itself with the benchmark binary, so it leaves no process behind.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        HOME=build,
        TMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOTELEMETRY="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")

    commit = "unknown"
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                             env=dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(root)))
        if got.returncode == 0:
            commit = got.stdout.strip()
    except OSError:
        pass

    sys.stdout.flush()
    os.execve(binary, [binary, "--commit", commit, "--out", build] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
