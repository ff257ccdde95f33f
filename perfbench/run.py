#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload serve-stream --seed 1 --seconds 25 --trace 0

Every build and run artifact stays under .bench_build/ in the working
directory: the Go build cache, a private module cache, temporary files and
the benchmark binary. The benchmark's arguments pass through unchanged, and
its last stdout line is the result object. Outside a full checkout (no
repository next to perfbench/) the build fails and this exits 1 without a
result.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850  # a cold build compiles the standard library too
RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "TMPDIR": os.path.join(build, "tmp"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed:\n" + built.stdout, file=sys.stderr)
        return 1

    args = [binary, "--data", os.path.relpath(here, root)] + sys.argv[1:]
    # A session of its own lets a timeout or a signal to this wrapper stop the
    # benchmark's children too.
    proc = subprocess.Popen(args, cwd=root, env=env, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # already exited
        proc.wait()
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s, stopped", file=sys.stderr)
        stop()


if __name__ == "__main__":
    sys.exit(main())
