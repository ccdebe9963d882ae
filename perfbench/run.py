#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload sim --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark (see perfbench/README.md). The
build, Go caches, result records and traces all stay under .bench_build/ in
the repository root. The last line of standard output is the benchmark's
JSON result; build or set-up failures exit non-zero without one.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, cwd, env, timeout, stdout=None):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    out = os.path.join(build, "perfbench")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        # Go keeps its config and telemetry under the user config dir.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
    })
    binary = os.path.join(out, "perfbench")
    # The build's own output goes to stderr: stdout ends with the result.
    code = run(["go", "build", "-o", binary, "."], src, env, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed (exit {code})", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run([binary, "--out", out] + sys.argv[1:], root, env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
