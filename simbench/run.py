#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds simbench/simbench.exe with
dune, then runs it with the same arguments plus provenance (git sha when
the tree is a git checkout, and a digest of the sources either way).
The benchmark's standard output passes through unchanged; its last line
is the JSON result.  Exits non-zero, printing no result, when the tree
cannot be built or the run fails or overruns.
"""

import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "simbench", "simbench.exe")


def fail(msg, code=2):
    print("simbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over every dune and OCaml source file, in path order."""
    h = hashlib.sha256()
    paths = []
    for top in ("lib", "simbench"):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith("_"))
            for f in files:
                if f == "dune" or f.endswith((".ml", ".mli")):
                    paths.append(os.path.join(root, f))
    for p in sorted(paths):
        h.update(p.encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of the source tree (no dune-project or lib/)")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "-j", "2",
             "./simbench/simbench.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed", build.returncode)
    cmd = [EXE] + sys.argv[1:] + [
        "--git-sha", git_sha(), "--src-digest", source_digest()]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
