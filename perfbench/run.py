#!/usr/bin/env python3
"""Build and run the BranchNet layer-by-layer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a cargo package of its own (perfbench/Cargo.toml) with
path dependencies on crates/*. A nested workspace would build with its
own profile, so this script reads the root manifest's [profile.release]
table and hands every setting to cargo, and the program is measured as
the root workspace builds it. Build output goes to $CARGO_TARGET_DIR, or
.bench_build when unset. The benchmark's last line of standard output is
its JSON result; its exit code is passed through.
"""

import os
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path.cwd()
MANIFEST = Path("perfbench") / "Cargo.toml"
BINARY = "branchnet-perfbench"


def toml_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise ValueError(f"unsupported [profile.release] value {value!r}")


def profile_overrides(table, prefix="profile.release"):
    """`--config key=value` pairs for every leaf of a profile table."""
    for key, value in table.items():
        path = f"{prefix}.{key}"
        if isinstance(value, dict):
            yield from profile_overrides(value, path)
        else:
            yield f"{path}={toml_value(value)}"


def main():
    root_manifest = ROOT / "Cargo.toml"
    if not (ROOT / MANIFEST).is_file() or not root_manifest.is_file():
        sys.exit("perfbench: run from the repository root (Cargo.toml and perfbench/ needed)")
    with open(root_manifest, "rb") as f:
        release = tomllib.load(f).get("profile", {}).get("release", {})
    target_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir), BRANCHNET_THREADS="1")
    build = ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", str(MANIFEST)]
    for override in profile_overrides(release):
        build += ["--config", override]
    if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    bench = subprocess.run([str(target_dir / "release" / BINARY), *sys.argv[1:]], env=env)
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
