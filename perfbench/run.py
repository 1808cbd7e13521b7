#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The benchmark binary prints one JSON object as the last line of its
standard output (see NOTES.md). `--self-test` runs every workload briefly
in both modes and checks that each metric BENCHMARK.json names is emitted
with its unit and that the correctness gate passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build():
    """Builds the release binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    result = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def self_test(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in spec["workloads"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            run = subprocess.run(
                [exe, "--workload", workload["name"], "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--short"],
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
            )
            problems = []
            if run.returncode != 0:
                problems.append(f"exit code {run.returncode}")
            else:
                result = json.loads(run.stdout.strip().splitlines()[-1])
                if not result["correct"] or result["failed"] != 0:
                    problems.append("correctness gate failed")
                for metric in spec[group]:
                    got = result["metrics"].get(metric["name"])
                    if got is None or got.get("unit") != metric["unit"]:
                        problems.append(f"metric {metric['name']} missing or has the wrong unit")
                extra = set(result["metrics"]) - {m["name"] for m in spec[group]}
                if extra:
                    problems.append(f"unlisted metrics {sorted(extra)}")
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"{workload['name']} --trace {trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--self-test"]:
        return self_test(exe)
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
