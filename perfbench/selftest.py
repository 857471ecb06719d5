#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about 20 s).

    python3 perfbench/selftest.py

Run it from the repository root.  For every workload it checks that a
run prints the result format (correct, attempted, failed, metrics),
that every metric BENCHMARK.json names is present with its unit, that
the digest of the simulated outputs is the same for one seed in both
modes and differs between two seeds, and that a usage error exits with
code 2 and prints no result.  Exits non-zero on the first failure.
"""

import json
import math
import subprocess
import sys


def run(*args):
    proc = subprocess.run(
        ["python3", "perfbench/run.py", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout.splitlines()


def bench(workload, seed, trace):
    code, lines = run(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    where = f"{workload} seed {seed} trace {trace}"
    assert code == 0, f"{where}: exit {code}\n" + "\n".join(lines)
    assert all(l.startswith("# ") for l in lines[:-1]), f"{where}: stray output"
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], where
    assert result["correct"] is True and result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    digest = [l.split()[2] for l in lines if l.startswith("# digest ")]
    assert len(digest) == 1, f"{where}: no digest"
    return result["metrics"], digest[0]


def check_metrics(metrics, table, where):
    assert sorted(metrics) == sorted(m["name"] for m in table), f"{where}: metric names"
    for m in table:
        got = metrics[m["name"]]
        assert sorted(got) == ["unit", "value"], f"{where}: {m['name']}"
        assert got["unit"] == m["unit"], f"{where}: unit of {m['name']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def main():
    spec = json.load(open("BENCHMARK.json"))
    for w in spec["workloads"]:
        name = w["name"]
        e2e, d1 = bench(name, 1, 0)
        check_metrics(e2e, spec["end_to_end"], f"{name} end-to-end")
        for m in spec["end_to_end"]:
            assert e2e[m["name"]]["value"] > 0, f"{name}: {m['name']} is 0"
        layers, d1_traced = bench(name, 1, 1)
        check_metrics(layers, spec["per_layer"], f"{name} per-layer")
        _, d2 = bench(name, 2, 0)
        assert d1 == d1_traced, f"{name}: digest differs between runs of seed 1"
        assert d1 != d2, f"{name}: seeds 1 and 2 give the same digest"
        print(f"ok {name} digest {d1}")
    code, lines = run("--workload", "web-pace", "--seed", "x")
    assert code == 2 and not any(l.startswith("{") for l in lines), "usage error"
    print("ok usage error")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
