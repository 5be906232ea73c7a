#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny corpus sizes.

    python3 perfbench/smoke.py

Run from the root of a speccor checkout. It checks that:
- every workload, traced and untraced, emits exactly the metrics that
  BENCHMARK.json names, each with its unit, and no operation fails;
- the apply/filter oracle check fails on a deliberately uncorrected file;
- without the package sources the benchmark exits non-zero and prints no
  result.
Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Small enough to finish quickly, large enough that verify still passes at 1 dB.
TINY = {
    "estimate-large": {"num_recordings": 3, "duration": 4.0},
    "correct-files": {"num_recordings": 1, "duration": 1.5},
}


class SmokeFailure(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise SmokeFailure(message)


def run_benchmark(workload, trace):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        rc = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace)])
    return rc, json.loads(sink.getvalue().splitlines()[-1])


def check_metrics(spec):
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result = run_benchmark(workload, trace)
            expect(rc == 0 and result["correct"] and result["failed"] == 0,
                   f"{workload} trace {trace}: {result['failed']} failed operations")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace {trace}: result keys {sorted(result)}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace {trace}: metrics differ from "
                                  f"BENCHMARK.json: {sorted(set(got) ^ set(wanted))} "
                                  f"or units {[n for n in got if got[n] != wanted.get(n)]}")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{workload} trace {trace}: a metric value is not a number")
            print(f"ok: {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations")


def check_oracle_can_fail():
    """Correct outputs pass; an uncorrected copy in place of one apply output
    fails exactly that output's spectrum check."""
    sys.path.insert(0, str(run.SRC))
    import oracle
    from speccor import cli

    workload = "correct-files"
    root = run.WORK / "smoke-oracle"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        cfg = root / "sim.cfg"
        cfg.write_text(run.sim_config_text(workload, 1))
        corpus, out = root / "corpus", root / "out"
        expect(run.call_cli(cli, ["simulate", "--config", cfg, "--out", corpus]) == 0,
               "simulate failed")
        rows = run.read_manifest(corpus)
        for _, argv, _ in run.cycle_ops(workload, corpus, out, rows):
            expect(run.call_cli(cli, argv) == 0, f"{argv[0]} failed")
        plan = run.check_plan(workload, corpus, out, rows)
        bad = [c for c in oracle.run_checks(plan) if not c["ok"]]
        expect(not bad, f"corrected outputs fail checks: {bad}")

        row = run.corrected_rows(workload, rows)[0]
        shutil.copyfile(corpus / row["path"], out / "apply" / row["path"])
        bad = [c for c in oracle.run_checks(plan) if not c["ok"]]
        expect([c["check"] for c in bad] == [f"spectrum:apply/{row['path']}"],
               f"uncorrected file: expected one failing spectrum check, got {bad}")
        print(f"ok: uncorrected {row['path']} fails the oracle ({bad[0]['detail']})")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def check_refuses_without_sources():
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "correct-files",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        expect(proc.returncode != 0, "benchmark exited 0 without sources")
        expect('"correct"' not in proc.stdout, "benchmark printed a result without sources")
        print(f"ok: without sources the benchmark exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload, sim in TINY.items():
        run.WORKLOADS[workload]["sim"].update(sim)
    try:
        check_refuses_without_sources()
        check_metrics(spec)
        check_oracle_can_fail()
    except SmokeFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
