#!/usr/bin/env python3
"""speccor benchmark: the CLI run as users run it, every output oracle-checked.

    python3 perfbench/run.py --workload estimate-large --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is taken from ``src/``.
One client drives a closed loop: each subcommand is its own child process,
started only after the previous one has exited. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
in-process run that wraps the package's public functions (tracer.py).
The last line of stdout is the JSON result; the full record (environment,
generated config, every sample, every check, SHA-256 of every output file)
goes to ``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

REFERENCE = "a"
SAMPLE_RATE = 44100
N_FFT = 2048
HOP = 512
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60
SPEEDREF = Path(__file__).resolve().parent / "speedref.py"
# speedref.py's median wall time on the host the benchmark was built on
# (2 vCPUs, x86_64). End-to-end times are scaled to a host that runs it in
# this time; see Clock.
SPEEDREF_S = 1.25

# Corpus shape per workload; the seed is the only other input. Why each one
# exists is in README.md. Both are aligned so that every end-to-end metric,
# estimate --aligned included, is measured on every workload.
WORKLOADS = {
    # Few long files: read_wav, stft and the reduction dominate estimate.
    "estimate-large": {
        "sim": {"num_recordings": 12, "duration": 10.0, "source": "white",
                "aligned": "true", "devices": "a b c", "response_db": 20},
        "corrected_files": 1,
        "verify_reference_free": True,
    },
    # Short per-file calls: import, istft, FIR design and convolution dominate.
    "correct-files": {
        "sim": {"num_recordings": 2, "duration": 3.0, "source": "white",
                "aligned": "true", "devices": "a b", "response_db": 20},
        "corrected_files": 2,
        "verify_reference_free": False,
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "setup_peak_rss_mb": "MB",
    "estimate_aligned_s": "s",
    "estimate_unaligned_s": "s",
    "estimate_none_s": "s",
    "estimate_peak_rss_mb": "MB",
    "design_fir_s": "s",
    "apply_file_s": "s",
    "filter_file_s": "s",
    "features_s": "s",
    "features_peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.import.scipy_signal_s": "s",
    "cli.self_s": "s",
    "cli.map.busy_ratio": "ratio",
    "wavio.read_wav.s": "s",
    "wavio.read_wav.bytes": "bytes",
    "dsp.stft.s": "s",
    "dsp.stft.frames": "count",
    "dsp.stft.bytes_computed": "bytes",
    "dsp.amplitude.s": "s",
    "dsp.amplitude.peak_live_bytes": "bytes",
    "correction.reduce.s": "s",
    "correction.reduce.cells": "count",
    "dsp.istft.s": "s",
    "dsp.istft.frames": "count",
    "correction.apply_to_complex.s": "s",
    "fir.design_ls.s": "s",
    "fir.apply_filter.s": "s",
    "dsp.convolve.s": "s",
    "dsp.convolve.samples": "count",
    "files.read.s": "s",
    "features.mel_filterbank.s": "s",
    "features.mel_filterbank.calls": "count",
    "features.extract.s": "s",
    "features.standardize.s": "s",
    "files.write.s": "s",
    "files.write.bytes": "bytes",
    "wavio.write_wav.s": "s",
    "wavio.write_wav.bytes": "bytes",
    "simulate.generate_dataset.s": "s",
    "simulate.record.s": "s",
    "simulate.record.calls": "count",
    "simulate.unused_analysis_s": "s",
    "simulate.unused_analysis_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class Tally:
    """Operations attempted and failed: every CLI invocation and every check."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.checks = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)

    def check(self, name, ok, detail=""):
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        self.record(ok, f"check {name}: {detail}")


def sim_config_text(workload, seed):
    sim = WORKLOADS[workload]["sim"]
    return "\n".join(["[sim]", f"seed = {seed}", f"sample_rate = {SAMPLE_RATE}",
                      f"n_fft = {N_FFT}", f"hop = {HOP}"]
                     + [f"{key} = {value}" for key, value in sim.items()]) + "\n"


def read_manifest(corpus):
    with open(corpus / "manifest.tsv", newline="") as handle:
        return list(csv.DictReader(handle, delimiter="\t"))


def devices_of(rows):
    return list(dict.fromkeys(row["device"] for row in rows))


def sources_of(rows):
    return [device for device in devices_of(rows) if device != REFERENCE]


def corrected_rows(workload, rows):
    sources = [row for row in rows if row["device"] != REFERENCE]
    return sources[:WORKLOADS[workload]["corrected_files"]]


def cycle_ops(workload, corpus, out, rows, inputs=None):
    """One pass over the subcommands: (metric, argv, output path) in run order.

    Coefficients and filters are read from ``inputs`` (default ``out``), so a
    subcommand can be rerun alone on an earlier pass's outputs."""
    manifest = corpus / "manifest.tsv"
    aligned, fir = (inputs or out) / "aligned", (inputs or out) / "fir"
    estimate = ["estimate", "--manifest", manifest, "--reference-device"]
    ops = [
        ("estimate_aligned_s", estimate + [REFERENCE, "--aligned", "--out", out / "aligned"],
         out / "aligned"),
        ("estimate_unaligned_s", estimate + [REFERENCE, "--out", out / "unaligned"],
         out / "unaligned"),
        ("estimate_none_s", estimate + ["none", "--out", out / "none"], out / "none"),
    ]
    for device in sources_of(rows):
        filt = out / "fir" / f"{device}.filt"
        ops.append(("design_fir_s", ["design-fir", "--coeffs", aligned / f"{device}.coeffs",
                                     "--out", filt], filt))
    for row in corrected_rows(workload, rows):
        src = corpus / row["path"]
        applied, filtered = out / "apply" / row["path"], out / "filter" / row["path"]
        ops.append(("apply_file_s", ["apply", "--coeffs", aligned / f"{row['device']}.coeffs",
                                     "--in", src, "--out", applied], applied))
        ops.append(("filter_file_s", ["filter", "--filter", fir / f"{row['device']}.filt",
                                      "--in", src, "--out", filtered], filtered))
    ops.append(("features_s", ["features", "--manifest", manifest, "--coeffs-dir", aligned,
                               "--standardize", "per-device", "--out", out / "feat"],
                out / "feat"))
    for sub in ("fir", "apply", "filter"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    return [(metric, [str(a) for a in argv], path) for metric, argv, path in ops]


def check_plan(workload, corpus, out, rows):
    """What oracle.run_checks verifies for one pass's outputs."""
    devices = devices_of(rows)
    sources = sources_of(rows)
    verify = [[str(out / "aligned"), sources], [str(out / "unaligned"), sources]]
    if WORKLOADS[workload]["verify_reference_free"]:
        verify.append([str(out / "none"), devices])
    reference_of = {row["group"]: row["path"] for row in rows if row["device"] == REFERENCE}
    corrected = []
    for row in corrected_rows(workload, rows):
        ref = str(corpus / reference_of[row["group"]])
        corrected += [[str(out / "apply" / row["path"]), ref],
                      [str(out / "filter" / row["path"]), ref]]
    samples = round(float(WORKLOADS[workload]["sim"]["duration"]) * SAMPLE_RATE)
    frames = 1 + (samples - N_FFT) // HOP
    return {
        "corpus": str(corpus),
        "reference": REFERENCE,
        "sources": sources,
        "verify": verify,
        "none_dir": str(out / "none"),
        "unaligned_dir": str(out / "unaligned"),
        "corrected": corrected,
        "features_dir": str(out / "feat"),
        "features": [[Path(row["path"]).stem, row["device"], frames] for row in rows],
    }


def hash_tree(path):
    """SHA-256 of every file under ``path`` (or of ``path`` itself), by relative name."""
    path = Path(path)
    found = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    out = {}
    for p in found:
        digest = hashlib.sha256()
        with open(p, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        out[str(p.relative_to(path)) if path.is_dir() else p.name] = digest.hexdigest()
    return out


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["SPECCOR_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def run_child(argv, env, log_path):
    """Run one child to completion; returns (wall s, peak RSS MB, exit code).

    Peak RSS is the child's own rusage from wait4. getrusage(RUSAGE_CHILDREN)
    would report the largest child reaped so far instead.
    """
    start = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def speccor(*argv):
    return [sys.executable, "-m", "speccor", *argv]


class Clock:
    """Times children against the host's speed at the moment they ran.

    A shared host's speed drifts by tens of percent from one minute to the
    next, and every child slows with it. speedref.py runs before the first
    child and after each one; a child's time is scaled by SPEEDREF_S over the
    mean of the two reference times around it. A change to speccor moves the
    child's time but not the reference's, so it shows in full; a slow spell
    on the host moves both, and largely cancels. The drift changes within
    seconds, so the reference must run right next to the child it scales.
    """

    def __init__(self, env, log):
        self.env, self.log = env, log
        self.refs = [self.gauge()]
        self.samples = []

    def gauge(self):
        wall, _, rc = run_child([sys.executable, str(SPEEDREF)], self.env, self.log)
        if rc != 0:
            raise RuntimeError(f"speedref.py exited {rc}")
        return wall

    def run(self, metric, argv):
        """Run one child; returns (wall s, peak RSS MB, exit code) and keeps
        the sample, with its scaled time, when the child succeeded."""
        wall, peak, rc = run_child(argv, self.env, self.log)
        self.refs.append(self.gauge())
        if rc == 0:
            speed = (self.refs[-2] + self.refs[-1]) / 2
            self.samples.append({"metric": metric, "wall": wall, "rss_mb": peak,
                                 "speedref": speed, "scaled": wall * SPEEDREF_S / speed,
                                 "t": time.perf_counter()})
        return wall, peak, rc

    def of(self, metric, key="scaled"):
        return [sample[key] for sample in self.samples if sample["metric"] == metric]


def setup(cfg, clock, tally):
    """Simulate the corpus SETUP_REPEATS times; every copy must be byte-identical."""
    corpus_hashes = None
    for i in range(SETUP_REPEATS):
        corpus = WORK / f"corpus{i}"
        _, _, rc = clock.run("setup_s", speccor("simulate", "--config", cfg, "--out", corpus))
        tally.record(rc == 0, f"simulate exit {rc}")
        if rc != 0:
            continue
        hashes = hash_tree(corpus)
        if corpus_hashes is None:
            corpus_hashes = hashes
        else:
            tally.check(f"setup-identical:{i}", hashes == corpus_hashes,
                        f"{len(hashes)} files")
            shutil.rmtree(corpus)
    return WORK / "corpus0", corpus_hashes or {}


def measure(workload, seconds, corpus, clock, tally):
    """Closed loop for ``seconds``. The first cycle runs every subcommand once,
    in order; its outputs are the reference and go to the oracle once the loop
    has ended. After it, the subcommand with the fewest attempts so far runs
    again on the first cycle's inputs, and its output must be byte-identical
    to the first cycle's."""
    rows = read_manifest(corpus)
    first = WORK / "cycle0"
    attempts = {}

    def run(metric, argv, target):
        _, _, rc = clock.run(metric, speccor(*argv))
        tally.record(rc == 0, f"{argv[0]} exit {rc} ({target.name})")
        attempts[metric] = attempts.get(metric, 0) + 1
        return hash_tree(target) if target.exists() else {}

    deadline = time.perf_counter() + seconds
    reference = [run(*op) for op in cycle_ops(workload, corpus, first, rows)]
    repeats = cycle_ops(workload, corpus, WORK / "repeat", rows, inputs=first)
    reruns = [0] * len(repeats)
    while time.perf_counter() < deadline:
        # Ties go to the op of that subcommand rerun least, then to run order.
        index = min(range(len(repeats)),
                    key=lambda i: (attempts[repeats[i][0]], reruns[i], i))
        reruns[index] += 1
        metric, argv, target = repeats[index]
        same = run(metric, argv, target) == reference[index]
        tally.check(f"identical:{target.name}", same, f"rerun {reruns[index]}")
        if target.is_dir():
            shutil.rmtree(target)
        else:
            target.unlink(missing_ok=True)
    report = run_oracle(check_plan(workload, corpus, first, rows), clock.env, tally, clock.log)
    outputs = {f"op{index}": hashes for index, hashes in enumerate(reference)}
    return outputs, report.get("env", {}), sum(reruns)


def run_oracle(plan, env, tally, log):
    plan_path = WORK / "plan.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.run([sys.executable, str(Path(__file__).parent / "oracle.py"), str(plan_path)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    with open(log, "a") as handle:
        handle.write(proc.stderr)
    tally.record(proc.returncode == 0, f"oracle exit {proc.returncode}")
    if proc.returncode != 0:
        return {}
    report = json.loads(proc.stdout.splitlines()[-1])
    for check in report["checks"]:
        tally.check(check["check"], check["ok"], check["detail"])
    return report


def end_to_end(clock):
    """Each time is the median of its scaled samples (Clock), each peak RSS
    the median of its children's; estimate_peak_rss_mb is the largest of the
    three estimators'."""
    estimates = ("estimate_aligned_s", "estimate_unaligned_s", "estimate_none_s")
    values, counts = {}, {}
    for metric, unit in END_TO_END_UNITS.items():
        if unit == "s" and clock.of(metric):
            values[metric] = statistics.median(clock.of(metric))
            counts[metric] = len(clock.of(metric))
    rss = {m: clock.of(m, "rss_mb") for m in ("setup_s", "features_s") + estimates}
    if rss["setup_s"]:
        values["setup_peak_rss_mb"] = statistics.median(rss["setup_s"])
    if all(rss[m] for m in estimates):
        values["estimate_peak_rss_mb"] = max(statistics.median(rss[m]) for m in estimates)
    if rss["features_s"]:
        values["features_peak_rss_mb"] = statistics.median(rss["features_s"])
    counts.update(setup_peak_rss_mb=len(rss["setup_s"]),
                  estimate_peak_rss_mb=sum(len(rss[m]) for m in estimates),
                  features_peak_rss_mb=len(rss["features_s"]))
    return values, counts


# -- traced run ------------------------------------------------------------------

def import_times(env):
    """(speccor.cli import s, scipy.signal import s) from a fresh -X importtime run.

    Each is the summed cumulative time of the outermost entries named by the
    prefix; scipy.signal is loaded lazily, so it shows only as submodules."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import speccor.cli"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
    entries = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2][1:]
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))

    def outermost(prefix):
        # importtime prints children before their parent; walk it backwards so
        # that every entry's ancestors are on the stack when it is reached.
        total, stack = 0, []
        for depth, name, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = name == prefix or name.startswith(prefix + ".")
            if inside and not any(covered for _, covered in stack):
                total += cumulative
            stack.append((depth, inside))
        return total / 1e6

    return outermost("speccor"), outermost("scipy.signal")


def call_cli(cli, argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main([str(a) for a in argv])


def traced_run(workload, seconds, cfg, env, tally, log):
    """In-process passes, each a simulate and one cycle. Pass 0 warms up and
    feeds the oracle; then traced and untraced passes alternate until
    ``seconds`` have passed, at least one of each. Per-layer metrics are
    medians over the traced passes; later outputs must match pass 0's."""
    os.environ["SPECCOR_THREADS"] = env["SPECCOR_THREADS"]
    sys.path.insert(0, str(SRC))
    import oracle
    import tracer as tracing
    from speccor import cli

    imports = [import_times(env) for _ in range(IMPORT_REPEATS)]
    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    layers = []
    reference = None
    deadline = time.perf_counter() + seconds
    passes = 0
    while not (walls[False] and walls[True]) or time.perf_counter() < deadline:
        traced = passes % 2 == 1
        corpus, out = WORK / f"pass{passes}" / "corpus", WORK / f"pass{passes}" / "out"
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        start = time.perf_counter()
        try:
            rc = call_cli(cli, ["simulate", "--config", cfg, "--out", corpus])
            tally.record(rc == 0, f"simulate exit {rc}")
            rows = read_manifest(corpus)
            for _, argv, target in cycle_ops(workload, corpus, out, rows):
                rc = call_cli(cli, argv)
                tally.record(rc == 0, f"{argv[0]} exit {rc} ({target.name})")
        finally:
            wall = time.perf_counter() - start
            tracer.uninstall()
        if passes:
            walls[traced].append(wall)
        if traced:
            layers.append(tracing.layer_metrics(tracer))
        hashes = {"corpus": hash_tree(corpus), "out": hash_tree(out)}
        if reference is None:
            reference = hashes
            try:
                for check in oracle.run_checks(check_plan(workload, corpus, out, rows)):
                    tally.check(check["check"], check["ok"], check["detail"])
            except Exception:
                tally.check("oracle", False, traceback.format_exc(limit=3))
        else:
            tally.check(f"identical:pass{passes}", hashes == reference,
                        f"{len(hashes['out'])} outputs")
        shutil.rmtree(WORK / f"pass{passes}")
        passes += 1

    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    values["cli.import_s"] = statistics.median(i[0] for i in imports)
    values["cli.import.scipy_signal_s"] = statistics.median(i[1] for i in imports)
    values["trace.overhead_ratio"] = statistics.median(walls[True]) / statistics.median(walls[False])
    RESULTS.mkdir(exist_ok=True)
    tracer.dump(RESULTS / f"spans-{workload}.json")
    counts = {name: len(layers) for name in values}
    counts.update({"cli.import_s": IMPORT_REPEATS, "cli.import.scipy_signal_s": IMPORT_REPEATS,
                   "trace.overhead_ratio": passes - 1})
    record = {"walls_untraced": walls[False], "walls_traced": walls[True], "layers": layers,
              "imports": imports, "outputs": reference, "env": oracle.environment()}
    return values, counts, record


# -- entry point --------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "speccor" / "__init__.py").is_file():
        print(f"error: no speccor sources under {SRC}; run from the root of a "
              "speccor checkout", file=sys.stderr)
        return 2
    env = child_env()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    cfg = WORK / "sim.cfg"
    cfg_text = sim_config_text(args.workload, args.seed)
    cfg.write_text(cfg_text)
    log = WORK / "children.log"
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "sim_config": cfg_text}
    try:
        if args.trace:
            values, counts, extra = traced_run(args.workload, args.seconds, cfg, env, tally, log)
            units = PER_LAYER_UNITS
            record.update(extra)
        else:
            clock = Clock(env, log)
            corpus, corpus_hashes = setup(cfg, clock, tally)
            outputs, oracle_env, reruns = measure(args.workload, args.seconds, corpus, clock, tally)
            values, counts = end_to_end(clock)
            units = END_TO_END_UNITS
            record.update(env=oracle_env, reruns=reruns, speedref_s=SPEEDREF_S,
                          speedrefs=clock.refs, samples=clock.samples,
                          raw_median_s={m: statistics.median(clock.of(m, "wall"))
                                        for m in counts if clock.of(m, "wall")},
                          outputs={"corpus": corpus_hashes, **outputs})
        if tally.failures:
            print(log.read_text()[-4000:], file=sys.stderr)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for name in units:
        if values.get(name) is None:
            tally.record(False, f"metric {name} has no sample")
    failed = len(tally.failures)
    record.update(values=values, counts=counts, checks=tally.checks, failures=tally.failures,
                  attempted=tally.attempted, failed=failed)
    result_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"environment: {json.dumps(record.get('env', {}), sort_keys=True)}")
    print(f"record: {result_path.relative_to(ROOT)}")
    for name, unit in units.items():
        value = values.get(name)
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        print(f"{name:32s} {shown}  (n={counts.get(name, 0)})")
    print(f"{'error_rate':32s} {failed / tally.attempted:.6g}  "
          f"({failed} failed of {tally.attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if values.get(name) is not None},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
