"""zigzagst benchmark: the CLI chain on seeded workloads, end to end or traced.

    python3 perfbench/run.py --workload series --seed 0 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the program from
``src/``.  With ``--trace 0`` it repeats untraced passes of the
workload's chain for about ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it alternates untraced and traced passes
for about ``--seconds``, adds one count pass, and reports the per-layer
metrics.  Outputs are checked after the passes.  The last stdout line is
the result JSON; the run record (machine, inputs, per-pass times, check
failures) and the trace go to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import steady  # noqa: I001  (first: pins BLAS threads before numpy loads)
import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5

RATES = {  # end-to-end rate metric -> its unit; one sample per command call
    "zigzag_windows_per_s": "windows/s",
    "zpi_images_per_s": "images/s",
    "distance_pairs_per_s": "pairs/s",
    "train_samples_per_s": "samples/s",
    "forecast_windows_per_s": "windows/s",
}


@dataclass
class PassOutcome:
    """Timings and outputs of one pass of the chain."""

    wall: dict = field(default_factory=dict)  # command -> summed seconds
    samples: dict = field(default_factory=dict)  # rate metric -> [(items, seconds, probe)]
    last_probe: float = field(default_factory=steady.probe)
    calls: int = 0
    failed: int = 0
    zpd_by_series: list = field(default_factory=list)
    images: list = field(default_factory=list)  # (zpi path, zpd path, dim)
    pairs: list = field(default_factory=list)  # (zpd a, zpd b, dim)
    costs: list = field(default_factory=list)
    test_mae: float = float("nan")
    forecast_path: str = ""
    forecast_rows: int = 0
    forecast_windows: int = 0
    fingerprint: str = ""  # digest of every output, for the repeat check

    @property
    def zpd(self) -> list:
        return [p for paths in self.zpd_by_series for p in paths]

    @property
    def total(self) -> float:
        return sum(self.wall.values())

    def call(self, name, fn, *args):
        """Time one command; returns (result or None on error, seconds)."""
        self.calls += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # the run goes on and reports the failure
            self.failed += 1
            traceback.print_exc()
            result = None
        seconds = time.perf_counter() - start
        self.wall[name] = self.wall.get(name, 0.0) + seconds
        return result, seconds

    def sample(self, metric, items, seconds) -> None:
        """Record one rate sample with the mean of the probes either side of it."""
        probe = steady.probe()
        self.samples.setdefault(metric, []).append(
            (items, seconds, (self.last_probe + probe) / 2))
        self.last_probe = probe


def zigzag_config(pipeline, spec):
    """RunConfig shared by the chain's cmd_zigzag, cmd_zpi and cmd_distance calls."""
    return replace(pipeline.RunConfig(nu_star=workloads.NU_STAR), **spec.zigzag_cfg)


def run_pass(pipeline, spec, workdir, wrap=lambda name, fn: fn) -> PassOutcome:
    """One pass of cmd_zigzag, cmd_zpi, cmd_distance, cmd_train, cmd_forecast."""
    out = PassOutcome()
    zcfg = zigzag_config(pipeline, spec)
    for k, snapshots in enumerate(spec.zigzag):
        cfg = replace(zcfg, snapshots=snapshots, outdir=os.path.join(workdir, f"zigzag{k}"))
        res, dt = out.call("cmd_zigzag", wrap("cmd_zigzag", pipeline.cmd_zigzag), cfg)
        out.zpd_by_series.append(res["zpd"] if res else [])
        out.sample("zigzag_windows_per_s", len(out.zpd_by_series[-1]), dt)
        res, dt = out.call("cmd_zpi", wrap("cmd_zpi", pipeline.cmd_zpi), cfg)
        images = res["zpi"] if res else []
        out.sample("zpi_images_per_s", len(images), dt)
        for path in images:
            stem, dim = path[: -len(".zpi")].rsplit("_dim", 1)
            out.images.append((path, stem + ".csv", int(dim)))
    diagrams = out.zpd
    pairs = itertools.combinations(diagrams, 2) if spec.all_pairs else zip(diagrams, diagrams[1:])
    for a, b in pairs:
        pair_seconds = 0.0
        for dim in (0, 1):
            res, dt = out.call("cmd_distance", wrap("cmd_distance", pipeline.cmd_distance),
                               zcfg, a, b, dim)
            pair_seconds += dt
            out.pairs.append((a, b, dim))
            out.costs.append(res["cost"] if res else None)
        out.sample("distance_pairs_per_s", 2, pair_seconds)
    tcfg = replace(pipeline.RunConfig(nu_star=workloads.NU_STAR), snapshots=spec.train_snapshots,
                   features=spec.train_features, outdir=os.path.join(workdir, "train"),
                   **spec.train_cfg)
    res, dt = out.call("cmd_train", wrap("cmd_train", pipeline.cmd_train), tcfg)
    out.sample("train_samples_per_s", train_samples(pipeline, spec, tcfg) if res else 0, dt)
    if res:
        out.test_mae = res["test_metrics"][0]
        res, dt = out.call("cmd_forecast", wrap("cmd_forecast", pipeline.cmd_forecast),
                           tcfg, res["checkpoint"])
        out.sample("forecast_windows_per_s", res["windows"] if res else 0, dt)
    if res:
        out.forecast_path = res["forecast"]
        out.forecast_windows = res["windows"]
        out.forecast_rows = res["windows"] * tcfg.horizon * tcfg.universe_size * tcfg.out_features
    forecast = [out.forecast_path] if out.forecast_path else []
    out.fingerprint = json.dumps(
        [checks.digest(out.zpd + forecast), out.costs, out.test_mae])
    return out


def train_samples(pipeline, spec, tcfg) -> int:
    """Training samples times epochs, split as ``cmd_train`` splits its windows."""
    with open(spec.train_snapshots, encoding="ascii") as fh:
        length = max(int(line.split(",", 1)[0]) for line in fh if line[0].isdigit())
    windows = [None] * (length - tcfg.tau - tcfg.horizon + 1)
    return len(pipeline.net.chronological_split(windows, tcfg.split).train) * tcfg.epochs


def rates(passes, scaled=True) -> dict:
    """Each rate metric as the median over its per-call samples of items / seconds.

    With ``scaled``, each sample is first brought to the reference machine
    speed by its probe time (see steady.py).  Medians over many short
    samples keep the figure steady on a machine whose CPU speed drifts by
    tens of percent over seconds.
    """
    out = {}
    for metric in RATES:
        values = [n / s * (probe / steady.REFERENCE_SECONDS if scaled else 1.0)
                  for p in passes for n, s, probe in p.samples.get(metric, ()) if s > 0]
        out[metric] = statistics.median(values) if values else 0.0
    return out


def setup(workload: str, seed: int, workdir: str) -> list[tuple[float, float]]:
    """Prepare the inputs SETUP_REPEATS times in fresh interpreters.

    Returns (seconds, mean probe time around the set-up) per repeat.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = steady.probe()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "prepare.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", workdir],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        times.append((seconds, (before + steady.probe()) / 2))
    return times


def machine_record(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        commit = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in steady.THREAD_VARS},
        "malloc_mmap_threshold_fixed": steady.MMAP_THRESHOLD_FIXED,
        "commit": commit,
    }


def count_pass(pipeline, spec, workdir):
    """A pass under the exact counters; returns it and the count metrics."""
    counter = tracing.Counter()
    with counter.active():
        counted = run_pass(pipeline, spec, workdir)
    return counted, counter.metrics(spec.complexes, counted.forecast_windows)


def trace_metrics(pipeline, spec, workdir, seconds, record):
    """Untraced and traced passes in turn for ``seconds``, then one count pass.

    Each ``*_s`` metric is the median over traced passes of that span's
    self time; the overhead compares the medians of the two kinds of pass.
    """
    plain, traced, self_s = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(pipeline, spec, workdir))
        tracer = tracing.Tracer()
        with tracer.active():
            traced.append(run_pass(pipeline, spec, workdir, wrap=tracer.wrap))
        self_s.append(tracer.self_seconds())
        elapsed = time.perf_counter() - start
        if elapsed + plain[-1].total + traced[-1].total > seconds:
            break
    counted, metrics = count_pass(pipeline, spec, workdir)
    trace_path = os.path.join(OUT, f"trace-{record['workload']}-seed{record['seed']}.json")
    tracer.dump(trace_path)  # the last traced pass
    record["trace_file"] = os.path.relpath(trace_path, ROOT)

    for name in tracing.span_targets():
        if name != "net.train":  # its self time is the training loop's bookkeeping
            metrics[f"{name}_s"] = (statistics.median(s.get(name, 0.0) for s in self_s), "s")
    plain_s = statistics.median(p.total for p in plain)
    metrics["trace.overhead_share"] = (statistics.median(p.total for p in traced) / plain_s - 1, "ratio")
    record["pass_seconds"] = {"untraced": [p.wall for p in plain],
                              "traced": [p.wall for p in traced], "counted": counted.wall}
    record["rates_untraced"] = rates(plain)
    record["rates_untraced_unscaled"] = rates(plain, scaled=False)
    return plain + traced + [counted], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "zigzagst", "__init__.py")):
        print(f"error: no zigzagst sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_times = setup(args.workload, args.seed, workdir)
        from zigzagst import pipeline

        if not os.path.abspath(pipeline.__file__).startswith(os.path.join(ROOT, "src")):
            print(f"error: imported {pipeline.__file__}, not the checkout's", file=sys.stderr)
            return 2
        spec = workloads.chain(args.workload, workdir)
        record = machine_record(args.workload, args.seed)
        record["setup_s"] = setup_times

        if args.trace:
            passes, metrics = trace_metrics(pipeline, spec, workdir, args.seconds, record)
        else:
            passes = []
            start = time.perf_counter()
            while True:
                passes.append(run_pass(pipeline, spec, workdir))
                elapsed = time.perf_counter() - start
                if elapsed + passes[-1].total > args.seconds:
                    break
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record["pass_seconds"] = [p.wall for p in passes]
            record["samples"] = {m: [s for p in passes for s in p.samples.get(m, ())] for m in RATES}
            record["rates_unscaled"] = rates(passes, scaled=False)
            metrics = {name: (value, RATES[name]) for name, value in rates(passes).items()}
            metrics["setup_s"] = (statistics.median(
                s * steady.REFERENCE_SECONDS / probe for s, probe in setup_times), "s")
            metrics["peak_rss_mb"] = (peak_mb, "MB")

        check_start = time.perf_counter()
        run_checks = checks.Checks()
        stored = checks.load_reference()["seeds"][args.workload].get(str(args.seed))
        record["reference_seed"] = stored is not None
        checks.check_run(run_checks, spec, passes, zigzag_config(pipeline, spec), stored)
        attempted = sum(p.calls for p in passes) + run_checks.attempted
        failed = sum(p.failed for p in passes) + run_checks.failed
        if not args.trace:
            metrics["ok_share"] = ((attempted - failed) / attempted, "ratio")
        record["check_seconds"] = time.perf_counter() - check_start
        record["check_failures"] = run_checks.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
