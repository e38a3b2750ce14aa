"""Closed-loop benchmark of the heartproof CLI, one workload per interpreter.

One client sends requests back to back: each request is one in-process
call of `heartproof.cli.main(argv)`, and the next starts only after it
returns. Rounds of requests repeat until `seconds` have passed and the
workload's minimum number of rounds is done. Outputs are checked only
after the loop, and after peak memory has been read, so the checks and
their imports (sympy) are not charged to the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# fresh interpreters timed from spawn until heartproof.cli is imported,
# with SETUP_PROBES speed probes before the first and after each
SETUP_SAMPLES = 15
SETUP_PROBES = 3
_CHILD = ("import sys, time\n"
          "t = time.perf_counter()\n"
          "import heartproof.cli\n"
          "print(time.perf_counter() - t, flush=True)\n")


class ProgramMissing(RuntimeError):
    """The checkout holds no heartproof sources next to the benchmark."""


def import_cli():
    """Import heartproof.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "heartproof" / "cli.py").is_file():
        raise ProgramMissing(f"no heartproof sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import heartproof.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "heartproof":
        raise ProgramMissing(f"heartproof imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(samples: int = SETUP_SAMPLES) -> tuple[list[float], list[float], float]:
    """(spawn-to-ready wall times and in-child import times of fresh
    interpreters, the speed factor over all of them).

    One factor for the whole set-up, from every probe taken during it: a
    spawned child may run on the other vCPU than the probe, and scaling
    each sample by the probes next to it adds more noise than it removes.
    """
    gauge = speed.Gauge("python")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        gauge.sample()
    first = time.perf_counter()
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _CHILD], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            end = time.perf_counter()
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if proc.returncode != 0 or not line.strip():
            raise ProgramMissing("a fresh interpreter could not import heartproof.cli")
        walls.append(end - start)
        imports.append(float(line))
        for _ in range(SETUP_PROBES):
            gauge.sample()
    return walls, imports, gauge.factor(first, time.perf_counter())


def send(entry, request: workloads.Request, round_index: int) -> workloads.Result:
    out, err = io.StringIO(), io.StringIO()
    if request.json_path is not None and request.json_path.exists():
        request.json_path.unlink()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = entry(request.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed request; the loop goes on
        rc, error = None, traceback.format_exc()
    end = time.perf_counter()
    cert = None
    if request.json_path is not None and request.json_path.exists():
        cert = request.json_path.read_text()
    return workloads.Result(request, round_index, rc, start, end, out.getvalue(),
                            err.getvalue(), cert, error)


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def round_digests(results: list[workloads.Result], workdir: Path) -> list[str]:
    """One digest per round over argv, exit code, stdout and certificate,
    with the per-process work directory blanked out of argv."""
    digests: dict = {}
    for res in results:
        argv = [a.replace(str(workdir), "<work>") for a in res.request.argv]
        h = digests.setdefault(res.round, hashlib.sha256())
        h.update(json.dumps([argv, res.rc, res.stdout, res.cert]).encode())
    return [digests[k].hexdigest() for k in sorted(digests)]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the report, whose 'result' is the line to print."""
    cli = import_cli()
    workload_class = workloads.WORKLOADS[workload_name]
    walls, imports, setup_factor = measure_setup()
    gauge = speed.Gauge(workload_class.speed_probe)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workload_class(seed, workdir)
        for request in workload.warm_up():
            send(cli.main, request, -1)
        tracer = spans.Tracer() if trace else None
        with tracer.instrument() if tracer else contextlib.nullcontext():
            bypassed = tracer.unwrapped_references() if tracer else []
            results, peak_rss_mb = _loop(cli, workload, seconds, tracer, gauge)
        failed = [r for r in results if r.rc not in workload.ok_codes]
        passed = [r for r in results if r.rc in workload.ok_codes]
        problems = workload.check(passed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = [r.end - r.start for r in results]
    latencies = [gauge.scaled(r.end - r.start, r.start, r.end) for r in results]
    rounds = results[-1].round + 1
    e2e = end_to_end(latencies, [w * setup_factor for w in walls], peak_rss_mb,
                     workload.tail_percentile)
    raw_e2e = end_to_end(raw, walls, peak_rss_mb, workload.tail_percentile)
    if tracer:
        write_spans(tracer, OUT / f"{workload_name}-seed{seed}-spans.jsonl")
        layer = tracer.summary(len(results))
        layer["cli.import_s"] = statistics.median(imports)
        metrics = {k: {"value": layer.get(k, 0.0), "unit": u} for k, u in spans.PER_LAYER.items()}
        problems += [f"layer function still bound unwrapped at {where}" for where in bypassed]
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    result = {"correct": not problems, "attempted": len(results), "failed": len(failed),
              "metrics": metrics}
    return {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": rounds, "requests_per_round": len(results) // rounds,
        "tail_percentile": workload.tail_percentile,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "raw_end_to_end": {k: v for k, (v, _) in raw_e2e.items()},
        "speed_probe": workload.speed_probe, "probe_times": gauge.times, "probes_s": gauge.probes,
        "request_times": [(r.start, r.end) for r in results],
        "setup_walls_s": walls, "import_s": imports,
        "latencies_s": latencies, "round_digests": round_digests(results, workdir),
        "problems": problems[:50],
        "failures": [{"argv": r.request.argv, "rc": r.rc, "stderr": r.stderr[-2000:],
                      "error": r.error} for r in failed[:20]],
        "spans": len(tracer.spans) if tracer else 0,
        "result": result,
    }


def end_to_end(latencies: list[float], setup_walls: list[float], peak_rss_mb: float,
               tail_percentile: int) -> dict:
    return {
        "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": (percentile(latencies, tail_percentile) * 1000, "ms"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _loop(cli, workload, seconds: float, tracer, gauge: speed.Gauge
          ) -> tuple[list[workloads.Result], float]:
    """The requests' results, and the peak resident set in MB once the first
    `min_rounds` rounds are done. Every round of analyze-groups leaves new
    groups in heartproof's caches, so the peak at the end of the run would
    grow with the number of rounds the machine's speed allowed."""
    results: list[workloads.Result] = []
    start = time.perf_counter()
    index = 0
    while index < workload.min_rounds or time.perf_counter() - start < seconds:
        for request in workload.round(index):
            gauge.tick()
            if tracer:
                tracer.request = len(results)
            results.append(send(cli.main, request, index))
        index += 1
        if index == workload.min_rounds:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(speed.MIN_PROBES):
        gauge.sample()
    return results, peak_rss_mb


def write_spans(tracer: spans.Tracer, path: Path):
    """One JSON line per span: id, name, start, end, parent id, request."""
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as fh:
        for sid, (name, start, end, parent, request) in enumerate(tracer.spans):
            fh.write(json.dumps([sid, name, start, end, parent, request]) + "\n")


def write_report(report: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / (f"{report['workload']}-seed{report['seed']}"
                  f"-trace{int(report['trace'])}.json")
    path.write_text(json.dumps(report, indent=1) + "\n")
    return path
