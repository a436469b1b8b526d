"""Benchmark of the iontrap library and batch runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` of
the checkout, in this process, with BLAS pinned to one thread.  The
workload's inputs are drawn from the seed (``bench/workloads.py``).

``--trace 0`` first starts a few fresh interpreters one after another,
each timing ``import iontrap`` plus the config parse (``setup_s``, their
median).  It then repeats the workload's pass until ``--seconds`` have
gone by, checks every pass against an independent route, untimed, and
reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced passes (``bench/tracing.py``) and reports the per-layer metrics.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results and spans are written under ``.bench_out/``.

Exit codes: 0 when the run completed (``correct`` says whether every
check passed), 2 when there is no ``src/iontrap`` to benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

from tracing import Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "point_ms.p50": "ms",
    "point_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

# span name -> the metrics read straight off its spans: calls and self time
_SPAN_METRICS = [
    ("kernel.eigh", ("calls", "s")),
    ("oracle.exact_eigs", ("calls", "s")),
    ("oracle.exact_propagator", ("calls", "s")),
    ("oracle.frame_chain_propagator", ("calls", "s")),
    ("oracle.time_ordered_propagator", ("calls", "s")),
    ("hamiltonians.h_of_t", ("calls",)),
    ("oracle.scan_gap", ("calls", "s")),
    ("hamiltonians.bh", ("calls", "s")),
    ("hamiltonians.t_delta", ("calls", "s")),
    ("operators.displacement", ("calls", "s")),
    ("engine.decompose", ("calls", "s")),
    ("engine.solve", ("calls", "s")),
    ("engine.residual_norm", ("calls", "s")),
    ("operators.expm", ("calls", "s")),
    ("closedforms.rwa_evolutor", ("s",)),
    ("closedforms.first_order_evolutor", ("s",)),
    ("closedforms.regime_series", ("s",)),
]

# spans the per-layer metrics read; h_of_t is wrapped on ith_fn's return
TRACED_SPANS = [span for span, _ in _SPAN_METRICS
                if span != "hamiltonians.h_of_t"] + [
    "hamiltonians.ith_fn", "cli.parse_config", "cli.write_tables",
    "cli.write_metadata"]

PER_LAYER = {}
for _span, _kinds in _SPAN_METRICS:
    for _kind in _kinds:
        PER_LAYER[f"{_span}.{_kind}"] = "count" if _kind == "calls" else "s"
PER_LAYER.update({
    "kernel.eigh.share": "1",
    "kernel.eigh.gflop_computed": "GFLOP",
    "oracle.exact_eigs.repeat_frac": "1",
    "oracle.time_ordered_propagator.steps": "count",
    "oracle.frame_chain.err_max": "1",
    "warnings.count": "count",
    "experiments.self_s": "s",
    "cli.parse_config.s": "s",
    "cli.write.s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "1",
    "fail_frac": "1",
})


class TimingMapper:
    """Order-preserving sequential map that records each point's latency."""

    def __init__(self):
        self.latencies = []

    def __call__(self, fn, xs):
        out = []
        for x in xs:
            t0 = time.perf_counter()
            out.append(fn(x))
            self.latencies.append(time.perf_counter() - t0)
        return out


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"  # a benchmark checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "iontrap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _setup_probes(config_paths) -> list:
    """Set-up seconds measured in each of SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), str(SRC), *config_paths],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _one_pass(workload, cfgs, out_dir, tracer=None):
    """Run, time and check one pass; tracing is active only while timed."""
    mapper = TimingMapper()
    package_dir = str(SRC / "iontrap")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.reset_counters()
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = workload.run_pass(cfgs, mapper, out_dir)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
    attempted, failed = workload.check(cfgs, result)
    record = {"traced": tracer is not None, "wall_s": wall,
              "points": mapper.latencies,
              "attempted": attempted, "failed": failed,
              "bytes_written": result.bytes_written,
              "warnings": sum(str(w.filename).startswith(package_dir)
                              for w in caught),
              "extras": result.extras}
    if tracer is not None:
        spans = tracer.take()
        calls, self_s, incl_s = self_times(spans)
        record.update(spans=spans, calls=calls, self_s=self_s, incl_s=incl_s,
                      eigh_flop=tracer.eigh_flop, repeats=tracer.repeats,
                      steps=tracer.steps)
    return record


def _pass_s(records) -> float:
    """Mean wall time of a pass: every pass counts, so drift over the
    run averages out rather than a few passes deciding the value."""
    return statistics.fmean(r["wall_s"] for r in records)


def _layer_metrics(traced, untraced, parse_spans, failures) -> dict:
    med = statistics.median
    run_s = _pass_s(untraced)

    def per_pass(fn):
        return med(fn(r) for r in traced)

    values = {}
    for span, kinds in _SPAN_METRICS:
        if "calls" in kinds:
            values[f"{span}.calls"] = per_pass(lambda r: r["calls"].get(span, 0))
        if "s" in kinds:
            values[f"{span}.s"] = per_pass(lambda r: r["self_s"].get(span, 0.0))
    eig_calls = values["oracle.exact_eigs.calls"]
    _, _, parse_incl = self_times(parse_spans)
    values.update({
        "kernel.eigh.share": values["kernel.eigh.s"] / run_s,
        "kernel.eigh.gflop_computed": per_pass(lambda r: r["eigh_flop"]) / 1e9,
        "oracle.exact_eigs.repeat_frac": (per_pass(lambda r: r["repeats"]) / eig_calls
                                          if eig_calls else 0.0),
        "oracle.time_ordered_propagator.steps": per_pass(lambda r: r["steps"]),
        "oracle.frame_chain.err_max": max(
            (r["extras"].get("err_max", 0.0) for r in traced + untraced),
            default=0.0),
        "warnings.count": per_pass(lambda r: r["warnings"]),
        "experiments.self_s": per_pass(lambda r: sum(
            v for k, v in r["self_s"].items() if k.startswith("experiments."))),
        "cli.parse_config.s": parse_incl.get("cli.parse_config", 0.0),
        "cli.write.s": per_pass(lambda r: r["incl_s"].get("cli.write_tables", 0.0)
                                + r["incl_s"].get("cli.write_metadata", 0.0)),
        "cli.bytes_written": per_pass(lambda r: r["bytes_written"]),
        "trace.overhead_frac": _pass_s(traced) / run_s - 1.0,
        "fail_frac": failures,
    })
    for key in _part_metrics():
        values[key] = statistics.fmean(r["extras"].get(key, 0.0) for r in untraced)
    return values


def _part_metrics() -> list:
    """Per-layer names of the parts' wall times, one per workload part."""
    import workloads
    return [f"part.{name}.s" for name in workloads.PARTS]


def _write_spans(path: Path, traced) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,span,parent,name,start_s,end_s\n")
        for k, record in enumerate(traced):
            spans = record["spans"]
            base = spans[0][2] if spans else 0.0
            for i, (name, parent, t0, t1) in enumerate(spans):
                fh.write(f"{k},{i},{parent},{name},{t0 - base:.9f},{t1 - base:.9f}\n")


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from iontrap import cli

    workload = workloads.WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        paths = {}
        for key, text in workload.configs(seed).items():
            paths[key] = work / f"{key}.ini"
            paths[key].write_text(text, encoding="utf-8")
        setup = [] if trace else _setup_probes([str(p) for p in paths.values()])

        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        cfgs = {key: cli.parse_config(str(path)) for key, path in paths.items()}
        parse_spans = []
        if tracer is not None:
            tracer.uninstall()
            parse_spans = tracer.take()

        # passes run while the next one, as long as the last, still ends
        # inside the measuring window; a traced run needs one of each kind
        start = time.perf_counter()
        untraced, traced = [], []
        while True:
            use_tracer = trace and len(traced) < len(untraced)
            t0 = time.perf_counter()
            record = _one_pass(workload, cfgs, str(work / "out"),
                               tracer if use_tracer else None)
            (traced if use_tracer else untraced).append(record)
            now = time.perf_counter()
            if (now + (now - t0) - start > seconds
                    and (traced or not trace)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    result = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": _environment(),
        "passes": [{k: r[k] for k in ("wall_s", "attempted", "failed",
                                      "bytes_written", "warnings")}
                   | {"points": len(r["points"]), "traced": r["traced"],
                      "point_s": r["points"]}
                   for r in passes],
        "attempted": attempted, "failed": failed,
    }
    if trace:
        values = _layer_metrics(traced, untraced, parse_spans, failed / attempted)
        units = PER_LAYER | {key: "s" for key in _part_metrics()}
        # a span a later version removed reads 0 and is reported as absent
        result["absent"] = [s for s in TRACED_SPANS if s not in tracer.wrapped]
        spans_path = OUT / f"spans-{workload_name}-seed{seed}.csv"
        _write_spans(spans_path, traced)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        points = [x for r in untraced for x in r["points"]]
        values = {
            "run_s": _pass_s(untraced),
            "setup_s": statistics.median(setup),
            "point_ms.p50": 1e3 * statistics.median(points),
            "point_ms.p90": 1e3 * statistics.quantiles(
                points, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        result.update(setup_samples=setup, point_samples=len(points))
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    return result


def _report(result: dict) -> None:
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"passes {len(result['passes'])}  trace {result['trace']}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if "point_samples" in result:
        print(f"samples: point latencies {result['point_samples']}, "
              f"set-up probes {len(result['setup_samples'])}")
    absent = result.get("absent", ())
    for name, metric in result["metrics"].items():
        note = "  (absent: not in this version)" if any(
            name.startswith(a + ".") for a in absent) else ""
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(f"checks: {result['failed']} of {result['attempted']} operations failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "iontrap" / "__init__.py").is_file():
        print(f"error: no iontrap package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; valid: "
                     + ", ".join(workloads.WORKLOADS))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    name = (f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    _report(result)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
