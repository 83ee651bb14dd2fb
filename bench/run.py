"""goodgradings benchmark: python3 bench/run.py --workload W --seed N
--seconds S --trace 0|1

Runs one workload (see workloads.py) for about S seconds as a sequence of
passes.  Each pass is a fresh single-threaded worker process that imports
the library and runs every orbit request of the workload once, in an order
the seed permutes; passes run one after another, never in parallel.

Times are reported at reference speed.  The host this benchmark was made
on gives one process a core whose speed drifts by 20-40% over seconds to
minutes, with other tenants' load; raw wall times then measure the host
more than the program.  So the worker also times a fixed unit of exact
rational arithmetic that does not use the program (worker.reference_s)
just before every request, and each measured time t is reported as
t * REFERENCE_S / r, with r the median reference time measured around it:
the time t would take on a host where the unit takes REFERENCE_S.  A
change to the program moves these figures as it moves wall time; a change
in host speed, which slows the unit as much as the program, does not.
The raw figures are on the line before the result.

--trace 0 prints the end-to-end metrics, measured untraced:
  orbits_per_s   orbits / the sum of each orbit's latency, its median
                 over the passes (a median pass, robust to one slow one)
  orbit_p50_ms   median over orbits of each orbit's latency, a
                 Harrell-Davis estimate (see quantile)
  orbit_tail_ms  the same at the highest multiple of 5 percent with at
                 least TAIL_BEYOND orbits beyond it (tail_percentile)
  setup_s        fresh process to the first request (interpreter start,
                 import, request generation); median of SETUP_PROBES
  peak_rss_mb    median over passes of the worker's peak resident memory
--trace 1 prints the per-layer metrics of tracing.LAYER_METRICS, each the
median over traced passes of a per-pass value, times at reference speed.
Untraced and traced passes alternate; the untraced ones give the tracing
overhead, and all must produce the same digest.

Every request's answer is checked exactly; a failed check or an exception
counts in "failed" (fail_frac = failed / attempted).  The line before the
result holds provenance, the seed-independent output digest, fail_frac,
the tail percentile with its orbit count, the raw (unscaled) figures and
the tracing overhead.
The benchmark's own tests: python3 -m pytest bench
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9
MIN_PASSES = 2
TAIL_BEYOND = 10
# Nominal time of worker.reference_s (it measured 3-5 ms on a 2-vCPU
# Intel Xeon VM under Python 3.11); a constant, so that runs compare.
REFERENCE_S = 0.003
REFERENCE_WINDOW = 5          # requests whose reference times scale one
RUN_LIMIT_S = 170             # a whole run, set-up probes included


class BenchError(RuntimeError):
    pass


def provenance(seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "platform": platform.platform(), "cpu": cpu,
            "nproc": os.cpu_count(), "seed": seed}


def spawn(deadline, workload, seed, size, *flags):
    """Run one worker to completion; its summary, with raw_setup_s and
    wall_s.

    The worker reports `ready` on the same monotonic clock (system-wide
    on Linux), so ready - start is its set-up time from process spawn."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--size", size]
    start = time.monotonic()
    proc = subprocess.run(cmd + list(flags), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - start))
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise BenchError("worker failed (exit %d): %s"
                         % (proc.returncode, proc.stderr.strip()[-2000:]))
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    summary["raw_setup_s"] = summary["ready"] - start
    summary["wall_s"] = wall
    return summary


def run_passes(deadline, workload, seed, seconds, size, trace):
    """Passes until the next one, if as long as the last, would end after
    `seconds`; at least MIN_PASSES.  With trace, passes alternate
    untraced and traced."""
    passes = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        flags = []
        if traced:
            os.makedirs(OUT_DIR, exist_ok=True)
            flags = ["--trace", "--spans",
                     os.path.join(OUT_DIR, "spans-%s.jsonl" % workload)]
        summary = spawn(deadline, workload, seed, size, *flags)
        summary["traced"] = traced
        passes.append(summary)
        elapsed = time.monotonic() - start
        if (len(passes) >= MIN_PASSES
                and elapsed + summary["wall_s"] > seconds):
            return passes


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by Beta((n+1)q, (n+1)(1-q)), here by the normal
    law with that Beta's mean and variance.  A single order statistic
    jumps when two orbits of close cost swap ranks across a gap in the
    latency distribution; this weighted mean moves smoothly instead."""
    xs = sorted(values)
    n = len(xs)
    law = statistics.NormalDist(q, math.sqrt(q * (1 - q) / (n + 2)))
    cdf = [law.cdf(i / n) for i in range(n + 1)]
    weights = [hi - lo for lo, hi in zip(cdf, cdf[1:])]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def scaled_latencies(p):
    """The pass's request latencies at reference speed: each one scaled by
    the median of the reference times measured just before it and the
    requests around it in run order, REFERENCE_WINDOW in all."""
    order, refs, half = p["order"], p["references"], REFERENCE_WINDOW // 2
    return {key: p["latencies"][key] * REFERENCE_S / statistics.median(
                refs[k] for k in order[max(0, i - half):i + half + 1])
            for i, key in enumerate(order) if key in p["latencies"]}


def pass_scale(p):
    """Factor that brings the pass's times to reference speed."""
    return REFERENCE_S / statistics.median(p["references"].values())


def orbit_latencies(scaled):
    """One latency per orbit: its median over the passes."""
    keys = {k for s in scaled for k in s}
    return [statistics.median(s[k] for s in scaled if k in s) for k in keys]


def throughput(scaled):
    """Orbits per second of a pass made of each orbit's median latency."""
    lat = orbit_latencies(scaled)
    return len(lat) / sum(lat) if lat else 0.0


def tail_percentile(n):
    """The highest multiple of 5 percent of n orbits with at least
    TAIL_BEYOND orbits beyond it; 90 when n is too small for any."""
    return max((q for q in range(5, 100, 5)
                if n - math.ceil(q * n / 100) >= TAIL_BEYOND), default=90)


def end_to_end(scaled, passes, setups):
    lat_ms = [1000 * x for x in orbit_latencies(scaled)]
    return {
        "orbits_per_s": (throughput(scaled), "1/s"),
        "orbit_p50_ms": (quantile(lat_ms, 0.5), "ms"),
        "orbit_tail_ms": (quantile(lat_ms, tail_percentile(len(lat_ms))
                                   / 100), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes)
                        / 1024, "MB"),
    }


def per_layer(traced):
    return {name: (statistics.median_low(
                p["layers"][name] * (pass_scale(p) if unit == "s" else 1)
                for p in traced), unit)
            for name, unit in LAYER_METRICS}


def raw_figures(passes, probes):
    """The unscaled wall-time figures, for the info line."""
    lat = [x for p in passes for x in p["latencies"].values()]
    return {"orbits_per_s": len(lat) / sum(lat) if lat else 0.0,
            "orbit_p50_ms": 1000 * statistics.median(lat) if lat else None,
            "setup_s": statistics.median(p["raw_setup_s"] for p in probes)
            if probes else None,
            "reference_ms": 1000 * statistics.median(
                r for p in passes for r in p["references"].values())}


def measure(workload, seed, seconds, trace, size="full"):
    """(info, result) for one benchmark run."""
    deadline = time.monotonic() + RUN_LIMIT_S
    probes = [] if trace else [
        spawn(deadline, workload, seed, size, "--setup-only")
        for _ in range(SETUP_PROBES)]
    passes = run_passes(deadline, workload, seed, seconds, size, trace)
    plain = [scaled_latencies(p) for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    digests = sorted({p["digest"] for p in passes})
    orbits = len(orbit_latencies(plain))
    if not orbits or (trace and not any(p["latencies"] for p in traced)):
        raise BenchError("no orbit request completed: %s" % failures[:3])
    tail = tail_percentile(orbits)
    info = {"workload": workload, "provenance": provenance(seed),
            "passes": len(passes), "digest": digests[0],
            "digests_agree": len(digests) == 1,
            "fail_frac": len(failures) / attempted,
            "failures": failures[:10],
            "tail": {"percentile": tail, "orbits": orbits,
                     "beyond": orbits - math.ceil(tail * orbits / 100),
                     "samples": sum(len(s) for s in plain)},
            "raw": raw_figures(passes, probes)}
    if trace:
        untraced_rate = throughput(plain)
        traced_rate = throughput([scaled_latencies(p) for p in traced])
        info["tracing"] = {"untraced_orbits_per_s": untraced_rate,
                           "traced_orbits_per_s": traced_rate,
                           "overhead_ratio": (untraced_rate / traced_rate
                                              if traced_rate else None)}
        metrics = per_layer(traced)
    else:
        setups = [p["raw_setup_s"] * REFERENCE_S / p["reference"]
                  for p in probes]
        metrics = end_to_end(plain, passes, setups)
    result = {"correct": not failures and len(digests) == 1,
              "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return info, result


def main(argv=None):
    ap = argparse.ArgumentParser(description="goodgradings benchmark")
    ap.add_argument("--workload", required=True,
                    help="dynkin_sweep, classify_oracle or pyramid_diagram")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full",
                    help="smoke: the smallest inputs, for the bench's tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "goodgradings",
                                       "__init__.py")):
        print("error: no goodgradings source tree at %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        info, result = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.size)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
