"""One pass of a workload in a fresh process: python3 bench/worker.py ...

A pass imports goodgradings, generates the workload's requests in the
order the seed gives, reports when it is ready (the end of set-up), then
runs every request once in a closed loop with one caller, timing each
call and checking its answer outside the timed interval.  Just before
each request it also times the reference unit (`reference_s`), which
gives the host's speed at that moment.  It prints one JSON summary line.
No library cache is warmed before timing: each pass is a fresh process,
as each real invocation is.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

from workloads import WORKLOADS, CliOutput
from tracing import Tracer, TraceError


def ordered_requests(workload, seed, size):
    """The workload's requests; the seed permutes their order only."""
    requests = WORKLOADS[workload].requests(size)
    random.Random(seed).shuffle(requests)
    return requests


def fingerprint(answer):
    """sha256 of one canonical answer; only this is kept, so the pass's
    memory high-water mark is the program's, not the answers'."""
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()
                          ).hexdigest()


def digest(fingerprints):
    """sha256 over the answers' fingerprints, sorted by request key."""
    return hashlib.sha256("".join(
        "%s %s\n" % (key, fingerprints[key]) for key in sorted(fingerprints)
    ).encode()).hexdigest()


REFERENCE_SIZE = 10
SETUP_REFERENCES = 5


def reference_s():
    """Wall time of a fixed unit of work that does not use the program:
    exact Gauss-Jordan elimination of a fixed 10x10 rational matrix.

    On a shared host the speed of one core drifts by tens of percent
    over seconds to minutes; this unit, timed next to the program's
    work, measures that drift so that run.py can take it out."""
    n = REFERENCE_SIZE
    collecting = gc.isenabled()
    gc.disable()        # a collection would scan the program's heap too
    start = time.perf_counter()
    rows = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 5)
             for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    if rank != n:
        raise RuntimeError("reference unit computed rank %d, not %d"
                           % (rank, n))
    return elapsed


def timed(run, req, tracer):
    """run(req) and its wall time; traced only while it runs."""
    if tracer:
        tracer.active = True
    start = time.perf_counter()
    try:
        return run(req), time.perf_counter() - start
    finally:
        if tracer:
            tracer.active = False


def run_pass(workload, requests, tracer=None):
    """Run every request once; return the pass summary."""
    wl = WORKLOADS[workload]
    orbit_ids = {key: i for i, key in
                 enumerate(sorted(r.key for r in requests))}
    latencies, references, failures, fingerprints = {}, {}, [], {}
    classified = 0
    with tracer.installed() if tracer else contextlib.nullcontext():
        for req in requests:
            if tracer:
                tracer.orbit = orbit_ids[req.key]
            raw = None      # hold no earlier result while this one runs
            references[req.key] = reference_s()
            try:
                raw, latencies[req.key] = timed(wl.run, req, tracer)
                answer = wl.check(req, raw)
            except Exception as exc:
                # one wrong or crashing orbit is a failed request; the
                # sweep goes on so that fail_frac counts every one
                latencies.pop(req.key, None)
                failures.append("%s: %s: %s"
                                % (req.key, type(exc).__name__, exc))
                continue
            fingerprints[req.key] = fingerprint(answer)
            if req.verb == "classify":
                classified += answer["output"]["count"]
            if tracer and isinstance(raw, CliOutput):
                tracer.counts["cli.output_bytes"] += len(raw.text.encode())
    summary = {"attempted": len(requests), "failures": failures,
               "order": [r.key for r in requests], "latencies": latencies,
               "references": references, "digest": digest(fingerprints),
               "classified": classified,
               "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        summary["layers"] = tracer.layer_metrics()
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up (a set-up time probe)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the trace's spans here (JSONL)")
    args = ap.parse_args(argv)

    requests = ordered_requests(args.workload, args.seed, args.size)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "reference": statistics.median(
            reference_s() for _ in range(SETUP_REFERENCES))}))
        return 0
    tracer = Tracer() if args.trace else None
    summary = run_pass(args.workload, requests, tracer)
    summary["ready"] = ready
    if tracer:
        errors = tracer.coverage_errors(args.workload)
        accepted = summary["layers"]["classification.accepted"]
        if accepted != summary["classified"]:
            errors.append("classification.accepted is %d, the classify "
                          "outputs count %d" % (accepted,
                                                summary["classified"]))
        if errors:
            raise TraceError("; ".join(errors))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
