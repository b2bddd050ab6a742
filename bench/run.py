"""Run one benchmark workload against the package sources in this checkout.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0

One client, one process, closed loop: each query is ``pochette.cli.main``
called in-process with stdout captured, and the next query starts when
it returns.  A pass runs every query of the workload once; passes
repeat until the next one would overrun ``--seconds``.  Every report is
checked after its pass, outside the timed region.

Right before and right after each timed query the run also times a
fixed reference kernel (``reference.py``) and divides the query's
latency by the mean of the two: the ``ref`` metrics are latencies in
multiples of that kernel's time, which cancels the host's speed drift.
The same latencies in seconds are printed too, outside the result line.
The tail is the mean of the slowest tenth of at least 100 latencies, so
that it does not depend on how many passes fit in a run.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` each query runs twice in a row, untraced and then
traced, and the last line holds the per-layer metrics; pairing the runs
query by query keeps machine drift and warm-up out of the tracing
overhead.  A traced run makes at least two paired passes, whatever
``--seconds`` says, so that a counter that changes between passes fails
it.  The exit code is 1 when any query failed, 2 when
the checkout holds no package sources.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median

import reference
import spans
import workloads

CHECKOUT = Path(__file__).resolve().parent.parent
SOURCES = CHECKOUT / "src"
SETUP_INTERVAL_S = 1.0
TRACED_PASSES_MIN = 2
TAIL_PERCENTILE = 90
TAIL_SAMPLES_MIN = 100  # ten beyond the 90th percentile
# A set-up sample: a fresh interpreter imports the package, generates the
# inputs, writes them, and prints the monotonic clock when it is ready.
SETUP_CHILD = """\
import sys, time
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import pochette.cli, workloads
workloads.build(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))
print(repr(time.monotonic()))
"""
WALL_MS = re.compile(r'"wall_ms": [0-9.]+')

# name -> unit, in report order
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "query_ref_p50": "ref",
    "query_ref_tail": "ref",
    "certified_share": "ratio",
    "peak_rss_mb": "MiB",
}
# the same timings in seconds: printed, but at the mercy of the host's drift
SECONDS = {
    "wall_s": "s",
    "query_ms_p50": "ms",
    "query_ms_tail": "ms",
    "reference_ms_p50": "ms",
}


@dataclass
class Pass:
    wall_s: float
    latencies_s: list[float]
    tally: workloads.Tally
    failed: int
    untraced_s: float = 0.0
    references_s: list[float] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    times: dict[str, tuple[float, float]] = field(default_factory=dict)


def tail_mean(samples: list[float]) -> float:
    """The mean of the samples beyond the 90th percentile, at least ten.

    The 90th percentile is the sample at rank ceil(0.9*N) (nearest rank).
    The percentile is fixed rather than the highest the sample count
    allows, which a change that fits more passes in a run would raise.
    The mean beyond it is steadier than the percentile itself: with a
    few queries per pass, a fixed rank falls on the slowest run of one
    query.
    """
    n = len(samples)
    if n < TAIL_SAMPLES_MIN:
        raise ValueError(f"{n} samples are too few for a tail")
    return fmean(sorted(samples)[math.ceil(TAIL_PERCENTILE * n / 100):])


def setup_sample(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter to its inputs being ready.

    The child does the whole set-up of a run (interpreter start, the
    package's imports and their standard-library imports, input
    generation, writing the source files); it reads the monotonic clock,
    which is the same clock across processes, when it is done.
    """
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(Path(__file__).parent), str(SOURCES),
         workload, str(seed), str(workdir)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def run_query(cli, query: workloads.Query) -> tuple[float, int | None, str]:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out):
            code = cli.main(list(query.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        code = None
    return time.perf_counter() - start, code, out.getvalue()


def report_bytes(output: str) -> int:
    """Size of a report, with its one timing field counted as "wall_ms": 0."""
    return len(WALL_MS.sub('"wall_ms": 0', output).encode())


def check_report(query: workloads.Query, code: int | None, output: str) -> workloads.Tally:
    if code != 0:
        return workloads.Tally([f"exit code {code}"])
    try:
        report = json.loads(output)
        if report["schema"] != 1:
            return workloads.Tally([f"schema {report['schema']!r}"])
        return query.check(report)
    except Exception as exc:  # a report the checks cannot read fails its query
        return workloads.Tally([f"report unreadable: {exc!r}"])


class SetupSampler:
    """Takes a set-up sample before the first query, then one about every second.

    Machine load drifts over tens of seconds, so set-ups spread over the
    whole run give a steadier median than a burst at its start.  The
    samples are taken outside every timed query.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        workdir.mkdir()
        self.args = (workload, seed, workdir)
        self.samples = [setup_sample(*self.args)]
        self.due = time.perf_counter() + SETUP_INTERVAL_S

    def __call__(self) -> bool:
        """Take a sample if one is due; says whether it did."""
        if time.perf_counter() < self.due:
            return False
        self.samples.append(setup_sample(*self.args))
        self.due = time.perf_counter() + SETUP_INTERVAL_S
        return True


def run_pass(cli, queries: list[workloads.Query], tracer=None, between=None) -> Pass:
    """Run every query once, or with a tracer once untraced and once traced.

    The pass time is the sum of the (traced) query latencies.  Without a
    tracer the reference kernel is timed right before and right after
    each query; one timing serves as the after of a query and the before
    of the next unless `between` did some work in the gap.
    """
    results, untraced, references = [], [], []
    if tracer is not None:
        tracer.reset()
    before = None
    for query in queries:
        if tracer is None:
            before = before or reference.seconds()
            results.append(run_query(cli, query))
            after = reference.seconds()
            references.append((before + after) / 2)
            before = after
        else:
            untraced.append(run_query(cli, query))
            with tracer.installed():
                results.append(run_query(cli, query))
        if between is not None and between():
            before = None
    latencies = [r[0] for r in results]
    done = Pass(
        sum(latencies), latencies, workloads.Tally(), 0, sum(r[0] for r in untraced), references
    )
    if tracer is not None:
        done.counters = tracer.pass_counters()
        done.counters["cli.main.report_bytes"] = sum(report_bytes(r[2]) for r in results)
        done.times = tracer.layer_times()
    checked = zip(queries * (2 if untraced else 1), results + untraced)
    for query, (_, code, output) in checked:
        tally = check_report(query, code, output)
        if tally.problems:
            done.failed += 1
            print(f"FAILED {' '.join(query.argv)}: {'; '.join(tally.problems[:3])}", file=sys.stderr)
        done.tally.decisions += tally.decisions
        done.tally.certified += tally.certified
        done.tally.slopes += tally.slopes
    return done


def run_for(seconds: float, cli, queries, tracer=None, between=None, at_least=1) -> list[Pass]:
    """Passes until the next would end after `seconds`; at least `at_least`."""
    passes = []
    longest = 0.0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass(cli, queries, tracer, between))
        longest = max(longest, time.perf_counter() - began)
        if len(passes) >= at_least and time.perf_counter() - start + longest > seconds:
            return passes


def end_to_end(setups: list[float], passes: list[Pass]) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, the same timings in seconds, and run details."""
    latencies = [s for p in passes for s in p.latencies_s]
    relative = [[s / r for s, r in zip(p.latencies_s, p.references_s)] for p in passes]
    flat = [x for pass_ in relative for x in pass_]
    tail = tail_mean(flat)
    first = passes[0].tally
    wall = median(p.wall_s for p in passes)
    metrics = {
        "setup_s": median(setups),
        "wall_ref": median(sum(pass_) for pass_ in relative),
        "query_ref_p50": median(flat),
        "query_ref_tail": tail,
        "certified_share": first.certified / first.decisions if first.decisions else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    seconds = {
        "wall_s": wall,
        "query_ms_p50": median(latencies) * 1000,
        "query_ms_tail": tail_mean(latencies) * 1000,
        "reference_ms_p50": median(r for p in passes for r in p.references_s) * 1000,
    }
    detail = {
        "passes": len(passes),
        "setups": len(setups),
        "query_samples": len(latencies),
        "query_tail_beyond_percentile": TAIL_PERCENTILE,
        "query_tail_samples": len(flat) - math.ceil(TAIL_PERCENTILE * len(flat) / 100),
        "decisions_per_pass": first.decisions,
        "slopes_per_pass": first.slopes,
        "slopes_per_s": first.slopes / wall,
    }
    return metrics, seconds, detail


def per_layer(passes: list[Pass]) -> tuple[dict, int]:
    """Per-layer metrics, and how many passes disagreed on a counter."""
    counters = passes[0].counters
    mismatched = sum(p.counters != counters for p in passes[1:])
    overhead = median(p.wall_s - p.untraced_s for p in passes)
    metrics = spans.per_layer_metrics(counters, [p.times for p in passes], overhead)
    return metrics, mismatched


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCES / "pochette" / "cli.py").is_file():
        print(f"error: no package sources at {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))

    workdir = CHECKOUT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        from pochette import cli
        queries = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            passes = run_for(args.seconds, cli, queries, spans.Tracer(), at_least=TRACED_PASSES_MIN)
            metrics, mismatched = per_layer(passes)
            units = dict(spans.PER_LAYER)
            seconds, detail = {}, {"paired_passes": len(passes)}
            if mismatched:
                print(f"FAILED: {mismatched} traced passes changed a counter", file=sys.stderr)
        else:
            setups = SetupSampler(args.workload, args.seed, workdir / "setup")
            at_least = math.ceil(TAIL_SAMPLES_MIN / len(queries))
            passes = run_for(args.seconds, cli, queries, between=setups, at_least=at_least)
            metrics, seconds, detail = end_to_end(setups.samples, passes)
            units = END_TO_END
            mismatched = 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = len(queries) * len(passes) * (2 if args.trace else 1)
    failed = sum(p.failed for p in passes) + mismatched
    for name, value in metrics.items():
        print(f"{name:<60} {value:>16.6g} {units[name]}")
    for name, value in seconds.items():
        print(f"{name:<60} {value:>16.6g} {SECONDS[name]}")
    print(f"failed_share {failed / attempted:.6g}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "host": {
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
        },
        "seconds": seconds,
        "detail": detail,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
