"""Run the benchmark over seeds and workloads, and compare result sets.

    python3 bench/suite.py run --label baseline --seeds 1-10
    python3 bench/suite.py run --label traced --seeds 1-3 --trace
    python3 bench/suite.py run --label mine --base ../parent-checkout
    python3 bench/suite.py compare bench/results/BENCH_mine-base.json bench/results/BENCH_mine.json

``run`` starts one ``bench/run.py`` process per workload and seed, one
after another, always over every workload of BENCHMARK.json and for its
``run_seconds``, prints every metric by name with its unit, and writes
``bench/results/BENCH_<label>.json``: the host, every run, and per
workload the median, quartiles and spread (quartile distance over
median) of each metric.  It exits 1 if any run failed a check.  With
``--base DIR`` it also runs the benchmark of the checkout in DIR, in
pairs with this one, alternating which side runs first, and writes that
side to ``BENCH_<label>-base.json``: machine load drifts over minutes,
so only runs made side by side can be compared.

``compare`` pairs the runs of two result sets by workload and seed and
prints, per workload, the failed queries of each side and, per metric,
both medians and quartiles and one of better / worse / unchanged /
unresolved, judged against the metric's bound in BENCHMARK.json.  It
refuses two sets made with different ``run_seconds``.

- better: the change wins at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ by more than the base quartile
  distance;
- worse: the change's median is worse than the base's by more than the
  bound;
- unresolved: neither, and the base spread is wider than the bound,
  unless every change run beats every base run;
- unchanged: otherwise.

A workload on which the change failed more queries than the base is
marked FAILING, and none of its metrics counts as better.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent


def load_spec() -> dict:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def host() -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def stats(values: list[float]) -> dict:
    q1, mid, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(mid) if mid else 0.0,
        "n": len(values),
    }


def run_one(checkout: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    command = [
        sys.executable, "bench/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "seconds": info["seconds"],
        "detail": info["detail"],
    }


def summarize(runs: list[dict]) -> dict:
    summary: dict = {}
    for run in runs:
        per_metric = summary.setdefault(run["workload"], {})
        for name, value in {**run["metrics"], **run["seconds"]}.items():
            per_metric.setdefault(name, []).append(value)
    return {
        workload: {name: stats(values) for name, values in metrics.items()}
        for workload, metrics in summary.items()
    }


def write_results(label: str, runs: list[dict], seconds: int, seeds: str, bounds: dict):
    summary = summarize(runs)
    print(f"\n{label}")
    print(f"{'workload':<12} {'metric':<50} {'median':>12} {'q1':>11} {'q3':>11}  spread  bound")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            bound = bounds.get(name)
            print(
                f"{workload:<12} {name:<50} {s['median']:>12.6g} {s['q1']:>11.6g} "
                f"{s['q3']:>11.6g}  {s['spread']:6.3f}  {bound if bound is not None else '-'}"
            )
    out = BENCH / "results" / f"BENCH_{label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "label": label,
        "host": host(),
        "run_seconds": seconds,
        "seeds": seeds,
        "summary": summary,
        "runs": runs,
    }, indent=1) + "\n")
    print(f"wrote {out.relative_to(CHECKOUT)}")


def cmd_run(args) -> int:
    spec = load_spec()
    seconds = spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = [(args.label, CHECKOUT)]
    if args.base:
        sides.append((f"{args.label}-base", Path(args.base).resolve()))
    runs: dict[str, list[dict]] = {label: [] for label, _ in sides}
    for workload in (w["name"] for w in spec["workloads"]):
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for label, checkout in sides if i % 2 == 0 else sides[::-1]:
                run = run_one(checkout, workload, seed, seconds, args.trace)
                runs[label].append(run)
                status = "ok" if run["correct"] else f"FAILED {run['failed']}/{run['attempted']}"
                print(f"{label}: {workload} seed {seed}: {status}  {run['detail']}")
                for name, value in run["metrics"].items():
                    print(f"  {name:<60} {value:>14.6g} {units.get(name, '')}")
    for label, _ in sides:
        write_results(label, runs[label], seconds, args.seeds, bounds)
    return 0 if all(run["correct"] for side in runs.values() for run in side) else 1


def verdict(base: list[float], change: list[float], pairs, better: str, bound) -> str:
    b, c = stats(base), stats(change)
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c["median"] - b["median"]) > b["q3"] - b["q1"]:
        return "better"
    if bound is None:
        return "-"
    if sign * (b["median"] - c["median"]) > bound * abs(b["median"]):
        return "worse"
    all_better = all(sign * (y - x) > 0 for x in base for y in change)
    if b["spread"] > bound and not all_better:
        return "unresolved"
    return "unchanged"


def cmd_compare(args) -> int:
    spec = load_spec()
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base_set, change_set = (json.loads(Path(p).read_text()) for p in (args.base, args.change))
    if base_set["run_seconds"] != change_set["run_seconds"]:
        print(
            f"error: run_seconds differ ({base_set['run_seconds']} vs {change_set['run_seconds']}); "
            "the sets are not comparable",
            file=sys.stderr,
        )
        return 2
    base, change = base_set["runs"], change_set["runs"]
    for workload in (w["name"] for w in spec["workloads"]):
        b_runs = {(r["seed"], r["trace"]): r for r in base if r["workload"] == workload}
        c_runs = {(r["seed"], r["trace"]): r for r in change if r["workload"] == workload}
        b_failed = sum(r["failed"] for r in b_runs.values())
        c_failed = sum(r["failed"] for r in c_runs.values())
        failing = c_failed > b_failed
        print(
            f"\n{workload}: failed queries base {b_failed}, change {c_failed}"
            + ("  FAILING" if failing else "")
        )
        print(f"{'workload':<12} {'metric':<50} {'base median [q1, q3]':>36} {'change median [q1, q3]':>36}  verdict")
        names = [n for n in directions if any(n in r["metrics"] for r in b_runs.values())]
        for name in names:
            b_vals = [r["metrics"][name] for r in b_runs.values() if name in r["metrics"]]
            c_vals = [r["metrics"][name] for r in c_runs.values() if name in r["metrics"]]
            if not b_vals or not c_vals:
                continue
            pairs = [
                (b_runs[k]["metrics"][name], c_runs[k]["metrics"][name])
                for k in b_runs.keys() & c_runs.keys()
                if name in b_runs[k]["metrics"] and name in c_runs[k]["metrics"]
            ]
            b, c = stats(b_vals), stats(c_vals)
            label = verdict(b_vals, c_vals, pairs, directions[name], bounds.get(name))
            if failing and label == "better":
                label = "unresolved"
            print(
                f"{workload:<12} {name:<50} "
                f"{b['median']:>12.6g} [{b['q1']:.6g}, {b['q3']:.6g}]".ljust(36)
                + f" {c['median']:>12.6g} [{c['q1']:.6g}, {c['q3']:.6g}]".ljust(36)
                + f"  {label}"
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run workloads over seeds and write a result set")
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", action="store_true", help="per-layer runs instead of end-to-end")
    p.add_argument("--base", help="another checkout to run in alternating pairs with this one")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare", help="compare two result sets")
    p.add_argument("base")
    p.add_argument("change")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
