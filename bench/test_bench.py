"""Tests of the benchmark itself: traces, checks, inputs and the spec file.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pochette.cli  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402
import workloads  # noqa: E402


def small_queries(tmp_path: Path) -> list[workloads.Query]:
    """A cheap slice of every workload, reaching every traced layer."""
    sweep = workloads.build("sweep-grid", 3, tmp_path)
    s4 = workloads.build("s4-certify", 3, tmp_path)
    tools = workloads.build("group-tools", 3, tmp_path)
    cheap_tools = [q for q in tools if "--degree=6" not in q.argv and q.argv[0] != "enumerate"]
    return [sweep[0], sweep[-1], *s4[:6], *cheap_tools]


def report_for(query: workloads.Query) -> dict:
    _, code, output = run.run_query(pochette.cli, query)
    assert code == 0
    return json.loads(output)


def test_counters_repeat_exactly(tmp_path):
    queries = small_queries(tmp_path)
    counters = []
    for _ in range(2):
        done = run.run_pass(pochette.cli, queries, spans.Tracer())
        assert done.failed == 0 and done.untraced_s > 0
        counters.append(done.counters)
    assert counters[0] == counters[1]
    layers = {name.rsplit(".", 1)[0] for name in counters[0] if name.endswith(".calls")}
    assert layers == set(spans.LAYERS) - {"coset_enum.enumerate_cosets"}


def test_latencies_are_also_reported_in_reference_units(tmp_path):
    queries = workloads.build("s4-certify", 3, tmp_path)[:10]
    passes = run.run_for(0.0, pochette.cli, queries, at_least=10)
    assert all(len(p.references_s) == len(queries) for p in passes)
    metrics, seconds, _ = run.end_to_end([0.1], passes)
    relative = [[s / r for s, r in zip(p.latencies_s, p.references_s)] for p in passes]
    assert metrics["wall_ref"] == run.median(sum(pass_) for pass_ in relative)
    assert metrics["query_ref_tail"] == run.fmean(sorted(x for pass_ in relative for x in pass_)[90:])
    assert seconds["wall_s"] == run.median(p.wall_s for p in passes)
    assert set(metrics) == set(run.END_TO_END) and set(seconds) == set(run.SECONDS)


def test_reference_kernel_is_fixed_and_leaves_the_collector_as_found():
    assert reference.kernel() == reference.kernel() > 0
    assert reference.seconds() > 0 and __import__("gc").isenabled()


def test_traced_run_makes_two_passes_however_short(tmp_path):
    queries = workloads.build("s4-certify", 3, tmp_path)[:2]
    passes = run.run_for(0.0, pochette.cli, queries, spans.Tracer(), at_least=run.TRACED_PASSES_MIN)
    assert len(passes) == 2
    assert run.per_layer(passes)[1] == 0


def test_add_relator_letters_count_the_input():
    from pochette.presentations import add_relator, parse_presentation

    group = parse_presentation(workloads.SPUN_TREFOIL)
    relator = group.parse("x y x^-1")
    _, counters = spans.LAYERS["presentations.add_relator"]
    result = add_relator(group, relator)
    assert counters((group, relator), result) == {"letters_in": 6 + 3}


def test_setup_sample_starts_a_fresh_interpreter(tmp_path):
    seconds = run.setup_sample("group-tools", 3, tmp_path)
    assert 0 < seconds < 60
    assert sorted(p.name for p in tmp_path.iterdir())


def test_report_bytes_ignore_the_timing_digits():
    assert run.report_bytes('{"rows": [], "wall_ms": 9.5}') == run.report_bytes(
        '{"rows": [], "wall_ms": 1234.5}'
    )


def test_wrappers_are_removed_afterwards_also_on_error():
    def sites():
        out = {}
        for entry, _ in spans.LAYERS.values():
            for site in entry:
                module, attribute = site.split(":")
                out[site] = getattr(sys.modules[module], attribute)
        return out

    before = sites()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            assert all(sites()[s] is not before[s] for s in before)
            raise RuntimeError("stop")
    assert sites() == before


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans.extend([
        spans.Span("cli.main", 0.0, 10.0, -1),
        spans.Span("surgery.surgery_invariants", 1.0, 5.0, 0),
        spans.Span("presentations.add_relator", 2.0, 3.0, 1),
        spans.Span("surgery.surgery_invariants", 6.0, 8.0, 0),
    ])
    times = tracer.layer_times()
    assert times["cli.main"] == (10.0, 4.0)
    assert times["surgery.surgery_invariants"] == (6.0, 5.0)
    assert times["presentations.add_relator"] == (1.0, 1.0)


def test_tail_is_the_mean_beyond_the_90th_percentile():
    samples = [float(i) for i in range(300)]
    assert run.tail_mean(samples[:100]) == 94.5  # 90..99
    assert run.tail_mean(samples[:105]) == 99.5  # 95..104, ten or more
    assert run.tail_mean(samples) == 284.5
    with pytest.raises(ValueError):
        run.tail_mean(samples[:99])


def test_inputs_depend_only_on_seed(tmp_path):
    def snapshot(seed, directory):
        directory.mkdir()
        queries = workloads.build("group-tools", seed, directory)
        files = {p.name: p.read_text() for p in directory.iterdir()}
        return [q.argv[:1] + q.argv[2:] for q in queries], files

    assert snapshot(5, tmp_path / "a") == snapshot(5, tmp_path / "b")
    assert snapshot(5, tmp_path / "c") != snapshot(6, tmp_path / "d")


@pytest.mark.parametrize(
    "workload, mutate",
    [
        ("sweep-grid", lambda r: r["rows"][0].update(verdict="HomeoS4Certified")),
        ("sweep-grid", lambda r: r["rows"].pop()),
        ("sweep-grid", lambda r: r["rows"][1].update(h1="Z/7")),
        ("s4-certify", lambda r: r["verdict"].update(pi1_index=2)),
        ("s4-certify", lambda r: r["presentation"].update(rels="y x^-1 y x y^-1 x ; x y")),
        ("s4-certify", lambda r: r.update(homology=["Z", "Z/2", "Z/2", "0", "Z"])),
    ],
)
def test_checks_reject_wrong_reports(tmp_path, workload, mutate):
    query = workloads.build(workload, 3, tmp_path)[0]
    report = report_for(query)
    assert query.check(report).problems == []
    wrong = copy.deepcopy(report)
    mutate(wrong)
    assert query.check(wrong).problems


def test_tool_checks_reject_wrong_reports(tmp_path):
    queries = workloads.build("group-tools", 3, tmp_path)
    by_command = {}
    for q in queries:
        by_command.setdefault(q.argv[0], q)
    spun_cord = next(q for q in queries if "spun-trefoil" in q.argv)
    cases = [
        (spun_cord, lambda r: r["witness"]["images"].update(x=[0, 1, 2])),
        (spun_cord, lambda r: r.update(verdict="TrivialCordClass")),
        (by_command["simplify"], lambda r: r["after"].update(rels=r["after"]["rels"] + " ; x1^2")),
        (by_command["abelianize"], lambda r: r.update(invariants="Z + Z/2", torsion=[2])),
    ]
    for query, mutate in cases:
        report = report_for(query)
        assert query.check(report).problems == []
        mutate(report)
        assert query.check(report).problems, query.argv


def test_enumerate_check_needs_the_exact_index():
    check = workloads.enumerate_check(10752)
    assert check({"outcome": "Completed", "index": 10752}).problems == []
    assert check({"outcome": "Completed", "index": 10751}).problems
    assert check({"outcome": "Overflow", "index": None}).problems


def test_spec_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "group-tools", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _result_set(path: Path, run_seconds: int, wall: list[float], failed: int) -> str:
    runs = [
        {"workload": "group-tools", "seed": seed, "trace": False, "correct": failed == 0,
         "attempted": 20, "failed": failed if seed == 1 else 0,
         "metrics": {"wall_ref": value}, "detail": {}}
        for seed, value in enumerate(wall, 1)
    ]
    path.write_text(json.dumps({"run_seconds": run_seconds, "runs": runs}))
    return str(path)


def test_compare_refuses_sets_of_other_run_seconds(tmp_path):
    base = _result_set(tmp_path / "base.json", 40, [2.0] * 10, 0)
    change = _result_set(tmp_path / "change.json", 20, [2.0] * 10, 0)
    assert suite.main(["compare", base, change]) == 2


def test_compare_gives_no_gain_to_a_change_that_fails_more(tmp_path, capsys):
    base = _result_set(tmp_path / "base.json", 40, [2.0 + i / 100 for i in range(10)], 0)
    faster = [1.0 + i / 100 for i in range(10)]
    clean = _result_set(tmp_path / "clean.json", 40, faster, 0)
    failing = _result_set(tmp_path / "failing.json", 40, faster, 1)

    def verdict_line(change):
        assert suite.main(["compare", base, change]) == 0
        out = capsys.readouterr().out
        return out, next(line for line in out.splitlines() if "wall_ref" in line)

    out, line = verdict_line(clean)
    assert line.endswith("better") and "FAILING" not in out
    out, line = verdict_line(failing)
    assert line.endswith("unresolved") and "group-tools: failed queries base 0, change 1  FAILING" in out
