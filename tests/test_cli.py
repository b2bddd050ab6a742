import concurrent.futures
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from pochette import cli, surgery
from pochette.cli import _json, _render_text, _sweep_slopes, main


CORPUS = Path(__file__).parent / "corpus"
Z6 = str(CORPUS / "z6.txt")
# (lo, hi) with lo <= hi; crossing zero, so negative p, p = 0 and q = 0 all occur
RANGES = st.tuples(st.integers(-7, 7), st.integers(0, 9)).map(lambda t: (t[0], t[0] + t[1]))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def strip_volatile(report):
    report = dict(report)
    report.pop("wall_ms", None)
    report.pop("command", None)
    return report


class TestRenderText:
    def test_scalars_print_as_json_and_strings_raw(self):
        report = {
            "none": None, "yes": True, "no": False, "neg": -3, "zero": 0,
            "float": 2.5, "whole_float": 12.0, "dict": {}, "list": [], "text": "null",
        }
        assert _render_text(report) == [
            "none: null", "yes: true", "no: false", "neg: -3", "zero: 0",
            "float: 2.5", "whole_float: 12.0", "dict: {}", "list: []", "text: null",
        ]


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()  # nan and +-inf included
    | st.text()
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=24,
)


class TestJson:
    @given(JSON_VALUES)
    @example({})
    @example({"rows": [], "witness": None, "membership": {}})
    @example({"\u00e9\n\"\\": ["\u2028", "\x00", "\U0001f600", 2**64 + 1, -(2**70)]})
    @example([float("nan"), float("inf"), -float("inf"), 0.1, -0.0, 1e300])
    @example({"rows": [{"p": 1, "q": [2, {"r": []}]}, [[[]]]]})
    # rows of scalars, one of them empty, whose strings spell the text between rows
    @example({"rows": [{"h1": "},\n      {", "p": None}, {"}": "{", "q": -0.0}]})
    @example([{"a": 1}, {}, {"b": 2}])
    @settings(max_examples=500, deadline=None)
    def test_matches_json_dumps(self, value):
        assert _json(value) == json.dumps(value, indent=2)

    def test_without_the_c_encoder(self, monkeypatch):
        # an interpreter without json's C accelerator encodes in Python
        value = {
            "rows": [{"p": 1, "h1": "Z/2", "pi1_index": None}, {"p": 2, "h1": "Z", "pi1_index": 1}],
            "x": [1.5, "\u00e9"],
        }
        monkeypatch.setattr(cli, "c_make_encoder", None)
        cli._scalars_encoder.cache_clear()
        try:
            assert _json(value) == json.dumps(value, indent=2)
        finally:
            cli._scalars_encoder.cache_clear()


class TestCword:
    def test_examples(self, capsys):
        for argv, expected in [
            (("cword", "-p", "1", "-q", "0"), "m"),
            (("cword", "-p", "2", "-q", "1"), "m l m"),
            (("cword", "-p", "3", "-q", "4"), "l m l m l^2 m"),
        ]:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and out.strip() == expected

    def test_not_coprime_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "cword", "-p", "2", "-q", "4")
        assert code == 2 and "coprime" in err

    def test_slope_zero_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "cword", "-p", "0", "-q", "1")
        assert code == 2


class TestSurger:
    def test_criterion_one_fields(self, capsys):
        report = run_json(
            capsys, "surger", "spun-trefoil",
            "--meridian", "x", "--longitude", "y", "--slope", "1/2",
        )
        assert report["schema"] == 1
        assert report["linking"] == -1
        assert report["p_plus_q_ell"] == -1
        assert report["presentation"] == {
            "gens": "x, y",
            "rels": "y x^-1 y x y^-1 x ; y^2 x",
        }
        assert report["verdict"]["kind"] == "HomeoS4Certified"
        assert report["enumeration"]["index"] == 1
        assert report["homology"] == ["Z", "0", "0", "0", "Z"]

    def test_zero_branch_report(self, capsys):
        report = run_json(capsys, "surger", "spun-trefoil", "--slope", "1/1")
        assert report["verdict"]["kind"] == "NotHomotopySphere"
        assert report["homology"][2] == "Z^2"

    def test_degenerate_input_rejected(self, capsys, tmp_path):
        path = tmp_path / "free.txt"
        path.write_text("gens: x,y\nrels:\n")
        code, _, err = run_cli(
            capsys, "surger", str(path),
            "--meridian", "x", "--longitude", "y", "--slope", "1/2",
        )
        assert code == 2
        assert "abelianization" in err.lower() or "generate" in err.lower()

    def test_file_source_requires_words(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("gens: x,y\nrels: y x^-1 y x y^-1 x\n")
        code, _, err = run_cli(capsys, "surger", str(path), "--slope", "1/2")
        assert code == 2 and "--meridian" in err

    def test_unknown_verdict_still_exits_zero(self, capsys):
        # <x> needs 3 cosets at slope 1/2, so at 2 both enumerations overflow
        code, out, _ = run_cli(
            capsys, "surger", "spun-trefoil", "--slope", "1/2",
            "--max-cosets", "2", "--format", "json",
        )
        assert code == 0
        verdict = json.loads(out)["verdict"]
        assert verdict["kind"] == "Unknown"
        assert verdict["certificate"] is None

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "surger", "nope.txt", "--slope", "1/2")
        assert code == 2 and "cannot read" in err

    def test_text_json_field_parity(self, capsys):
        code, text_out, _ = run_cli(
            capsys, "surger", "spun-trefoil", "--slope", "1/2", "--format", "text"
        )
        assert code == 0
        report = run_json(capsys, "surger", "spun-trefoil", "--slope", "1/2")
        # rendering the JSON document must reproduce the text output,
        # modulo the volatile fields
        def normalize(lines):
            return [
                line for line in lines
                if not line.startswith("wall_ms:") and not line.startswith("command:")
            ]
        rendered = normalize(_render_text(report))
        assert normalize(text_out.splitlines()) == rendered

    def test_reports_reproduce(self, capsys):
        a = strip_volatile(run_json(capsys, "surger", "spun-trefoil", "--slope", "1/2"))
        b = strip_volatile(run_json(capsys, "surger", "spun-trefoil", "--slope", "1/2"))
        assert a == b

    def test_echo_carries_the_normalized_slope(self, capsys):
        report = run_json(capsys, "surger", "spun-trefoil", "--slope=-1/-2")
        assert report["command"] == (
            "pochette surger spun-trefoil --meridian=x --longitude=y --slope=1/2 "
            "--framing=0 --max-cosets=100000 --format=json"
        )

    def test_framing_echoed_not_consumed(self, capsys):
        r0 = strip_volatile(run_json(capsys, "surger", "spun-trefoil", "--slope", "1/2", "--framing", "0"))
        r1 = strip_volatile(run_json(capsys, "surger", "spun-trefoil", "--slope", "1/2", "--framing", "1"))
        assert r0["verdict"] == r1["verdict"]
        assert r0["slope"]["epsilon"] == 0 and r1["slope"]["epsilon"] == 1
        assert "epsilon_note" in r0


def clear_caches():
    """Empty every per-process cache of a report, so the next query runs as a fresh process's."""
    for cached in (surgery._per_n, cli._fusion, cli._embedding):
        cached.cache_clear()


class TestSourceWorkOncePerProcess:
    """Presets, parsed files and embeddings are kept between queries of one process."""

    def test_rewritten_file_is_read_again(self, capsys, tmp_path):
        path = tmp_path / "knot.txt"
        argv = ("surger", str(path), "--meridian", "x", "--longitude", "y", "--slope", "1/2")
        path.write_text("gens: x, y\nrels: y x^-1 y x y^-1 x\n")
        first = run_json(capsys, *argv)
        path.write_text("gens: x, y\nrels: x y^-1\n")
        second = run_json(capsys, *argv)
        assert (first["linking"], first["presentation"]["rels"]) == (
            -1, "y x^-1 y x y^-1 x ; y^2 x",
        )
        assert (second["linking"], second["presentation"]["rels"]) == (1, "x y^-1 ; y^2 x")
        # a fusion file's parse is kept, keyed by the text read, not by its path
        fusion = tmp_path / "knot.fus"
        befores = []
        for text in ("n: 1\nband: 1 1 2\n", "n: 1\nband: x2 x1 2 1\n"):
            fusion.write_text(text)
            befores.append(run_json(capsys, "simplify", f"fusion:{fusion}")["before"]["rels"])
        assert befores == ["x1 x2^-1", "x2 x1 x2 x1^-1 x2^-1 x1^-1"]

    def test_each_longitude_reports_as_a_fresh_process(self, capsys):
        for longitude in ("y", "x y x", "y"):
            argv = ("surger", "spun-trefoil", f"--longitude={longitude}", "--slope=1/2")
            in_process = run_json(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "pochette", *argv, "--format=json"],
                capture_output=True, text=True,
            )
            expected = json.loads(fresh.stdout)
            in_process.pop("wall_ms"), expected.pop("wall_ms")
            assert in_process == expected

    def test_alternating_sources_keep_their_embeddings(self, capsys):
        # a benchmark pass sweeps spun trefoil, then a fusion file, then again
        clear_caches()
        for _ in range(2):
            for source in ("spun-trefoil", f"fusion:{CORPUS / 'fusion10.txt'}"):
                run_json(capsys, "sweep", source, "--p-range=2:2", "--q-range=1:1")
        assert (cli._embedding.cache_info().misses, cli._embedding.cache_info().hits) == (2, 2)

    def test_errors_are_not_kept(self, capsys, tmp_path):
        fusion = tmp_path / "knot.fus"
        fusion.write_text("n: 2\nband: x1 1 2\nband: x2 2 1\n")
        cases = [
            (("surger", "spun-trefoil", "--meridian", "x^2", "--slope", "1/2"),
             "error: meridian 'x^2' does not generate the abelianization\n"),
            (("abelianize", f"fusion:{fusion}"), "error: line 3: band graph contains a cycle\n"),
        ]
        for argv, error in cases:
            for _ in range(2):
                code, _, err = run_cli(capsys, *argv)
                assert (code, err) == (2, error)


class TestSweep:
    def test_rows_match_fresh_surger_reports(self, capsys):
        # one process sweeps three sources of linking -1, -1 and 1 over grids
        # that reach 0/1, n = 0, |n| = 1 and |n| >= 2; every row must read as
        # a surger report of its slope in a process with no cache filled
        grids = [
            ("spun-trefoil", "0:4", "-3:5"),
            ("one-fusion:x^-1*y:+1", "0:4", "-3:5"),
            (f"fusion:{CORPUS / 'fusion10.txt'}", "0:4", "-4:4"),
        ]
        sweeps = [
            (source, run_json(capsys, "sweep", source, f"--p-range={p}", f"--q-range={q}"))
            for source, p, q in grids
        ]
        seen = set()
        for source, report in sweeps:
            for row in report["rows"]:
                clear_caches()
                fresh = run_json(capsys, "surger", source, f"--slope={row['p']}/{row['q']}")
                assert row == {
                    "p": row["p"],
                    "q": row["q"],
                    "p_plus_q_ell": fresh["p_plus_q_ell"],
                    "h1": fresh["homology"][1],
                    "h2": fresh["homology"][2],
                    "verdict": fresh["verdict"]["kind"],
                    "pi1_index": fresh["verdict"]["pi1_index"],
                }
                n = row["p_plus_q_ell"]
                seen.add("0/1" if row["p"] == 0 else min(abs(n), 2))
        assert seen == {"0/1", 0, 1, 2}

    def test_only_obstructions_are_kept_by_n(self, capsys):
        # both slopes have p + q*linking = 1, where each group decides its own
        # verdict: no verdict of one may be served to the other
        icosahedral = (
            "surger", str(CORPUS / "icosahedral.txt"), "--meridian=s^-1*t^2",
            "--longitude=s*t*s*t*s^-3*t^-2*s", "--slope=1/1", "--max-cosets=5000",
        )
        trefoil = ("surger", "spun-trefoil", "--slope=2/1")
        expected = {icosahedral: ("NontrivialPi1", 120), trefoil: ("HomeoS4Certified", 1)}
        for argv in (icosahedral, trefoil, icosahedral, trefoil):
            report = run_json(capsys, *argv)
            verdict = report["verdict"]
            assert report["p_plus_q_ell"] == 1
            assert (verdict["kind"], verdict["pi1_index"]) == expected[argv]

    def test_one_fusion_p_over_p_plus_one_family(self, capsys):
        report = run_json(
            capsys, "sweep", "one-fusion:x^-1*y:+1",
            "--p-range", "1:6", "--q-range", "2:7", "--max-cosets", "20000",
        )
        rows = {(r["p"], r["q"]): r for r in report["rows"]}
        for p in range(1, 7):
            row = rows[(p, p + 1)]
            assert row["verdict"] == "HomeoS4Certified", row

    def test_zero_linking_torsion_rows(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("gens: x,y\nrels: y x^-1 y x y^-1 x\n")
        report = run_json(
            capsys, "sweep", str(path),
            "--meridian", "x", "--longitude", "1",
            "--p-range", "2:5", "--q-range", "1:1",
        )
        assert len(report["rows"]) == 4
        assert all(r["verdict"] == "NotHomotopySphere" for r in report["rows"])

    def test_empty_grid(self, capsys):
        report = run_json(
            capsys, "sweep", "spun-trefoil",
            "--p-range", "2:4", "--q-range", "0:0",
        )
        assert report["rows"] == []

    def test_jobs_do_not_change_output(self, capsys):
        argv = (
            "sweep", "spun-trefoil", "--p-range", "1:3", "--q-range=-2:3",
            "--max-cosets", "5000",
        )
        serial = strip_volatile(run_json(capsys, *argv, "--jobs", "1"))
        parallel = strip_volatile(run_json(capsys, *argv, "--jobs", "3"))
        assert serial == parallel

    def test_rows_sorted_canonically(self, capsys):
        report = run_json(
            capsys, "sweep", "spun-trefoil", "--p-range", "1:3", "--q-range=-3:3",
            "--max-cosets", "2000",
        )
        keys = [(r["p"], r["q"]) for r in report["rows"]]
        assert keys == sorted(keys)
        assert all(k[0] >= 0 for k in keys)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_input_error(self, capsys, jobs):
        code, out, err = run_cli(
            capsys, "sweep", "spun-trefoil", "--p-range", "1:1", "--q-range", "1:1",
            "--jobs", jobs,
        )
        assert code == 2 and out == "" and err == "error: --jobs must be at least 1\n"

    @staticmethod
    def recording_pool(monkeypatch, cpus, affinity=None):
        """A pool that records (max_workers, chunksize) and maps in-process.

        The machine has ``cpus`` CPUs, and the process may run on
        ``affinity`` of them, or the OS keeps no affinity mask when None.
        """
        calls = []

        class RecordingPool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                calls.append((self.max_workers, chunksize))
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(affinity)))
        return calls

    @pytest.mark.parametrize(
        "jobs, cpus, p_range, pools",
        [
            ("5000", 64, "1:3", [3]),  # capped at the number of slopes
            ("5000", 2, "1:3", [2]),  # capped at the number of CPUs
            ("5000", None, "1:3", []),  # CPU count unknown: serial
            ("5000", 64, "1:1", []),  # one slope: serial
            ("2", 64, "1:3", [2]),  # below both caps: as asked
        ],
    )
    def test_jobs_capped_before_the_pool_starts(
        self, capsys, monkeypatch, jobs, cpus, p_range, pools
    ):
        calls = self.recording_pool(monkeypatch, cpus)
        argv = (
            "sweep", "spun-trefoil", "--p-range", p_range, "--q-range", "1:1",
            "--max-cosets", "2000",
        )
        capped = strip_volatile(run_json(capsys, *argv, "--jobs", jobs))
        assert [workers for workers, _ in calls] == pools
        assert capped == strip_volatile(run_json(capsys, *argv, "--jobs", "1"))

    @pytest.mark.parametrize(
        "cpus, affinity, pools",
        [
            (2, 1, []),  # one usable CPU of two: serial
            (64, 3, [3]),  # capped at the usable CPUs
            (None, 2, [2]),  # the mask counts when the CPU count is unknown
        ],
    )
    def test_jobs_capped_at_the_affinity_mask(self, capsys, monkeypatch, cpus, affinity, pools):
        calls = self.recording_pool(monkeypatch, cpus, affinity)
        argv = ("sweep", "spun-trefoil", "--p-range", "1:5", "--q-range", "1:1", "--jobs", "5")
        run_json(capsys, *argv)
        assert [workers for workers, _ in calls] == pools

    @pytest.mark.parametrize("jobs, chunksize", [("2", 5), ("3", 4), ("40", 1)])
    def test_slopes_go_to_workers_in_chunks(self, capsys, monkeypatch, jobs, chunksize):
        # 40 slopes: about four chunks per worker, not one slope per round trip
        calls = self.recording_pool(monkeypatch, 64)
        argv = ("sweep", "spun-trefoil", "--p-range", "1:40", "--q-range", "1:1")
        rows = strip_volatile(run_json(capsys, *argv, "--jobs", jobs))
        assert calls == [(int(jobs), chunksize)]
        assert rows == strip_volatile(run_json(capsys, *argv, "--jobs", "1"))

    def test_bad_range(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "spun-trefoil", "--p-range", "3:1", "--q-range", "1:2"
        )
        assert code == 2 and "range" in err

    @given(RANGES, RANGES)
    @example((-1, 1), (-1, 1))
    @settings(max_examples=300, deadline=None)
    def test_slopes_match_normalizing_every_point(self, p_range, q_range):
        assert _sweep_slopes(p_range, q_range) == oracles.sweep_slopes_oracle(p_range, q_range)


class TestEnumerate:
    def test_cyclic_five(self, capsys, tmp_path):
        path = tmp_path / "c5.txt"
        path.write_text("gens: x\nrels: x^5\n")
        report = run_json(capsys, "enumerate", str(path))
        assert report["outcome"] == "Completed" and report["index"] == 5

    def test_subgroup_flag(self, capsys, tmp_path):
        path = tmp_path / "d8.txt"
        path.write_text("gens: x,y\nrels: y^2; x y x y; x^4\n")
        report = run_json(capsys, "enumerate", str(path), "--subgroup", "x")
        assert report["index"] == 2
        assert report["subgroup"] == ["x"]

    def test_overflow_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "free.txt"
        path.write_text("gens: x,y\nrels:\n")
        report = run_json(capsys, "enumerate", str(path), "--max-cosets", "50")
        assert report["outcome"] == "Overflow" and report["index"] is None


class TestAbelianize:
    def test_spun_trefoil_is_Z(self, capsys):
        report = run_json(capsys, "abelianize", "spun-trefoil")
        assert report["invariants"] == "Z"
        assert report["free_rank"] == 1 and report["torsion"] == []

    def test_fusion_source(self, capsys, tmp_path):
        path = tmp_path / "f.fus"
        path.write_text("n: 2\nband: x1 x3^-1 1 2\nband: x2 2 3\n")
        report = run_json(capsys, "abelianize", f"fusion:{path}")
        assert report["invariants"] == "Z"

    def test_parse_error_carries_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("gens: x\nrels: z\n")
        code, _, err = run_cli(capsys, "abelianize", str(path))
        assert code == 2 and "line 2" in err

    def test_fusion_band_error_carries_line(self, capsys, tmp_path):
        path = tmp_path / "bad.fus"
        path.write_text("n: 2\nband: x1 1 2\nband: z9 2 3\n")
        code, out, err = run_cli(capsys, "abelianize", f"fusion:{path}")
        assert (code, out, err) == (2, "", "error: line 3: unknown generator 'z9'\n")

    @pytest.mark.parametrize(
        "band, error",
        [
            ("x2 2 9", "band endpoint out of range: (2, 9)"),
            ("x2 2 2", "band may not join disk 2 to itself"),
            # a letter beyond x(n+1) is no generator of the file's alphabet
            ("x9 2 3", "unknown generator 'x9'"),
            ("x2 2 1", "band graph contains a cycle"),
        ],
        ids=["endpoint-out-of-range", "disk-joined-to-itself", "letter-outside", "cycle"],
    )
    def test_fusion_graph_error_carries_line(self, capsys, tmp_path, band, error):
        path = tmp_path / "bad.fus"
        path.write_text(f"n: 2\n# the first band\nband: x1 1 2\n\nband: {band}\n")
        code, out, err = run_cli(capsys, "abelianize", f"fusion:{path}")
        assert (code, out, err) == (2, "", f"error: line 5: {error}\n")

    @pytest.mark.parametrize(
        "text, error",
        [
            ("# header\nn: 0\n", "line 2: fusion count must be at least 1"),
            ("# header\nn: -2\n", "line 2: fusion count must be at least 1"),
            ("# header\n\nn: 2\nband: x1 1 2\n", "line 3: expected 2 bands, got 1"),
        ],
        ids=["zero-count", "negative-count", "too-few-bands"],
    )
    def test_fusion_count_error_carries_the_n_line(self, capsys, tmp_path, text, error):
        path = tmp_path / "bad.fus"
        path.write_text(text)
        code, out, err = run_cli(capsys, "abelianize", f"fusion:{path}")
        assert (code, out, err) == (2, "", f"error: {error}\n")


class TestSimplify:
    def test_collapses_to_empty(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("gens: x, y\nrels: y^2 x ; y\n")
        report = run_json(capsys, "simplify", str(path))
        assert report["after"] == {"gens": "", "rels": ""}
        assert report["budget_exhausted"] is False

    def test_step_budget(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("gens: x,y\nrels: y x^-1 y x y^-1 x ; y^2 x\n")
        report = run_json(capsys, "simplify", str(path), "--steps", "1")
        assert report["steps_applied"] == 1 and report["budget_exhausted"] is True


class TestCordcheck:
    def test_spun_trefoil_cord(self, capsys):
        report = run_json(
            capsys, "cordcheck", "spun-trefoil", "--cord", "y",
            "--max-cosets", "2000", "--degree", "3",
        )
        assert report["verdict"] == "NontrivialCordCertified"
        assert report["witness"]["degree"] == 3
        images = report["witness"]["images"]
        assert set(images) == {"x", "y"}

    def test_meridian_powers(self, capsys):
        for k in range(1, 6):
            report = run_json(
                capsys, "cordcheck", "spun-trefoil", "--cord", f"x^{k}",
                "--max-cosets", "500",
            )
            assert report["verdict"] == "TrivialCordClass"

    def test_long_cords(self, capsys):
        # trying every meridian power up to the cord's length took minutes here
        report = run_json(
            capsys, "cordcheck", "spun-trefoil", "--cord", "x^50000 y",
            "--max-cosets", "1000", "--degree", "3",
        )
        assert report["verdict"] == "Unknown"
        assert report["detail"] == "enumeration overflowed at 1000 cosets"
        report = run_json(
            capsys, "cordcheck", "spun-trefoil", "--meridian", "y x y^-1",
            "--cord", "y x^-50000 y^-1", "--max-cosets", "1000", "--degree", "3",
        )
        assert report["verdict"] == "TrivialCordClass"
        assert report["detail"] == "cord is visibly meridian^-50000"


class TestGenFusion:
    def test_zero_max_word_len_gives_empty_bands(self, capsys):
        from pochette.ribbon import parse_fusion_file

        code, out, _ = run_cli(capsys, "gen-fusion", "--n", "2", "--max-word-len", "0")
        assert code == 0
        assert all(len(band[0]) == 0 for band in parse_fusion_file(out).bands)

    def test_deterministic_and_parseable(self, capsys):
        from pochette.ribbon import parse_fusion_file

        code, out1, _ = run_cli(capsys, "gen-fusion", "--n", "3", "--seed", "11")
        code, out2, _ = run_cli(capsys, "gen-fusion", "--n", "3", "--seed", "11")
        assert out1 == out2
        data = parse_fusion_file(out1)
        assert data.n == 3

    def test_different_seeds_differ(self, capsys):
        outs = set()
        for seed in range(6):
            _, out, _ = run_cli(capsys, "gen-fusion", "--n", "3", "--seed", str(seed))
            outs.add(out)
        assert len(outs) > 1


class TestBudgetEnvOverrides:
    def test_max_cosets_env(self, capsys, monkeypatch):
        monkeypatch.setenv("POCHETTE_MAX_COSETS", "2")
        report = run_json(capsys, "surger", "spun-trefoil", "--slope", "1/2")
        assert report["verdict"]["kind"] == "Unknown"
        assert report["enumeration"]["max_cosets"] == 2

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("POCHETTE_MAX_COSETS", "many")
        code, _, err = run_cli(capsys, "surger", "spun-trefoil", "--slope", "1/2")
        assert code == 2


class TestBudgetFlags:
    """A given flag is never replaced by the default, even when it is 0."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("surger", "spun-trefoil", "--slope=1/2", "--max-cosets", "0"),
            ("cordcheck", "spun-trefoil", "--cord", "y", "--degree", "0"),
            ("simplify", "spun-trefoil", "--steps", "0"),
        ],
    )
    def test_zero_flag_is_input_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("surger", "spun-trefoil", "--slope=1/2", "--max-cosets", "0"),
             "error: max_cosets must be at least 1, got 0\n"),
            (("simplify", "spun-trefoil", "--steps", "0"),
             "error: tietze_steps must be at least 1, got 0\n"),
            (("cordcheck", "spun-trefoil", "--cord", "y", "--degree", "1"),
             "error: quotient_degree must be at least 2, got 1\n"),
        ],
        ids=["max_cosets", "tietze_steps", "quotient_degree"],
    )
    def test_error_names_the_budget(self, capsys, argv, message):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err == message

    def test_budgets_a_command_does_not_take_are_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("POCHETTE_QUOTIENT_DEGREE", "1")
        monkeypatch.setenv("POCHETTE_MAX_COSETS", "0")
        code, _, err = run_cli(capsys, "simplify", "spun-trefoil")
        assert code == 0, err

    def test_env_budget_the_command_takes_is_checked(self, capsys, monkeypatch):
        monkeypatch.setenv("POCHETTE_QUOTIENT_DEGREE", "1")
        code, _, err = run_cli(capsys, "cordcheck", "spun-trefoil", "--cord", "y")
        assert code == 2 and err == "error: quotient_degree must be at least 2, got 1\n"

    def test_negative_enumerate_budget_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pochette", "enumerate", "spun-trefoil",
             "--max-cosets", "-1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


class TestEntryPoint:
    def test_import_loads_no_process_pool(self):
        # only a sweep with --jobs above 1 needs multiprocessing
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, pochette.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pochette", "cword", "-p", "2", "-q", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "m l m"

    def test_closed_stdout_exits_one_without_a_traceback(self):
        # the report is far larger than a pipe's buffer, so the CLI is still
        # writing it when the reader leaves
        with subprocess.Popen(
            [sys.executable, "-m", "pochette", "sweep", "spun-trefoil",
             "--p-range=1:39", "--q-range=-40:40", "--format=json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (1, b"")

    def test_echoed_command_reproduces_output(self):
        first = subprocess.run(
            [sys.executable, "-m", "pochette", "surger", "spun-trefoil",
             "--slope", "1/2", "--format", "json"],
            capture_output=True, text=True,
        )
        report = json.loads(first.stdout)
        echoed = report["command"].split()[1:]  # drop the program name
        second = subprocess.run(
            [sys.executable, "-m", "pochette", *echoed],
            capture_output=True, text=True,
        )
        a, b = json.loads(first.stdout), json.loads(second.stdout)
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b


def _unreadable(kind, path):
    exc = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    return f"cannot read {kind} file {path!r}: {exc}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("surger", Z6, "--slope=1/2"),
         "--meridian is required for presentation file sources"),
        (("sweep", Z6, "--p-range=1:2", "--q-range=1:2"),
         "--meridian is required for presentation file sources"),
        (("cordcheck", Z6, "--cord=y"),
         "--meridian is required for presentation file sources"),
        (("surger", Z6, "--meridian=x", "--slope=1/2"),
         "--longitude is required for presentation file sources"),
        (("surger", "spun-trefoil", "--slope=1/x"), "slope must look like p/q, got '1/x'"),
        (("surger", "spun-trefoil", "--slope=2/4"), "slope (2, 4) is not coprime"),
        (("sweep", "spun-trefoil", "--p-range=3:1", "--q-range=1:2"), "empty range '3:1'"),
        (("sweep", "spun-trefoil", "--p-range=1", "--q-range=1:2"),
         "range must look like lo:hi, got '1'"),
        (("sweep", "spun-trefoil", "--p-range=a:b", "--q-range=1:2"),
         "range bounds must be integers: 'a:b'"),
        (("sweep", "spun-trefoil", "--p-range=1:2", "--q-range=1:2", "--jobs=0"),
         "--jobs must be at least 1"),
        (("cordcheck", "spun-trefoil", "--cord=z"), "unknown generator 'z'"),
        (("enumerate", "spun-trefoil", "--subgroup=z"), "unknown generator 'z'"),
        (("surger", "spun-trefoil", "--meridian=y^2", "--slope=1/2"),
         "meridian 'y^2' does not generate the abelianization"),
        (("surger", "one-fusion:x", "--slope=1/2"),
         "one-fusion preset must look like one-fusion:<word>:<sign>"),
        (("abelianize", "missing.txt"), _unreadable("presentation", "missing.txt")),
        (("abelianize", "fusion:missing.fus"), _unreadable("fusion", "missing.fus")),
        (("gen-fusion", "--n=2", "--max-word-len=-1"), "--max-word-len must be at least 0"),
        (("gen-fusion", "--n=0"), "fusion count must be at least 1"),
        (("gen-fusion", "--n=-3"), "fusion count must be at least 1"),
        (("cword", "-p", "0", "-q", "1"),
         "slope 0/1 has no slope word; the surgery relator is the longitude"),
    ],
)
def test_single_fault_keeps_its_error(capsys, monkeypatch, tmp_path, argv, message):
    """One fault per call: exit 2, nothing on stdout, and exactly that fault's error."""
    monkeypatch.chdir(tmp_path)  # the missing files are missing here
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "source, kind", [("bad.txt", "presentation"), ("fusion:bad.txt", "fusion")]
)
def test_source_not_utf8_is_input_error(capsys, monkeypatch, tmp_path, source, kind):
    monkeypatch.chdir(tmp_path)
    content = b"gens: x\nrels: x\xff\n"
    Path("bad.txt").write_bytes(content)
    with pytest.raises(UnicodeDecodeError) as decoding:
        content.decode("utf-8")
    code, out, err = run_cli(capsys, "abelianize", source)
    message = f"cannot read {kind} file 'bad.txt': {decoding.value}"
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _site(site, message, *argv, files=None, env=None):
    """A row of the input-error table: one raise site, the argv and files that reach it."""
    return pytest.param(argv, files or {}, env or {}, message, id=site)


_FREE = {"free.txt": "gens: x, y\nrels:\n"}
# line 5 of a fusion file, after a good band: (line, error, site)
_FUSION_LINE_5 = [
    ("band: x2 2 9", "band endpoint out of range: (2, 9)", "endpoint-out-of-range"),
    ("band: x2 2 2", "band may not join disk 2 to itself", "disk-joined-to-itself"),
    ("band: x2 2 1", "band graph contains a cycle", "cycle"),
    ("band: z9 2 3", "unknown generator 'z9'", "word"),
    ("band: x2 3", "expected 'band: <word> <i> <j>'", "band-shape"),
    ("band: x2 a 3", "bad disk indices", "disk-indices"),
    ("bands: x2 2 3", "unrecognized line 'bands: x2 2 3'", "unrecognized-line"),
    ("n: 2", "duplicate n: line", "duplicate-n"),
]


@pytest.mark.parametrize(
    "argv, files, env, message",
    [
        # words
        _site("words-malformed-factor", "malformed factor '^2' at position 2",
              "enumerate", "spun-trefoil", "--subgroup=x ^2"),
        _site("words-leading-zero", "malformed factor 'x^01' at position 2",
              "enumerate", "spun-trefoil", "--subgroup=y x^01"),
        _site("words-zero-exponent", "zero exponent at position 2",
              "enumerate", "spun-trefoil", "--subgroup=y x^0"),
        _site("words-unknown-generator", "unknown generator 'z'",
              "cordcheck", "spun-trefoil", "--cord=z"),
        # presentations, each file read by abelianize
        _site("presentations-duplicate-gens", "line 2: duplicate gens: line",
              "abelianize", "p.txt", files={"p.txt": "gens: x\ngens: y\nrels:\n"}),
        _site("presentations-duplicate-rels", "line 3: duplicate rels: line",
              "abelianize", "p.txt", files={"p.txt": "gens: x\nrels: x\nrels: x^2\n"}),
        _site("presentations-unrecognized-line", "line 2: unrecognized line 'stuff'",
              "abelianize", "p.txt", files={"p.txt": "gens: x\nstuff\nrels:\n"}),
        _site("presentations-missing-gens", "presentation text is missing a 'gens:' line",
              "abelianize", "p.txt", files={"p.txt": "rels: x\n"}),
        _site("presentations-missing-rels", "presentation text is missing a 'rels:' line",
              "abelianize", "p.txt", files={"p.txt": "gens: x\n"}),
        _site("presentations-generator-name", "line 2: bad generator name '2x'",
              "abelianize", "p.txt", files={"p.txt": "# header\ngens: x, 2x\nrels:\n"}),
        _site("presentations-relator-column", "line 2: column 10: unknown generator 'z'",
              "abelianize", "p.txt", files={"p.txt": "gens: x\nrels: x ; z\n"}),
        # the error names the gens: line, where the repeated name is
        _site("presentations-duplicate-generator",
              "line 2: duplicate generator names in ['x', 'x']",
              "abelianize", "p.txt", files={"p.txt": "# header\ngens: x, x\n\nrels: x\n"}),
        # surgery
        _site("surgery-slope-zero-zero", "slope (0, 0) is not allowed",
              "surger", "spun-trefoil", "--slope=0/0"),
        _site("surgery-not-coprime", "slope (2, 4) is not coprime",
              "cword", "-p", "2", "-q", "4"),
        _site("surgery-slope-zero-word",
              "slope 0/1 has no slope word; the surgery relator is the longitude",
              "cword", "-p", "0", "-q", "1"),
        _site("surgery-abelianization", "knot group abelianization is not infinite cyclic",
              "surger", "free.txt", "--meridian=x", "--longitude=y", "--slope=1/2",
              files=_FREE),
        _site("surgery-meridian-image", "meridian 'y^2' does not generate the abelianization",
              "surger", "spun-trefoil", "--meridian=y^2", "--slope=1/2"),
        # ribbon: a fusion file's errors name their line
        *[
            _site(f"ribbon-{site}", f"line 5: {error}",
                  "abelianize", "fusion:f.fus",
                  files={"f.fus": f"n: 2\n# the first band\nband: x1 1 2\n\n{line}\n"})
            for line, error, site in _FUSION_LINE_5
        ],
        _site("ribbon-fusion-count", "line 2: fusion count must be at least 1",
              "abelianize", "fusion:f.fus", files={"f.fus": "# header\nn: 0\n"}),
        _site("ribbon-band-count", "line 1: expected 2 bands, got 1",
              "abelianize", "fusion:f.fus", files={"f.fus": "n: 2\nband: x1 1 2\n"}),
        _site("ribbon-bad-count", "line 1: bad fusion count",
              "abelianize", "fusion:f.fus", files={"f.fus": "n: two\n"}),
        _site("ribbon-band-before-n", "line 1: band: before n:",
              "abelianize", "fusion:f.fus", files={"f.fus": "band: 1 1 2\nn: 1\n"}),
        _site("ribbon-missing-n", "fusion file is missing the n: line",
              "abelianize", "fusion:f.fus", files={"f.fus": "# no bands\n"}),
        _site("ribbon-generated-count", "fusion count must be at least 1",
              "gen-fusion", "--n=0"),
        _site("ribbon-preset-shape", "one-fusion preset must look like one-fusion:<word>:<sign>",
              "abelianize", "one-fusion:x"),
        _site("ribbon-preset-sign", "bad sign '2' in one-fusion preset",
              "abelianize", "one-fusion:x:2"),
        # cli
        _site("cli-slope", "slope must look like p/q, got '1/x'",
              "surger", "spun-trefoil", "--slope=1/x"),
        _site("cli-unreadable", _unreadable("presentation", "missing.txt"),
              "abelianize", "missing.txt"),
        _site("cli-meridian-required", "--meridian is required for presentation file sources",
              "surger", "free.txt", "--slope=1/2", files=_FREE),
        _site("cli-range-shape", "range must look like lo:hi, got '1'",
              "sweep", "spun-trefoil", "--p-range=1", "--q-range=1:2"),
        _site("cli-range-bounds", "range bounds must be integers: 'a:b'",
              "sweep", "spun-trefoil", "--p-range=1:2", "--q-range=a:b"),
        _site("cli-range-empty", "empty range '3:1'",
              "sweep", "spun-trefoil", "--p-range=3:1", "--q-range=1:2"),
        _site("cli-jobs", "--jobs must be at least 1",
              "sweep", "spun-trefoil", "--p-range=1:2", "--q-range=1:2", "--jobs=0"),
        _site("cli-max-word-len", "--max-word-len must be at least 0",
              "gen-fusion", "--n=2", "--max-word-len=-1"),
        # budgets
        _site("budgets-least", "max_cosets must be at least 1, got 0",
              "enumerate", "spun-trefoil", "--max-cosets=0"),
        _site("budgets-env-integer", "POCHETTE_MAX_COSETS must be an integer, got 'many'",
              "enumerate", "spun-trefoil", env={"POCHETTE_MAX_COSETS": "many"}),
    ],
)
def test_every_input_error_site(capsys, monkeypatch, tmp_path, argv, files, env, message):
    """Each raise site of an input error the CLI can reach: exit 2, nothing on
    stdout, and one stderr line, ``error:`` and the site's full message.

    Sites no argv reaches: the framing check (argparse restricts --framing
    and --epsilon), an unknown preset name, a fusion sign other than +-1, a
    band word outside x1..x(n+1) (the file's words are parsed over that
    alphabet), a relator or embedding word outside its alphabet, a missing
    substitution image, and a Tietze budget below 1 (Budgets rejects it).
    """
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
