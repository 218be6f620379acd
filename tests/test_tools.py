"""``tools/rss_spread.py`` runs fresh processes on two checkouts and
prints each side's median, the count of its peaks above the parent's
median by more than the benchmark's bound, and its sorted peaks; it
refuses two checkouts whose benchmark files differ.  The checked-in
``BENCH_*.json`` files share one schema."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def rss_spread():
    spec = importlib.util.spec_from_file_location("rss_spread", ROOT / "tools" / "rss_spread.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_process_per_side(rss_spread, capsys):
    assert rss_spread.main([str(ROOT), str(ROOT), "--workload", "stokes_p2_qd_n8", "--procs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["parent", "change"]
    for line in lines:
        median, peak = float(line.split()[2]), float(line.split()[-1])
        assert median == peak > 0
    assert int(lines[0].split()[4]) == 0  # no parent peak is above its own median


def test_bound_comes_from_the_benchmark(rss_spread, tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert rss_spread.peak_rss_bound() == next(m["bound"] for m in declared if m["name"] == "peak_rss_mb")
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [{"name": "setup_s", "bound": 0.25},
                                               {"name": "peak_rss_mb", "bound": 0.5}]}))
    assert rss_spread.peak_rss_bound(path) == 0.5


def test_counts_peaks_above_the_parent_median_by_the_bound(rss_spread):
    # parent median 100 and bound 0.1: a peak counts when above 110
    lines = rss_spread.report({"parent": [90.0, 100.0, 120.0], "change": [100.0, 110.0, 111.0, 150.0]}, 0.1)
    assert [line.split()[:6] for line in lines] == [
        ["parent", "median", "100.0", "MB", "1", "above"],
        ["change", "median", "110.5", "MB", "2", "above"],
    ]
    assert lines[1].split()[-4:] == ["100.0", "110.0", "111.0", "150.0"]


@pytest.mark.parametrize("argv", [["--workload", "stokes_p2_qd_n8"],
                                  [str(ROOT), str(ROOT), "--workload", "stokes_p2_qd_n8", "--procs", "0"]])
def test_rejects_bad_arguments(rss_spread, argv):
    with pytest.raises(SystemExit):
        rss_spread.main(argv)


def fake_checkout(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


BENCH_FILES = {"BENCHMARK.json": "{}", "perfbench/run.py": "run", "perfbench/bench_trace.py": "trace"}


@pytest.mark.parametrize("edit, differs", [
    ({}, None),
    ({"perfbench/run.py": "run2"}, "perfbench/run.py"),
    ({"perfbench/run.py": "run2", "BENCHMARK.json": "[]"}, "BENCHMARK.json"),
    ({"perfbench/a.py": "new", "perfbench/run.py": "run2"}, "perfbench/a.py"),
    ({"perfbench/README.md": "notes"}, None),
])
def test_names_the_first_benchmark_file_that_differs(rss_spread, tmp_path, edit, differs):
    parent = fake_checkout(tmp_path / "parent", BENCH_FILES)
    change = fake_checkout(tmp_path / "change", {**BENCH_FILES, **edit})
    assert rss_spread.first_difference(parent, change) == differs
    assert rss_spread.first_difference(change, parent) == differs


def test_refuses_checkouts_whose_benchmarks_differ(rss_spread, tmp_path, capsys):
    parent = fake_checkout(tmp_path / "parent", BENCH_FILES)
    change = fake_checkout(tmp_path / "change", {**BENCH_FILES, "perfbench/bench_trace.py": "trace2"})
    with pytest.raises(SystemExit) as exc:
        rss_spread.main([str(parent), str(change), "--workload", "stokes_p2_qd_n8", "--procs", "1"])
    assert exc.value.code != 0
    assert "perfbench/bench_trace.py differs" in capsys.readouterr().err


# the keys every checked-in bench file holds; peak-RSS evidence, when a
# file has any, sits under peak_rss_spread
BENCH_KEYS = {"label", "what", "command", "seeds", "order", "parent", "change", "host", "threads", "summary", "runs"}


def test_bench_files_share_one_schema():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench = json.loads(path.read_text())
        assert BENCH_KEYS <= set(bench), (path.name, BENCH_KEYS - set(bench))
        assert [key for key in bench if "rss" in key] in ([], ["peak_rss_spread"]), path.name
        if "peak_rss_spread" in bench:
            assert {"protocol", "unit"} <= set(bench["peak_rss_spread"]), path.name
