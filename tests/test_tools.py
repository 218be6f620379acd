"""``tools/rss_spread.py`` runs fresh processes on two checkouts and
prints each side's sorted peak RSS and median."""

import importlib.util
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


@pytest.mark.parametrize("argv", [["--workload", "stokes_p2_qd_n8"],
                                  [str(ROOT), str(ROOT), "--workload", "stokes_p2_qd_n8", "--procs", "0"]])
def test_rejects_bad_arguments(rss_spread, argv):
    with pytest.raises(SystemExit):
        rss_spread.main(argv)
