import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "frontier.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("frontier", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frontier_runs_a_spec_in_a_fresh_interpreter():
    """``tools/frontier.py gp-even-3`` prints one JSON line with the
    enumeration, build and rank times, the peak resident set and
    H = {5: 1}, chi = -1, and exits 0: the spec has no baseline to miss."""
    result = subprocess.run([sys.executable, str(TOOL), "gp-even-3"], capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    (line,) = result.stdout.splitlines()
    record = json.loads(line)
    assert record["spec"] == "gp-even-3"
    assert record["dims"] == {"5": 1} and record["chi"] == -1
    assert record["enumerate_s"] >= 0 and record["build_s"] >= 0 and record["rank_s"] >= 0
    assert record["peak_rss_mb"] > 0


def test_frontier_exits_1_off_its_baseline(capsys):
    """The same spec passes against its true (sum of dims, chi) and exits 1
    against any other, or when the child fails.  The baseline also holds
    the rungs past the default ladder, which are not run here: each takes
    30-60 s, and ``gf-odd-6`` peaks near 1.3 GB."""
    tool = load_tool()
    assert tool.LADDER == ("gf-even-5", "gp-even-5", "gp-odd-5", "ass-odd-5", "com-odd-6")
    assert {spec: tool.BASELINE[spec] for spec in set(tool.BASELINE) - set(tool.LADDER)} == {
        "com-even-7": (1, 1), "com-odd-7": (4, 2), "gf-odd-6": (1, -1)}
    assert tool.main(["gp-even-3"], baseline={"gp-even-3": (1, -1)}) == 0
    assert tool.main(["gp-even-3"], baseline={"gp-even-3": (1, 1)}) == 1
    assert "baseline (1, 1)" in capsys.readouterr().err
    assert tool.main(["nokind-even-3"]) == 1
    assert '"error"' in capsys.readouterr().out
