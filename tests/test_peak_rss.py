"""tools/peak_rss.py on tiny child commands."""

import importlib.util
import json
import os
import resource
import sys

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "peak_rss.py")
_spec = importlib.util.spec_from_file_location("peak_rss", _PATH)
peak_rss = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_rss)


def test_reports_exit_code_wall_time_and_peak(capsys):
    before = resource.getrlimit(resource.RLIMIT_AS)
    code = "import sys; sys.stdout.write('discarded'); sys.exit(3)"
    assert peak_rss.main([sys.executable, "-c", code]) == 0
    line = json.loads(capsys.readouterr().out)
    assert set(line) == {"exit", "wall_s", "maxrss_mb"}
    assert line["exit"] == 3
    assert 0 < line["wall_s"] < 60
    assert 1 < line["maxrss_mb"] < 2048
    assert resource.getrlimit(resource.RLIMIT_AS) == before  # the child's alone


def test_the_limit_applies_to_the_child():
    # asking for more address space than the 7 GB limit fails in the child
    # at once, without touching the memory
    code = "bytearray(8 << 30)"
    assert peak_rss.measure([sys.executable, "-c", code])["exit"] == 1
    assert peak_rss.measure([sys.executable, "-c", "pass"])["exit"] == 0


def test_usage_errors(capsys):
    assert peak_rss.main([]) == 2
    assert "peak_rss.py CMD" in capsys.readouterr().err
    assert peak_rss.main([os.path.join(os.path.dirname(_PATH), "no-such-command")]) == 2
