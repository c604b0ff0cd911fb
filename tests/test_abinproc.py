"""tools/abinproc.py on the smoke workload: a copy of the package pairs; a changed run record refuses."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _copy(tmp_path: Path, edit=None, module="model.py") -> Path:
    """A checkout holding a copy of this one's src/, optionally edited by edit(module_source)."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        path = tmp_path / "src" / "toca" / module
        path.write_text(edit(path.read_text()))
    return tmp_path


def _abinproc(change: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(ROOT / "tools" / "abinproc.py"), str(ROOT), str(change),
           "--workload", "smoke", "--pairs", "4"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def test_a_copy_of_the_package_is_bitwise_equal_and_timed_in_pairs(tmp_path):
    proc = _abinproc(_copy(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "smoke: run record bitwise equal at seeds 1, 2, 3"
    assert "over 4 pairs" in lines[1]
    assert "median paired difference" in lines[2] and lines[2].endswith("/4 pairs")


def test_a_perturbed_weight_init_exits_1_before_timing(tmp_path):
    def perturb(source: str) -> str:
        assert source.count("(d ** -0.5)") == 1
        return source.replace("(d ** -0.5)", "(d ** -0.49)")

    proc = _abinproc(_copy(tmp_path, perturb))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "smoke: run record differs at seed 1; not timed" in proc.stderr


def test_a_copy_that_miscounts_cached_dispatches_exits_1_before_timing(tmp_path):
    """cache_counts feeds no selection, so x0 alone would pass this copy."""
    def miscount(source: str) -> str:
        assert source.count("self.cache_counts[h] += 1") == 1
        return source.replace("self.cache_counts[h] += 1", "self.cache_counts[h] += 2")

    proc = _abinproc(_copy(tmp_path, miscount, "cache.py"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "smoke: run record differs at seed 1; not timed" in proc.stderr
