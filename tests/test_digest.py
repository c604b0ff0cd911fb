"""tools/digest.py on the smoke workload at one seed: one line per run, equal in every mode."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _digest(*args) -> list[list[str]]:
    cmd = [sys.executable, str(ROOT / "tools" / "digest.py"), "--workloads", "smoke", *args]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=300).stdout
    return [line.split() for line in out.splitlines()]


def test_smoke_digests_agree_across_worker_modes_and_reruns():
    lines = _digest("--seeds", "1")
    assert [(w, s, c, m) for w, s, c, m, _, _ in lines] == [
        ("smoke", "seed=1", cached, f"worker={mode}")
        for cached in ("cached", "uncached")
        for mode in ("found", "off", "floors")
    ]
    for cached in ("cached", "uncached"):
        runs = {m: (splits, sha) for _, _, c, m, splits, sha in lines if c == cached}
        assert len({sha for _, sha in runs.values()}) == 1  # no output bit depends on the worker
        assert runs["worker=off"][0] == "splits=0" != runs["worker=floors"][0]
    assert len({sha for *_, sha in lines}) == 2  # the cache changes the output
    assert _digest("--seeds", "1") == lines
    assert _digest("--seeds", "2")[0][-1] != lines[0][-1]
