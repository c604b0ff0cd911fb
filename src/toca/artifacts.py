"""Deterministic run artifacts: JSON, CSV, PGM and raw feature dumps.

Every emitted file carries the run's 12-hex-digit config hash so artifacts
can always be traced back to the exact settings that produced them, and all
writes go through a write-then-rename so readers never observe a torn file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from .model import FeatureMatrix

FEATURES_MAGIC = "TOCA-X0"


def config_hash(items: dict[str, str]) -> str:
    """12 hex digits identifying a flat key=value view of the effective config."""
    lines = [f"{k}={items[k]}" for k in sorted(items)]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:12]


def atomic_write_bytes(path: str, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path: str, obj: dict) -> None:
    """Pretty, key-sorted JSON; the object should already carry config_hash."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path: str, header: list[str], rows, cfg_hash: str) -> None:
    """CSV with a leading '# config <hash>' provenance line."""
    buf = io.StringIO()
    buf.write(f"# config {cfg_hash}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def write_pgm(path: str, pgm_bytes: bytes) -> None:
    atomic_write_bytes(path, pgm_bytes)


def write_feature_grid(path: str, features: FeatureMatrix, cfg_hash: str) -> None:
    """Raw float32 little-endian dump with a one-line ASCII header.

    Raises ValueError, writing nothing, when a value is not finite in float32.
    """
    h, w = features.grid
    d = features.hidden
    header = f"{FEATURES_MAGIC} {cfg_hash} {h} {w} {d}\n".encode("ascii")
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(features.values, dtype="<f4")
    if not np.isfinite(payload).all():
        raise ValueError("feature values are not finite in float32; nothing written")
    atomic_write_bytes(path, header + payload.tobytes())


def read_feature_grid(path: str) -> tuple[FeatureMatrix, str]:
    """Inverse of write_feature_grid; returns (features, config hash)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        parts = header.split()
        if len(parts) != 5 or parts[0] != FEATURES_MAGIC:
            raise ValueError(f"not a {FEATURES_MAGIC} file: {header!r}")
        cfg_hash = parts[1]
        h, w, d = (int(p) for p in parts[2:])
        raw = fh.read()
    expected = h * w * d * 4
    if len(raw) != expected:
        raise ValueError(f"expected {expected} payload bytes, found {len(raw)}")
    values = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(h * w, d)
    return FeatureMatrix(values, (h, w)), cfg_hash
