"""Output plumbing: file writes, stable formatting, content hashes.

Each writer writes its path directly with ``open()``, so files get mode
0o666 less the umask. Atomicity is the caller's: the driver skeleton in
``mcni.experiments`` writes each output under a temporary name and renames
them all into place once every one is written. Floats serialize with repr
(shortest round-trip form), keeping reruns byte-identical.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

SCHEMA_VERSION = 1


def fmt_float(x) -> str:
    return repr(float(x))


def fmt_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return fmt_float(v)


def jsonable(obj):
    """Recursively convert numpy scalars/arrays for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_cell(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **jsonable(obj)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def manifest_digest(manifest: dict) -> str:
    """Content hash of a manifest without its timings and environment.

    Timings are real measurements and vary between reruns, and the
    environment block names the versions and CPUs a run had; everything
    else in a manifest is a pure function of (config, seed, inputs), so
    this digest is stable across reruns and CPU counts and usable as a
    reproducibility check.
    """
    view = {k: v for k, v in jsonable(manifest).items()
            if k not in ("timings", "environment")}
    blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
