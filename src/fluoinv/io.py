"""CSV and manifest output.

Every CSV starts with a schema comment line and stores floats at 17
significant digits, so reruns of a deterministic command are byte-stable
and usable as regression fixtures.  Each command also writes a manifest
listing every emitted file with its content digest.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from .grid import Grid

__all__ = ["fmt", "write_csv", "write_field_csv", "Manifest"]

SCHEMA_PREFIX = "fluoinv"

FIELD_ROWS_PER_BLOCK = 1024     # rows of a field CSV formatted per block


def fmt(x) -> str:
    """Full-precision, locale-independent float formatting."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def write_csv(path: Path, schema: str, header: list[str], rows) -> Path:
    path = Path(path)
    lines = [f"# schema={SCHEMA_PREFIX}/{schema}", ",".join(header)]
    for row in rows:
        lines.append(",".join(map(fmt, row)))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_field_csv(path: Path, grid: Grid, columns: dict) -> Path:
    """Nodal fields as (x[, y], value...) rows in node order.

    Each row is formatted whole, by one "%.17g" per column over Python
    floats, which gives the bytes of ``fmt`` and takes half its time; the
    row goes through ``write_csv`` as one string.  The floats are made a
    block of FIELD_ROWS_PER_BLOCK rows at a time: whole columns at once
    raised the peak RSS of a grid-100 write by about 2 MB.
    """
    coord_names = ["x", "y"][: grid.dim]
    header = coord_names + list(columns)
    arrays = [grid.coords[:, d] for d in range(grid.dim)]
    arrays += [np.asarray(v.values if hasattr(v, "values") else v, dtype=float)
               for v in columns.values()]
    row = ",".join(["%.17g"] * len(arrays))
    block = FIELD_ROWS_PER_BLOCK
    rows = ((row % values,) for start in range(0, grid.node_count, block)
            for values in zip(*(a[start:start + block].tolist() for a in arrays)))
    return write_csv(path, "nodal-field-v1", header, rows)


class Manifest:
    """Inventory of a command run: configuration echo plus file digests."""

    def __init__(self, command: str, config: dict, seed: int, version: str):
        self.payload = {
            "command": command,
            "config": config,
            "seed": seed,
            "version": version,
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "files": [],
        }

    def add(self, path: Path):
        data = Path(path).read_bytes()
        self.payload["files"].append({
            "name": Path(path).name,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        })

    def write(self, out_dir: Path) -> Path:
        self.payload["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        path = Path(out_dir) / "manifest.json"
        path.write_text(json.dumps(self.payload, indent=2, sort_keys=True) + "\n")
        return path
