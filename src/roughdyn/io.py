"""Run artifacts: canonical config hashing, JSON reports, CSV series.

Every artifact embeds the hash of the fully resolved configuration so a
result is reproducible from its own header.  No timestamps or host info
anywhere: identical (config, seed) must give byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .spectral import _row_blocks

__all__ = ["canonical_json", "config_hash", "write_report", "write_series"]


def canonical_json(payload) -> str:
    """Sorted, indented JSON with full-precision floats; numpy arrays and
    scalars are written as the python values their tolist() gives."""
    return json.dumps(payload, sort_keys=True, indent=1, default=lambda o: o.tolist())


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def write_report(path: str, config: dict, payload: dict) -> None:
    """JSON report carrying the resolved config and its hash."""
    doc = {"config": config, "config_hash": config_hash(config), "report": payload}
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(canonical_json(doc))
        fh.write("\n")


def write_series(path: str, u, config: dict) -> None:
    """CSV time series of a SampledPath: a '# config_hash: ...' line, then
    `t, mode_1..mode_N` rows with 17 significant digits."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    # the rows csv.writer would write: comma-separated, "\r\n"-terminated
    names = ["t"] + [f"mode_{i + 1}" for i in range(u.n_modes)]
    row = ",".join(["%.17g"] * len(names)) + "\r\n"
    times = u.times
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash: {config_hash(config)}\n")
        fh.write(",".join(names) + "\r\n")
        # rows whose listed Python floats (four float64s each) fill half a
        # piece: the whole table would hold five times the path, and a full
        # piece of them often took a fresh 1 MiB pymalloc arena (+0.9 MB RSS)
        for rows in _row_blocks(u.n_nodes, 8 * len(names)):
            block = np.column_stack([times[rows], u.values[rows]])
            fh.writelines(row % tuple(r) for r in block.tolist())
