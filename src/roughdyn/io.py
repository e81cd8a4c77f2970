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

__all__ = ["canonical_json", "config_hash", "write_report", "write_series"]


def _plain(obj):
    """Recursively convert numpy containers to JSON-ready python objects
    with full-precision floats."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def canonical_json(payload) -> str:
    return json.dumps(_plain(payload), sort_keys=True, indent=1)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def write_report(path: str, config: dict, payload: dict) -> str:
    """JSON report carrying the resolved config and its hash."""
    doc = {
        "config": _plain(config),
        "config_hash": config_hash(config),
        "report": _plain(payload),
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(canonical_json(doc))
        fh.write("\n")
    return doc["config_hash"]


def write_series(path: str, sampled_path, config: dict) -> str:
    """CSV time series with the config hash echoed in the header."""
    from .paths import path_to_csv

    h = config_hash(config)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        path_to_csv(sampled_path, fh, header_lines=[f"config_hash: {h}"])
    return h
