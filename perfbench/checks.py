"""Output checks: result fingerprints and the references recorded with them."""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

REFERENCES = pathlib.Path(__file__).with_name("references.json")


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def sim_fingerprint(result) -> str:
    """SHA-256 over everything a simulation observably produced.

    Covers every frame's ``FrameGpuStats.as_dict()``, each cache's
    hit/miss/access triple, the per-client memory read and write bytes,
    and the digest of every rendered image the result carries.
    """
    doc = {
        "frames": [fs.as_dict() for fs in result.frame_stats],
        "caches": {
            name: [cache.hits, cache.misses, cache.accesses]
            for name, cache in sorted(result.caches.items())
        },
        "memory": {
            client.name: [result.memory.reads[client],
                          result.memory.writes[client]]
            for client in result.memory.reads
        },
        "images": [
            _sha(np.ascontiguousarray(image).tobytes())
            for image in result.images
        ],
    }
    return _sha(json.dumps(doc, sort_keys=True).encode())


def text_fingerprint(text: str) -> str:
    return _sha(text.encode())


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def summary_key(spec: dict) -> str:
    """Reference key of a serve pool spec: ``kind:workload@frames#seed``."""
    return f"{spec['kind']}:{spec['workload']}@{spec['frames']}#{spec['seed']}"
