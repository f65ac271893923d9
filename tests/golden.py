"""Canonical JSON shared by the golden-vector tests.

A golden vector is a document in canonical JSON (sorted keys, no
whitespace) whose floats are the ``0x`` hex of their exact float64
bytes and whose arrays are the hex of their raw bytes; its sha256 pins
an output across commits, byte for byte.
"""

import hashlib
import json

import numpy as np


def hex64(value) -> str:
    """Exact float64 bytes as lowercase ``0x`` hex."""
    return "0x" + np.float64(value).tobytes().hex()


def hexes(values):
    return [hex64(v) for v in values]


def array_doc(array) -> dict:
    """Raw bytes, dtype and shape of an array."""
    array = np.ascontiguousarray(array)
    return {
        "bytes": array.tobytes().hex(),
        "dtype": array.dtype.str,
        "shape": list(array.shape),
    }


def canonical(doc) -> str:
    """Sorted keys, no whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def from_hex64(text: str) -> float:
    """Inverse of :func:`hex64`."""
    return float(np.frombuffer(bytes.fromhex(text[2:]), dtype=np.float64)[0])
