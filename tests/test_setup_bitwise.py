"""Bitwise locks on the two pure-Python set-up layers: mesh and placement.

The refinement loop and the FM pass are performance-tuned, but their
outputs are contracted to stay bit-for-bit what they were: the mesh fixes
the KLE (and with it r and every golden downstream), and the placement
fixes the gate locations.  Each digest is the first 16 hex digits of the
SHA-256 of the raw array bytes.  A mismatch means the visit order of the
Ruppert work list or the tie-breaking of the FM gain buckets changed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.circuit.benchmarks import load_circuit
from repro.mesh.refine import paper_mesh
from repro.place.placer import place_netlist


def _digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:16]


def test_paper_mesh_is_bitwise_locked():
    mesh = paper_mesh()
    digest = _digest(
        np.asarray(mesh.vertices, dtype=np.float64),
        np.asarray(mesh.triangles, dtype=np.int64),
    )
    assert mesh.num_triangles == 1580
    assert digest == "6824d7f639ec8bfe"


@pytest.mark.parametrize(
    "circuit, expected",
    [("c880", "c500dc8393ac7ea5"), ("c3540", "3c7b48bfd577e741")],
)
def test_placement_is_bitwise_locked(circuit, expected):
    placement = place_netlist(
        load_circuit(circuit), (-1.0, -1.0, 1.0, 1.0), seed=2008
    )
    locations = np.asarray(placement.gate_locations(), dtype=np.float64)
    assert _digest(locations) == expected
