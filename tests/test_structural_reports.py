"""Structural certifier reports pinned against a golden file.

`tests/data/structural_reports.json` holds, for every desk instance
H(n, k) with n <= 22 and 7 <= k <= 14, and for H(30, 28), H(40, 28),
H(44, 40), H(30, 25) and H(40, 25): the circumference, canonical witness,
verdict and conclusive flag, the hub-labelled vertices w and z, and the
per-block values.  Blocks are listed once per copy (each BlockData expanded
by its count), so the record does not depend on how equal block shapes are
grouped in the report.  H(40, 25) ends in a truncated level-3 block.
"""

import json
from pathlib import Path

import pytest

from ckfree import CycleCertificate, build_construction, certify_ck_free_structural

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "structural_reports.json").read_text()
)


def hub_labels(h):
    """(w, z): per block, the vertex after y at x in the block's rotation,
    its apex w_j (None for a 3-vertex block), and the vertex after x at y,
    its outer vertex z_j.  Read from each shape, whose hub rotations start
    just after the other hub."""
    w, z = [], []
    for order, js, m in h.shapes:
        a, c = m.rotations[0][0], m.rotations[1][0]
        w += [None if order == 3 else h.vertex(j, a) for j in js]
        z += [h.vertex(j, c) for j in js]
    return w, z


def structural_record(n, k):
    h = build_construction(n, k)
    r = certify_ck_free_structural(h)
    CycleCertificate.checked(h.graph, r.witness.vertices, r.witness.length)
    w, z = hub_labels(h)
    return {
        "n": n,
        "k": k,
        "circumference": r.circumference,
        "witness": list(r.witness.vertices),
        "verdict": r.verdict,
        "conclusive": r.conclusive,
        "w": w,
        "z": z,
        "blocks": [
            [b.size, b.cycle_length, b.path_length] for b in r.blocks for _ in range(b.count)
        ],
    }


def test_golden_covers_the_desk_grid_and_the_full_last_block_cases():
    cases = [(e["n"], e["k"]) for e in GOLDEN]
    assert {(30, 28), (40, 28), (44, 40), (30, 25), (40, 25)} <= set(cases)
    assert sum(1 for n, _ in cases if n <= 22) == 146
    assert len(cases) == len(set(cases)) == 151


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: f"H({e['n']},{e['k']})")
def test_structural_report_matches_golden(entry):
    assert structural_record(entry["n"], entry["k"]) == entry
