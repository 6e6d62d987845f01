"""Structural certifier reports pinned against a golden file.

`tests/data/structural_reports.json` holds, for every desk instance
H(n, k) with n <= 22 and 7 <= k <= 14, for H(30, 28), H(40, 28) and
H(44, 40), and for H(30, 25) and H(40, 25) on a 60-node budget with and
without the lemma fallback: the circumference, canonical witness, verdict,
conclusive and lemma_backed flags, the hub-labelled vertices w and z, and
the per-block values.  Blocks are listed once per copy (each BlockData
expanded by its count), so the record does not depend on how equal block
shapes are grouped in the report.  On that budget the truncated last block
of H(40, 25) reaches a longer x-y path than the full blocks, so the
two-block case must pick the two longest paths, not the first two.
"""

import json
from pathlib import Path

import pytest

from ckfree import SearchBudget, build_construction, certify_ck_free_structural

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "structural_reports.json").read_text()
)


def structural_record(n, k, node_limit=None, lemma_backed=False):
    h = build_construction(n, k)
    budget = SearchBudget() if node_limit is None else SearchBudget(node_limit=node_limit)
    r = certify_ck_free_structural(h, budget, lemma_backed=lemma_backed)
    return {
        "n": n,
        "k": k,
        "node_limit": node_limit,
        "lemma_backed_arg": lemma_backed,
        "circumference": r.circumference,
        "witness": list(r.witness.vertices) if r.witness else None,
        "verdict": r.verdict,
        "conclusive": r.conclusive,
        "lemma_backed": r.lemma_backed,
        "w": list(h.w),
        "z": list(h.z),
        "blocks": [
            [b.size, b.cycle_length, b.path_length,
             b.cycle_conclusive, b.path_conclusive, b.lemma_values_used]
            for b in r.blocks
            for _ in range(b.count)
        ],
    }


def test_golden_covers_the_desk_grid_and_the_full_last_block_cases():
    cases = {(e["n"], e["k"]) for e in GOLDEN}
    assert {(30, 28), (40, 28), (44, 40), (30, 25), (40, 25)} <= cases
    assert sum(1 for e in GOLDEN if e["n"] <= 22) == 146
    assert sum(1 for e in GOLDEN if e["k"] == 25 and e["node_limit"] == 60) == 4


@pytest.mark.parametrize(
    "entry",
    GOLDEN,
    ids=lambda e: f"H({e['n']},{e['k']})"
    + (f"@{e['node_limit']}" if e["node_limit"] else "")
    + ("-lemma" if e["lemma_backed_arg"] else ""),
)
def test_structural_report_matches_golden(entry):
    got = structural_record(entry["n"], entry["k"], entry["node_limit"], entry["lemma_backed_arg"])
    assert got == entry
