"""Golden sweep records: the science of the E1 grid, pinned bitwise.

Every other parity gate checks that path A equals path B, so a change
that moves both (a new RNG consumption order, an edited Rothermel term)
passes them. These tests compare against records committed under
``tests/golden/`` instead; ``tests/golden/make_golden.py`` is the only
way to regenerate them.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).parent / "golden" / "make_golden.py"
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def _golden_lines() -> list[str]:
    return golden.GOLDEN.read_text().splitlines()


def _cell(record: dict) -> tuple[str, str, int]:
    return record["system"], record["case"], record["seed"]


def test_vectorized_sweep_reproduces_the_goldens(tmp_path):
    results = tmp_path / "sweep.jsonl"
    assert main(
        ["sweep", *golden.GRID, "--backend", "vectorized",
         "--results", str(results)]
    ) == 0
    expected = _golden_lines()
    assert len(expected) == 20
    assert golden.canonical_records(results) == expected


def test_reference_kernel_reproduces_a_golden_subset(tmp_path):
    """Two systems x one case x one seed on the reference kernel: the
    records equal the goldens except for their ``backend`` labels."""
    results = tmp_path / "reference.jsonl"
    # argparse keeps the last value of a repeated flag, so these narrow
    # the golden grid to its subset
    assert main(
        ["sweep", *golden.GRID, "--systems", "essim-de,essns-im",
         "--cases", "grassland", "--seeds", "0",
         "--backend", "reference", "--results", str(results)]
    ) == 0
    wanted = {("essim-de", "grassland", 0), ("essns-im", "grassland", 0)}
    subset = [
        line.replace('"backend": "vectorized"', '"backend": "reference"')
        for line in _golden_lines()
        if _cell(json.loads(line)) in wanted
    ]
    assert len(subset) == 2
    assert golden.canonical_records(results) == subset


def test_pooled_kernel_reproduces_a_golden_subset(tmp_path):
    """Two systems x one case x one seed with the kernel in a 2-worker
    pool: the records equal the goldens except for their ``config``
    digests (``n_workers`` is a config knob) and ``n_workers`` labels."""
    results = tmp_path / "pooled.jsonl"
    assert main(
        ["sweep", *golden.GRID, "--systems", "ess-ns,essns-im",
         "--cases", "heterogeneous", "--seeds", "0", "--workers", "2",
         "--backend", "vectorized", "--results", str(results)]
    ) == 0
    wanted = {("ess-ns", "heterogeneous", 0), ("essns-im", "heterogeneous", 0)}
    subset = {
        _cell(record): record
        for record in map(json.loads, _golden_lines())
        if _cell(record) in wanted
    }
    pooled = [json.loads(line) for line in golden.canonical_records(results)]
    assert {_cell(record) for record in pooled} == wanted
    relabelled = [
        json.dumps({**record, "config": subset[_cell(record)]["config"]},
                   sort_keys=True).replace('"n_workers": 2', '"n_workers": 1')
        for record in pooled
    ]
    assert relabelled == [
        json.dumps(subset[_cell(record)], sort_keys=True) for record in pooled
    ]


def test_sharded_sweep_reproduces_the_goldens(tmp_path):
    """The whole grid leased to 2 local worker processes records the
    same science as the inline sweep."""
    results = tmp_path / "sharded.jsonl"
    assert main(
        ["sweep", *golden.GRID, "--backend", "vectorized", "--shards", "2",
         "--results", str(results)]
    ) == 0
    assert golden.canonical_records(results) == _golden_lines()
