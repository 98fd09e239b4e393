"""Exact NPN canonical forms and witnesses against a committed golden file.

The engine cache rewrites stored lattices through the witness transform
of :func:`repro.boolean.npn.npn_canonical`, so not only the canonical
form but the *choice* of witness among tied transforms is part of the
contract.  This suite pins both to ``tests/data/npn_witness_golden.json``
on a deterministic table set (seeded with ``random.Random``, so it is the
same on every platform and numpy version):

* every function with ``n <= 3``;
* the on-set of every ``suite()`` benchmark with ``n <= 6``, plus 10 seeded classmates
  (random permutation, input negation and output negation) of each;
* 200 seeded random tables each for ``n = 4, 5, 6``;
* every threshold (``|x| >= k``) and exact-weight (``|x| == k``)
  symmetric function for ``n <= 6``.

Regenerate (only after an intentional change of canonical form or tie
rule, and say so in the change log) with::

    PYTHONPATH=src python tests/test_npn_witness_golden.py --write
"""

from __future__ import annotations

import json
import pathlib
import random
import subprocess
import sys

from repro.boolean import TruthTable
from repro.boolean.npn import NpnTransform, apply_transform, npn_canonical

GOLDEN = pathlib.Path(__file__).parent / "data" / "npn_witness_golden.json"

RANDOM_TABLES = {4: 200, 5: 200, 6: 200}
CLASSMATES = 10


def _symmetric(n: int, keep) -> TruthTable:
    return TruthTable.from_callable(n, lambda m: keep(bin(m).count("1")))


def golden_tables() -> list[tuple[int, int]]:
    """The ``(n, bits)`` pairs the golden file covers, in file order."""
    from repro.eval.benchsuite import suite

    tables = [(n, bits) for n in range(4) for bits in range(1 << (1 << n))]
    rng = random.Random(20170327)
    for bench in suite():
        table = bench.function.on
        if table.n > 6:
            continue
        tables.append((table.n, table.bits))
        for _ in range(CLASSMATES):
            perm = list(range(table.n))
            rng.shuffle(perm)
            mate = apply_transform(table, NpnTransform(
                tuple(perm), rng.getrandbits(table.n),
                bool(rng.getrandbits(1))))
            tables.append((table.n, mate.bits))
    for n, count in RANDOM_TABLES.items():
        tables.extend((n, rng.getrandbits(1 << n)) for _ in range(count))
    for n in range(7):
        for k in range(n + 2):
            tables.append((n, _symmetric(n, lambda w, k=k: w >= k).bits))
        for k in range(n + 1):
            tables.append((n, _symmetric(n, lambda w, k=k: w == k).bits))
    return tables


def _record(n: int, bits: int) -> list:
    canonical, witness = npn_canonical(TruthTable.from_bits(n, bits))
    return [n, bits, canonical.bits, list(witness.permutation),
            witness.input_negation_mask, witness.output_negate]


def test_canonical_forms_and_witnesses_match_golden():
    golden = json.loads(GOLDEN.read_text())
    tables = golden_tables()
    assert [(row[0], row[1]) for row in golden["records"]] == tables
    mismatches = [row for row in golden["records"]
                  if _record(row[0], row[1]) != row]
    assert not mismatches, f"{len(mismatches)} records differ, e.g. " \
                           f"{mismatches[0]}"


def _write() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=True,
                            cwd=GOLDEN.parent).stdout.strip()
    records = [_record(n, bits) for n, bits in golden_tables()]
    header = json.dumps({
        "generated_at_commit": commit,
        "fields": ["n", "bits", "canonical_bits", "permutation",
                   "input_negation_mask", "output_negate"]})
    rows = ",\n".join(json.dumps(row, separators=(",", ":"))
                      for row in records)
    GOLDEN.write_text(f'{header[:-1]}, "records": [\n{rows}\n]}}\n')
    print(f"wrote {len(records)} records to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_npn_witness_golden.py --write")
    _write()
