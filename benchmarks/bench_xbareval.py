"""xbareval throughput: scalar percolation loops vs the batched core.

Quantifies the tentpole claims of the evaluation core:

* ``Lattice.to_truth_table`` through the batched flood must beat the
  scalar 2^n union-find loop by >= 10x on 6-variable lattices, with
  bit-identical tables;
* batched placement-validity sweeps over a defect-map ensemble must agree
  verdict-for-verdict with the scalar ``placement_valid`` loop.

``XBAREVAL_SMOKE=1`` shrinks the workloads and relaxes the speedup floors
so the kernels can run as a CI smoke step on noisy shared runners (the
bit-exactness assertions stay strict).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.eval.benchsuite import standard_suite
from repro.faultlab import bernoulli_defect_batch
from repro.faultlab.kernels import sample_line_subsets
from repro.reliability.lattice_mapping import placement_valid
from repro.synthesis import fold_lattice, synthesize_lattice_dual
from repro.xbareval import (
    lattice_site_codes,
    lattice_truthtable,
    left_right_blocked_8_batch,
    percolation_duality_holds_batch,
    placement_valid_batch,
    top_bottom_connected_batch,
)

SMOKE = os.environ.get("XBAREVAL_SMOKE") == "1"
#: Full-run floor is the acceptance criterion; the smoke floor only guards
#: against the vectorized path regressing to scalar speed.
MIN_TRUTHTABLE_SPEEDUP = 2.0 if SMOKE else 10.0
MIN_PLACEMENT_SPEEDUP = 2.0 if SMOKE else 5.0
TRUTHTABLE_REPEATS = 2 if SMOKE else 6
PLACEMENT_TRIALS = 200 if SMOKE else 2000


def _n6_lattices():
    """The 6-variable benchmark functions as dual-construction lattices.

    Unfolded and folded variants both appear — the shapes span 4x2 up to
    26x15, the regime the engine verifies candidates in.
    """
    lattices = []
    for bench in standard_suite():
        if bench.n != 6:
            continue
        dual = synthesize_lattice_dual(bench.function.on)
        lattices.append((f"{bench.name}", dual))
        folded = fold_lattice(dual, bench.function.on)
        if folded.shape != dual.shape:
            lattices.append((f"{bench.name}:folded", folded))
    return lattices


def test_truthtable_scalar_vs_batched(benchmark, save_table):
    """The acceptance ratio: batched to_truth_table >= 10x the scalar loop
    on 6-variable lattices, bit-identical tables."""
    lattices = _n6_lattices()
    assert lattices, "benchmark suite lost its 6-variable functions"
    for _, lattice in lattices:  # warm both paths (first-call setup)
        lattice.to_truth_table_scalar()
        lattice_truthtable(lattice)

    start = time.perf_counter()
    scalar_tables = [
        [lattice.to_truth_table_scalar() for _, lattice in lattices]
        for _ in range(TRUTHTABLE_REPEATS)
    ][-1]
    scalar_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    batched_tables = benchmark.pedantic(
        lambda: [
            [lattice_truthtable(lattice) for _, lattice in lattices]
            for _ in range(TRUTHTABLE_REPEATS)
        ][-1],
        rounds=1, iterations=1)
    batched_elapsed = time.perf_counter() - start

    assert batched_tables == scalar_tables  # bit-identical, per lattice
    speedup = scalar_elapsed / batched_elapsed
    evaluations = TRUTHTABLE_REPEATS * len(lattices)
    save_table("xbareval_truthtable", "\n".join([
        f"n=6 truth tables, {len(lattices)} lattices "
        f"({', '.join(f'{name} {lat.rows}x{lat.cols}' for name, lat in lattices)}), "
        f"{TRUTHTABLE_REPEATS} repeats",
        f"scalar  {scalar_elapsed:8.3f}s  "
        f"({evaluations / scalar_elapsed:8.1f} tables/s)",
        f"batched {batched_elapsed:8.3f}s  "
        f"({evaluations / batched_elapsed:8.1f} tables/s)",
        f"speedup {speedup:8.1f}x",
    ]))
    assert speedup >= MIN_TRUTHTABLE_SPEEDUP


def test_placement_validity_sweep(benchmark, save_table):
    """Batched placement checks over a whole defect ensemble: one kernel
    call vs one scalar placement_valid per fabric, identical verdicts."""
    target = None
    for bench in standard_suite():
        if bench.name == "fig4":
            target = fold_lattice(synthesize_lattice_dual(bench.function.on),
                                  bench.function.on)
    assert target is not None
    codes = lattice_site_codes(target)

    gen = np.random.default_rng(7)
    batch = bernoulli_defect_batch(PLACEMENT_TRIALS, 16, 16, 0.06, gen)
    row_maps = sample_line_subsets(gen, PLACEMENT_TRIALS, 16, target.rows)
    col_maps = sample_line_subsets(gen, PLACEMENT_TRIALS, 16, target.cols)

    def scalar_sweep():
        verdicts = []
        for trial in range(PLACEMENT_TRIALS):
            defect_map = batch.to_defect_map(trial)
            verdicts.append(placement_valid(
                target, defect_map,
                tuple(int(r) for r in row_maps[trial]),
                tuple(int(c) for c in col_maps[trial])))
        return verdicts

    def batched_sweep():
        return placement_valid_batch(batch.states, codes, row_maps,
                                     col_maps)

    # warm both paths so neither pays first-call setup in the timing
    placement_valid(target, batch.to_defect_map(0),
                    tuple(int(r) for r in row_maps[0]),
                    tuple(int(c) for c in col_maps[0]))
    batched_sweep()

    start = time.perf_counter()
    scalar_verdicts = scalar_sweep()
    scalar_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    batched_verdicts = benchmark.pedantic(batched_sweep, rounds=1,
                                          iterations=1)
    batched_elapsed = time.perf_counter() - start

    assert batched_verdicts.tolist() == scalar_verdicts
    speedup = scalar_elapsed / batched_elapsed
    save_table("xbareval_placement", "\n".join([
        f"placement validity, {PLACEMENT_TRIALS} fabrics 16x16 @ 6% "
        f"defects, target {target.rows}x{target.cols}",
        f"scalar  {scalar_elapsed:8.3f}s  "
        f"({PLACEMENT_TRIALS / scalar_elapsed:8.0f} checks/s)",
        f"batched {batched_elapsed:8.3f}s  "
        f"({PLACEMENT_TRIALS / batched_elapsed:8.0f} checks/s)",
        f"speedup {speedup:8.1f}x",
    ]))
    assert speedup >= MIN_PLACEMENT_SPEEDUP


def test_percolation_duality_smoke(save_table):
    """Tiny duality cross-check (the property suite does this
    exhaustively; this keeps the invariant visible in benchmark runs and
    in the CI smoke step)."""
    gen = np.random.default_rng(3)
    grids = gen.random((64, 8, 8)) < 0.5
    assert percolation_duality_holds_batch(grids).all()
    save_table("xbareval_duality",
               "percolation duality holds on 64 random 8x8 grids: yes")


# -- raw-speed core pass: tall grids ---------------------------------------

#: ``CORE_SPEED_SMOKE=1`` shrinks the tall-grid sweep for CI runners.
CORE_SMOKE = os.environ.get("CORE_SPEED_SMOKE") == "1" or SMOKE
#: Acceptance floor (full run): the public dispatch (the label pass) must
#: beat the unpacked boolean flood >= 5x at 128 rows.
MIN_TALL_SPEEDUP = 1.2 if CORE_SMOKE else 5.0
#: (rows, cols, batch) tall regimes, both past 64 rows.
TALL_WORKLOADS = (((128, 10, 24), (256, 8, 16)) if CORE_SMOKE
                  else ((128, 64, 256), (256, 48, 192)))


def _best_of(fn, grids, repeats=3):
    elapsed = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(grids)
        elapsed.append(time.perf_counter() - start)
    return out, min(elapsed)


def test_tall_grid_multiword_flood(save_table, save_core_speed):
    """128/256-row grids: the public dispatch vs the unpacked flood.

    Verdicts must stay bit-identical to the unpacked reference for both
    flood duals.
    """
    from repro.xbareval import connectivity as conn

    rows_report = []
    lines = ["tall-grid flood: public dispatch (label pass) vs unpacked flood",
             f"{'rows':>5s} {'cols':>5s} {'batch':>6s} "
             f"{'tb-speedup':>11s} {'lr-speedup':>11s}"]
    for rows, cols, batch in TALL_WORKLOADS:
        gen = np.random.default_rng(5)
        grids = gen.random((batch, rows, cols)) < 0.55
        tb_out, tb_fast = _best_of(top_bottom_connected_batch, grids)
        tb_ref, tb_slow = _best_of(conn._top_bottom_connected_unpacked,
                                   grids)
        lr_out, lr_fast = _best_of(left_right_blocked_8_batch, grids)
        lr_ref, lr_slow = _best_of(conn._left_right_blocked_8_unpacked,
                                   grids)
        assert np.array_equal(tb_out, tb_ref)
        assert np.array_equal(lr_out, lr_ref)
        tb_speedup = tb_slow / tb_fast
        lr_speedup = lr_slow / lr_fast
        assert tb_speedup >= MIN_TALL_SPEEDUP
        assert lr_speedup >= MIN_TALL_SPEEDUP
        rows_report.append({
            "rows": rows, "cols": cols, "batch": batch,
            "top_bottom_dispatch_seconds": tb_fast,
            "top_bottom_unpacked_seconds": tb_slow,
            "top_bottom_speedup": tb_speedup,
            "left_right_dispatch_seconds": lr_fast,
            "left_right_unpacked_seconds": lr_slow,
            "left_right_speedup": lr_speedup,
        })
        lines.append(f"{rows:5d} {cols:5d} {batch:6d} "
                     f"{tb_speedup:10.1f}x {lr_speedup:10.1f}x")
    save_core_speed("tall_grid_flood", {
        "smoke": CORE_SMOKE,
        "min_speedup": MIN_TALL_SPEEDUP,
        "workloads": rows_report,
    })
    save_table("xbareval_tall_grid", "\n".join(lines))
