"""Batched variation-aware Monte-Carlo delay campaigns (Section IV at scale).

:mod:`repro.reliability.variation` models one chip at a time — a scalar
lognormal draw and a pure-Python Dijkstra per minterm per trial; this
package turns the paper's variation-tolerance experiment into a batched
campaign on the PR 1-3 substrate:

API -> paper map:

* :mod:`repro.varsim.ensembles` — ``(trials, rows, cols)`` lognormal
  resistance ensembles in one draw, plus vectorized variation-aware /
  oblivious line selection (Section IV's "variation awareness ensures
  predictability and performance" comparison);
* :mod:`repro.xbareval.delay` — the batched node-weighted shortest-path
  delay kernel the campaigns run on (vectorized Bellman-Ford over
  conduction x resistance tensors; scalar Dijkstra kept as the bit-exact
  reference);
* :mod:`repro.varsim.campaign` — ``VariationCampaignSpec`` grids and
  ``spec_for_bench`` (benchmark name → dual lattice → spec, shared by the
  CLI, the batch server and the grid).  The family supplies its sigma
  points, seeded batch tasks, pure batch task, delay-vector merge and
  payload codec; the shared driver
  :class:`repro.engine.campaign.CampaignFamily` plans, shards
  (``repro.engine.pool``), persists in the engine's
  :class:`~repro.engine.store.JsonStore` and streams the estimates;
* :mod:`repro.varsim.report` — delay tables and awareness cross-checks.

Quickstart::

    from repro.varsim import run_variation_campaign, spec_for_bench

    _, spec = spec_for_bench("xnor2", sigmas=(0.1, 0.3, 0.6), trials=500)
    result = run_variation_campaign(spec, store="campaigns.sqlite",
                                    processes=4)
    print(result.render())

The same sweep is available from the shell as ``nanoxbar varsweep``.
"""

from .campaign import (
    VariationCampaignPoint,
    VariationCampaignResult,
    VariationCampaignSpec,
    VariationPointEstimate,
    iter_variation_campaign,
    lattice_content_hash,
    run_variation_campaign,
    spec_for_bench,
)
from .ensembles import (
    VariationBatch,
    lognormal_variation_batch,
    oblivious_selection_batch,
    smallest_k_indices,
    variation_aware_selection_batch,
)
from .report import awareness_crosschecks, render_variation_campaign

__all__ = [
    "VariationBatch",
    "VariationCampaignPoint",
    "VariationCampaignResult",
    "VariationCampaignSpec",
    "VariationPointEstimate",
    "awareness_crosschecks",
    "iter_variation_campaign",
    "lattice_content_hash",
    "lognormal_variation_batch",
    "oblivious_selection_batch",
    "render_variation_campaign",
    "run_variation_campaign",
    "smallest_k_indices",
    "spec_for_bench",
    "variation_aware_selection_batch",
]
