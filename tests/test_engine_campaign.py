"""The shared campaign driver (repro.engine.campaign) and its telemetry.

Both Monte-Carlo families run through one driver, which owns the
``campaign_points_total{family,status}`` counters and the
``campaign_point_seconds{family}`` histogram: a fresh point counts as
``completed``, a store hit as ``cached``, a point whose batch task raises
as ``failed``.
"""

from __future__ import annotations

import pytest

from repro.boolean.cube import Literal
from repro.crossbar.lattice import Lattice
from repro.engine.store import JsonStore
from repro.faultlab import CampaignSpec, run_campaign
from repro.faultlab import campaign as faultlab_campaign
from repro.obs import enabled, registry, set_enabled
from repro.varsim import VariationCampaignSpec, run_variation_campaign
from repro.varsim import campaign as varsim_campaign

XNOR2 = Lattice(2, [[Literal(0, True), Literal(1, True)],
                    [Literal(1, False), Literal(0, False)]])

#: family label -> (spec factory, runner, module, a kernel its batch
#: task calls in-process)
FAMILIES = {
    "faultsim": (
        lambda: CampaignSpec(n_values=(6,), k_values=(3,),
                             densities=(0.02, 0.1), trials=20,
                             batch_size=10),
        run_campaign, faultlab_campaign, "recovered_k_batch"),
    "varsweep": (
        lambda: VariationCampaignSpec(XNOR2, sigmas=(0.1, 0.4),
                                      crossbar_rows=4, crossbar_cols=4,
                                      trials=20, batch_size=10),
        run_variation_campaign, varsim_campaign,
        "onset_critical_delay_batch"),
}


@pytest.fixture(autouse=True)
def _telemetry_on():
    was = enabled()
    set_enabled(True)
    yield
    set_enabled(was)


def _counts(family: str) -> dict[str, int]:
    reg = registry()
    counts = {
        status: reg.counter("campaign_points_total",
                            labels={"family": family,
                                    "status": status}).value
        for status in ("completed", "cached", "failed")
    }
    counts["seconds"] = reg.histogram("campaign_point_seconds",
                                      labels={"family": family}).count
    return counts


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {name: after[name] - before[name] for name in after}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fresh_points_complete_then_rerun_hits_cache(family, tmp_path):
    make_spec, run, _, _ = FAMILIES[family]
    spec = make_spec()
    points = len(spec.points())
    with JsonStore(str(tmp_path / "campaigns.sqlite")) as store:
        start = _counts(family)
        first = run(spec, store=store)
        middle = _counts(family)
        second = run(spec, store=store)
        end = _counts(family)
    assert first.cache_hits == 0 and second.cache_hits == points
    assert _delta(middle, start) == {"completed": points, "cached": 0,
                                     "failed": 0, "seconds": points}
    assert _delta(end, middle) == {"completed": 0, "cached": points,
                                   "failed": 0, "seconds": 0}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_raising_batch_task_counts_failed(family, monkeypatch):
    make_spec, run, module, kernel = FAMILIES[family]

    def boom(*args, **kwargs):
        raise RuntimeError("injected kernel fault")

    monkeypatch.setattr(module, kernel, boom)
    start = _counts(family)
    with pytest.raises(RuntimeError, match="injected"):
        run(make_spec(), processes=1)
    assert _delta(_counts(family), start) == {
        "completed": 0, "cached": 0, "failed": 1, "seconds": 0}

