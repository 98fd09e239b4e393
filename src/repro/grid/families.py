"""Workload-family adapters: grid params in, JSON payloads out.

Each family maps a flat per-point parameter dict onto the repo's existing
content-addressed computations:

* ``faultsim``  — :mod:`repro.faultlab.campaign` Monte-Carlo points.  The
  grid row's key **is** :meth:`~repro.faultlab.campaign.CampaignPoint.key`
  and its payload is the exact ``run_campaign`` store payload, so grid
  sweeps and campaign runs dedup against each other bidirectionally.
* ``varsweep``  — :mod:`repro.varsim.campaign` sigma points; the spec
  comes from a benchmark name through
  :func:`repro.varsim.campaign.spec_for_bench`, the step the CLI and the
  batch server share, so CLI / served / grid answers share keys.
* ``synthesis`` — one portfolio race per (benchmark, strategy set),
  keyed by :meth:`repro.boolean.truthtable.TruthTable.content_hash`.
* ``bench``     — SOP metric extraction per benchmark (the Fig. 3/5 size
  formula inputs), also keyed by content hash.

The contract every adapter upholds: ``point_key`` is content-addressed
(never position-derived), and ``compute`` is a pure function of the
params — a lease-expired point recomputed by another worker produces a
bit-identical payload.
"""

from __future__ import annotations

from typing import Any

from ..engine.portfolio import run_portfolio
from ..faultlab import campaign as faultsim_campaign
from ..varsim import campaign as varsweep_campaign
from .config import FAMILIES, GridConfigError


class GridPointError(ValueError):
    """A parameter dict the family adapter rejects."""


def _str_params(params: dict[str, Any], *names: str) -> None:
    for name in names:
        if name not in params:
            raise GridPointError(f"point misses required parameter {name!r}")


# ----------------------------------------------------------------------
# faultsim
# ----------------------------------------------------------------------
def _faultsim_point(params: dict[str, Any]):
    _str_params(params, "n", "density")
    try:
        return faultsim_campaign.point_from_params(params)
    except (TypeError, ValueError, KeyError) as error:
        raise GridPointError(f"bad faultsim point: {error}") from error


def _faultsim_key(params: dict[str, Any]) -> str:
    return _faultsim_point(params).key()


def _faultsim_compute(params: dict[str, Any], processes: int) -> dict:
    point = _faultsim_point(params)
    estimate = faultsim_campaign.compute_point(point, processes)
    return faultsim_campaign.payload_for(estimate)


def _faultsim_validate(params: dict[str, Any], payload: Any) -> bool:
    point = _faultsim_point(params)
    return faultsim_campaign.estimate_from_payload(point, payload) is not None


# ----------------------------------------------------------------------
# varsweep
# ----------------------------------------------------------------------
#: Coercions for the optional varsweep params; absent ones take the
#: :class:`~repro.varsim.campaign.VariationCampaignSpec` defaults.
_VARSWEEP_CASTS = (("crossbar_rows", int), ("crossbar_cols", int),
                   ("trials", int), ("seed", int), ("nominal", float),
                   ("batch_size", int))


def _varsweep_spec(params: dict[str, Any]):
    """Single-sigma spec + point for one varsweep grid row."""
    _str_params(params, "bench", "sigma")
    try:
        fields = {name: cast(params[name])
                  for name, cast in _VARSWEEP_CASTS if name in params}
        _, spec = varsweep_campaign.spec_for_bench(
            str(params["bench"]), (float(params["sigma"]),), **fields)
    except KeyError as error:
        raise GridPointError(str(error.args[0])) from error
    except (TypeError, ValueError) as error:
        raise GridPointError(f"bad varsweep point: {error}") from error
    return spec, spec.points()[0]


def _varsweep_key(params: dict[str, Any]) -> str:
    _, point = _varsweep_spec(params)
    return point.key()


def _varsweep_compute(params: dict[str, Any], processes: int) -> dict:
    spec, point = _varsweep_spec(params)
    estimate = varsweep_campaign.compute_point(spec, point, processes)
    return varsweep_campaign.payload_for(estimate)


def _varsweep_validate(params: dict[str, Any], payload: Any) -> bool:
    _, point = _varsweep_spec(params)
    return varsweep_campaign.estimate_from_payload(point, payload) \
        is not None


# ----------------------------------------------------------------------
# synthesis
# ----------------------------------------------------------------------
def _synthesis_parts(params: dict[str, Any]):
    _str_params(params, "bench")
    from ..engine.jobs import DEFAULT_STRATEGIES
    from ..engine.portfolio import known_strategies
    from ..eval.benchsuite import by_name

    try:
        benchmark = by_name(str(params["bench"]))
    except KeyError as error:
        raise GridPointError(str(error.args[0])) from error
    strategies = params.get("strategies", list(DEFAULT_STRATEGIES))
    if isinstance(strategies, str):
        strategies = [s for s in strategies.split(",") if s]
    strategies = tuple(str(s) for s in strategies)
    unknown = set(strategies) - set(known_strategies())
    if unknown:
        raise GridPointError(f"unknown strategies {sorted(unknown)}")
    return benchmark, strategies


def _synthesis_key(params: dict[str, Any]) -> str:
    benchmark, strategies = _synthesis_parts(params)
    return (f"grid/synthesis/v1/{benchmark.name}"
            f"/{benchmark.function.on.content_hash()}"
            f"/{','.join(strategies)}")


def _synthesis_compute(params: dict[str, Any], processes: int) -> dict:
    from ..engine import lattice_to_text

    benchmark, strategies = _synthesis_parts(params)
    result = run_portfolio(benchmark.function.on, strategies)
    return {
        "bench": benchmark.name,
        "n": benchmark.n,
        "strategy": result.strategy,
        "rows": result.lattice.rows,
        "cols": result.lattice.cols,
        "area": result.area,
        "lattice": lattice_to_text(result.lattice),
        "outcomes": [
            {"strategy": outcome.strategy, "status": outcome.status,
             "area": outcome.area}
            for outcome in result.outcomes
        ],
    }


def _synthesis_validate(params: dict[str, Any], payload: Any) -> bool:
    return (isinstance(payload, dict)
            and isinstance(payload.get("lattice"), str)
            and isinstance(payload.get("area"), int))


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------
def _bench_benchmark(params: dict[str, Any]):
    _str_params(params, "bench")
    from ..eval.benchsuite import by_name

    try:
        return by_name(str(params["bench"]))
    except KeyError as error:
        raise GridPointError(str(error.args[0])) from error


def _bench_key(params: dict[str, Any]) -> str:
    benchmark = _bench_benchmark(params)
    return (f"grid/bench/v1/{benchmark.name}"
            f"/{benchmark.function.on.content_hash()}")


def _bench_compute(params: dict[str, Any], processes: int) -> dict:
    benchmark = _bench_benchmark(params)
    metrics = benchmark.function.sop_metrics()
    return {"bench": benchmark.name, **metrics}


def _bench_validate(params: dict[str, Any], payload: Any) -> bool:
    return (isinstance(payload, dict)
            and isinstance(payload.get("products"), int)
            and isinstance(payload.get("dual_products"), int))


_ADAPTERS = {
    "faultsim": (_faultsim_key, _faultsim_compute, _faultsim_validate),
    "varsweep": (_varsweep_key, _varsweep_compute, _varsweep_validate),
    "synthesis": (_synthesis_key, _synthesis_compute, _synthesis_validate),
    "bench": (_bench_key, _bench_compute, _bench_validate),
}

assert set(_ADAPTERS) == set(FAMILIES)


def point_key(family: str, params: dict[str, Any]) -> str:
    """Content-addressed store key for one (family, params) point."""
    return _adapter(family)[0](params)


def compute(family: str, params: dict[str, Any], processes: int = 1) -> dict:
    """Run one point from scratch; deterministic in ``params`` alone."""
    return _adapter(family)[1](params, processes)


def validate_payload(family: str, params: dict[str, Any],
                     payload: Any) -> bool:
    """Is this persisted payload a complete answer for the point?"""
    try:
        return _adapter(family)[2](params, payload)
    except GridPointError:
        return False


def _adapter(family: str):
    try:
        return _ADAPTERS[family]
    except KeyError:
        raise GridConfigError(
            f"unknown family {family!r} "
            f"(expected one of {', '.join(FAMILIES)})") from None
