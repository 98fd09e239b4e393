"""The four workloads, one cell at a time.

A cell is one fresh interpreter (``cell.py``) that sets a workload up,
runs one pass of its fixed, seeded work, checks the outputs and reports
what it measured.  ``run.py`` starts cells one after another until the
run's time is used, so every ``setup_s`` sample is a real cold start and
every first pass is the first pass in its process.

Each cell function returns a plain dict:

``setup_s``        fresh interpreter start until the workload is ready;
``passes``         wall times of the cell's passes (see ``run.py``);
``samples``        the workload's named metrics, one list of values each;
``attempted``, ``failed``, ``errors``  the output checks;
``layers``, ``imports``  per-layer metrics when the cell was traced.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: Campaign seeds come from this many variants of ``--seed``, so the
#: recorded reference digests cover every seed the benchmark can be given.
VARIANTS = 4


@dataclass(frozen=True)
class CellConfig:
    workload: str
    seed: int
    smoke: bool
    traced: bool
    serial: bool        # run pooled work serially (the traced comparison)
    spawned: float      # time.monotonic() when the parent started us
    work: str           # working directory inside the checkout
    env: dict

    @property
    def mode(self) -> str:
        return "smoke" if self.smoke else "full"

    @property
    def variant(self) -> int:
        return self.seed % VARIANTS


class Checks:
    """Output checks, counted as attempted and failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _result(checks: Checks, setup_s: float, passes: list[float],
            samples: dict, **extra) -> dict:
    return {"setup_s": setup_s, "passes": passes, "samples": samples, "attempted": checks.attempted,
            "failed": checks.failed, "errors": checks.errors, **extra}


def _layers(clock: layers.LayerClock | None) -> dict | None:
    return None if clock is None else layers.layer_metrics(clock.snapshot())


# ----------------------------------------------------------------------
# synth-suite
# ----------------------------------------------------------------------
SYNTH_SIZES = {"full": {"max_vars": None, "warm_passes": 25},
               "smoke": {"max_vars": 3, "warm_passes": 2}}


def synth_cell(cfg: CellConfig, clock: layers.LayerClock | None) -> dict:
    """Cold pass over the suite, then warm passes of fresh classmates.

    The cell's pass is both: the cold pass is SAT and synthesis bound,
    the warm passes cache-probe bound, and a regression in either shows.
    """
    from repro.boolean.npn import NpnTransform, apply_transform
    from repro.engine import BatchEngine, SynthesisJob
    from repro.eval.benchsuite import suite

    if clock is not None:
        layers.install_synthesis(clock)
    engine = BatchEngine(":memory:", processes=1)
    setup_s = time.monotonic() - cfg.spawned

    sizes = SYNTH_SIZES[cfg.mode]
    checks = Checks()
    jobs = [SynthesisJob.from_function(b.function, b.name)
            for b in suite(max_vars=sizes["max_vars"])]
    start = time.perf_counter()
    cold = engine.run(jobs)
    cold_s = time.perf_counter() - start

    def verify(results, batch, areas=None) -> None:
        for index, (result, job) in enumerate(zip(results, batch)):
            checks.check(
                result.lattice.to_truth_table_scalar() == job.table,
                f"{job.label}: lattice does not implement its function")
            if areas is not None:
                checks.check(result.area == areas[index],
                             f"{job.label}: classmate area {result.area} "
                             f"!= {areas[index]}")

    verify(cold, jobs)
    areas = [result.area for result in cold]
    area_total = sum(areas)
    reference = load_reference()["synth_area_total"][cfg.mode]
    checks.check(area_total <= reference,
                 f"cold-pass area {area_total} > reference {reference}")

    # Input permutation/negation classmates: same NPN class and output
    # polarity, so every probe must hit the cache the cold pass filled.
    rng = random.Random(cfg.seed)
    warm_s: list[float] = []
    for _ in range(sizes["warm_passes"]):
        batch = []
        for job in jobs:
            permutation = list(range(job.n))
            rng.shuffle(permutation)
            transform = NpnTransform(tuple(permutation),
                                     rng.getrandbits(job.n), False)
            batch.append(SynthesisJob.from_function(
                apply_transform(job.table, transform), job.label))
        start = time.perf_counter()
        warm = engine.run(batch)
        warm_s.append(time.perf_counter() - start)
        hits = sum(1 for result in warm if result.cache_hit)
        checks.check(hits == len(batch),
                     f"warm pass hit ratio {hits}/{len(batch)} != 1.0")
        verify(warm, batch, areas)
    engine.close()
    return _result(checks, setup_s, [cold_s + sum(warm_s)], {
        "synth_cold_s": [cold_s],
        "synth_warm_jobs_per_s": [len(jobs) / seconds for seconds in warm_s],
        "synth_area_total": [area_total],
    }, layers=_layers(clock))


# ----------------------------------------------------------------------
# mc-campaigns
# ----------------------------------------------------------------------
MC_SIZES = {
    "full": {"n_values": (16, 32, 64), "densities": (0.02, 0.05, 0.1),
             "trials": 500, "sigmas": (0.2, 0.4), "small_trials": 1000,
             "large_trials": 200, "grid_n": (4, 5, 6, 7, 8),
             "grid_densities": 20, "grid_trials": 20},
    "smoke": {"n_values": (8,), "densities": (0.05,), "trials": 40,
              "sigmas": (0.3,), "small_trials": 20, "large_trials": 10,
              "grid_n": (4, 5), "grid_densities": 3, "grid_trials": 10},
}
MC_PROCESSES = 2


def mc_pass(cfg: CellConfig, store, lattices: dict) -> dict:
    """One pass: faultsim sweep, two varsweeps, a grid drain."""
    from repro.faultlab import CampaignSpec, run_campaign
    from repro.faultlab.campaign import payload_for as fault_payload
    from repro.grid import config_from_dict, export_rows, plan, work_loop
    from repro.varsim import VariationCampaignSpec, run_variation_campaign
    from repro.varsim.campaign import payload_for as variation_payload

    sizes = MC_SIZES[cfg.mode]
    processes = 1 if cfg.serial else MC_PROCESSES
    seed = cfg.variant
    phases: dict[str, float] = {}
    trials: dict[str, int] = {}

    start = time.perf_counter()
    faultsim = run_campaign(CampaignSpec(
        n_values=sizes["n_values"], k_values=(8,),
        densities=sizes["densities"], models=("bernoulli", "clustered"),
        trials=sizes["trials"], seed=seed), store=store, processes=processes)
    phases["faultsim"] = time.perf_counter() - start
    trials["faultsim"] = faultsim.trials_sampled

    sweeps = {}
    for phase, bench in (("small", "xor4"), ("large", "xor5")):
        start = time.perf_counter()
        sweeps[phase] = run_variation_campaign(VariationCampaignSpec(
            lattice=lattices[bench], sigmas=sizes["sigmas"],
            crossbar_rows=32, crossbar_cols=32,
            trials=sizes[f"{phase}_trials"], seed=seed),
            store=store, processes=processes)
        phases[phase] = time.perf_counter() - start
        trials[phase] = sweeps[phase].trials_sampled

    densities = [round(0.005 * (i + 1), 3)
                 for i in range(sizes["grid_densities"])]
    grid = config_from_dict({
        "name": "perfbench", "family": "faultsim",
        "grid": {"n": list(sizes["grid_n"]), "density": densities},
        "fixed": {"trials": sizes["grid_trials"],
                  "batch_size": sizes["grid_trials"], "seed": seed},
    })
    start = time.perf_counter()
    grid_id, keys, _ = plan(grid, store)
    tally = work_loop(grid, grid_id, store, "perfbench")
    phases["grid"] = time.perf_counter() - start
    trials["grid"] = len(keys) * sizes["grid_trials"]

    rows = export_rows(store, grid_id)
    return {
        "phases": phases, "trials": trials, "points": len(keys),
        "tally": tally, "cache_hits": faultsim.cache_hits
        + sweeps["small"].cache_hits + sweeps["large"].cache_hits,
        "digest": digest({
            "faultsim": [fault_payload(e) for e in faultsim.estimates],
            "small": [variation_payload(e) for e in sweeps["small"].estimates],
            "large": [variation_payload(e) for e in sweeps["large"].estimates],
            "grid": [[row["point_key"], row["status"], row["result"]]
                     for row in rows],
        }),
    }


def mc_cell(cfg: CellConfig, clock: layers.LayerClock | None) -> dict:
    """Set-up builds both lattices and a fresh file store; one pass."""
    from repro.engine import JsonStore
    from repro.eval.benchsuite import by_name
    from repro.synthesis import synthesize_lattice_dual

    if clock is not None:
        layers.install_campaigns(clock)
    lattices = {name: synthesize_lattice_dual(by_name(name).function.on)
                for name in ("xor4", "xor5")}
    path = os.path.join(cfg.work, f"mc-{os.getpid()}.sqlite")
    store = JsonStore(path)
    setup_s = time.monotonic() - cfg.spawned

    outcome = mc_pass(cfg, store, lattices)
    store.close()
    checks = Checks()
    checks.check(outcome["cache_hits"] == 0,
                 "a fresh store answered campaign points from cache")
    checks.check(outcome["tally"].get("done") == outcome["points"],
                 f"grid drain tally {outcome['tally']}")
    reference = load_reference()["mc_digest"][cfg.mode][str(cfg.variant)]
    checks.check(outcome["digest"] == reference,
                 f"campaign/grid digest {outcome['digest'][:12]} != "
                 f"reference {reference[:12]}")
    phases, trials = outcome["phases"], outcome["trials"]
    pass_s = sum(phases.values())
    return _result(checks, setup_s, [pass_s], {
                       "faultsim_trials_per_s":
                           [trials["faultsim"] / phases["faultsim"]],
                       "varsweep_small_trials_per_s":
                           [trials["small"] / phases["small"]],
                       "varsweep_large_trials_per_s":
                           [trials["large"] / phases["large"]],
                       "grid_points_per_s":
                           [outcome["points"] / phases["grid"]],
                   }, digest=outcome["digest"], layers=_layers(clock))


# ----------------------------------------------------------------------
# cli-cold
# ----------------------------------------------------------------------
def cli_mix(cfg: CellConfig) -> list[list[str]]:
    """The fixed four-call mix, in a seeded order."""
    seed = str(cfg.variant)
    faultsim_trials, varsweep_trials, max_vars = (
        ("200", "20", "2") if cfg.smoke else ("2000", "200", "3"))
    mix = [
        ["faultsim", "--n", "16", "--trials", faultsim_trials,
         "--seed", seed, "--no-cache"],
        ["varsweep", "--bench", "xnor2", "--trials", varsweep_trials,
         "--seed", seed, "--no-cache"],
        ["batch", "--no-cache", "--max-vars", max_vars, "--no-optimal"],
        ["synth", "x1 x2 + x1' x2'"],
    ]
    random.Random(cfg.seed).shuffle(mix)
    return mix


def _timed_call(cfg: CellConfig, argv: list[str]):
    command = [sys.executable]
    if cfg.traced:
        command += ["-X", "importtime"]
    command += argv
    directory = tempfile.mkdtemp(prefix="cli-", dir=cfg.work)
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=directory, env=cfg.env,
                          capture_output=True, text=True, timeout=60)
    return time.perf_counter() - start, proc


def cli_cell(cfg: CellConfig, clock: layers.LayerClock | None) -> dict:
    """The four-call mix; its only layer, import, is folded per call."""
    checks = Checks()
    # Set-up is what every call pays before it can work: a fresh
    # interpreter importing the CLI.
    setup_s, probe = _timed_call(cfg, ["-c", "import repro.eval.cli"])
    checks.check(probe.returncode == 0, f"import probe: {probe.stderr[-300:]}")
    imports = [layers.fold_importtime(probe.stderr)]
    calls = []
    for argv in cli_mix(cfg):
        elapsed, proc = _timed_call(cfg, ["-m", "repro.eval.cli", *argv])
        calls.append(elapsed)
        checks.check(proc.returncode == 0 and proc.stdout.strip() != "",
                     f"nanoxbar {argv[0]} exited {proc.returncode}: "
                     f"{proc.stderr[-300:]}")
        imports.append(layers.fold_importtime(proc.stderr))
    extra = {}
    if cfg.traced:
        extra["imports"] = {key: sum(i[key] for i in imports) / len(imports)
                            for key in imports[0]}
    return _result(checks, setup_s, calls, {"cli_p50_s": calls}, **extra)


# ----------------------------------------------------------------------
# served-mix
# ----------------------------------------------------------------------
SERVED_SIZES = {"full": {"requests": 150}, "smoke": {"requests": 20}}
SERVED_CLIENTS = 2


def served_requests(seed: int, count: int) -> list[dict]:
    """The seeded request list both client threads replay.

    Per ten requests: five fresh heuristic-only syntheses of 1-3
    functions of 3 or 4 variables, two repeats of earlier ones, two
    faultsim and one varsweep request, whose campaign seeds come from a
    small set so stores both hit and write.  The functions and campaign
    requests are a fixed pool, so every seed asks for the same work; the
    seed draws how they group, which repeat, and the order.
    """
    pool = random.Random(0)
    fresh_count = count // 2
    functions = []
    for index in range(fresh_count * 2):
        n = 3 + index % 2
        functions.append((n, pool.randrange(1, (1 << (1 << n)) - 1)))
    faultsim = [{"kind": "faultsim", "n_values": [16], "k_values": [8],
                 "densities": list(pair), "trials": 200, "seed": seed_,
                 "batch_size": 100}
                for pair in ((0.02, 0.05), (0.02, 0.1), (0.02, 0.15),
                             (0.05, 0.1), (0.05, 0.15), (0.1, 0.15))
                for seed_ in range(3)]
    varsweep = [{"kind": "varsweep", "bench": "xnor2", "sigmas": list(pair),
                 "trials": 100, "seed": seed_, "crossbar_rows": 8,
                 "crossbar_cols": 8}
                for pair in ((0.1, 0.2), (0.1, 0.3), (0.2, 0.3))
                for seed_ in range(2)]

    rng = random.Random(seed)
    rng.shuffle(functions)
    fresh = []
    for index in range(fresh_count):
        size = index % 3 + 1
        jobs, functions = functions[:size], functions[size:]
        fresh.append({"kind": "synthesis",
                      "jobs": [{"label": f"f{job}", "n": n, "bits": bits}
                               for job, (n, bits) in enumerate(jobs)],
                      "strategies": ["dual", "dreducible", "pcircuit"]})
    requests = fresh + [rng.choice(fresh) for _ in range(count // 5)]
    requests += [faultsim[i % len(faultsim)] for i in range(count // 5)]
    requests += [varsweep[i % len(varsweep)]
                 for i in range(count - len(requests))]
    rng.shuffle(requests)
    return requests


def direct_points(payload: dict) -> list[dict]:
    """The library's own answer to one request, in the served record shape."""
    from repro.engine import BatchEngine
    from repro.faultlab import iter_campaign
    from repro.server.protocol import (
        fault_estimate_record,
        job_result_record,
        parse_submission,
        variation_estimate_record,
    )
    from repro.varsim import iter_variation_campaign

    submission = parse_submission(payload)
    if submission.kind == "synthesis":
        with BatchEngine(":memory:", processes=1) as engine:
            records = [job_result_record(r) for r in engine.run(submission.jobs)]
    elif submission.kind == "faultsim":
        records = [fault_estimate_record(e)
                   for e in iter_campaign(submission.spec)]
    else:
        records = [variation_estimate_record(e)
                   for e in iter_variation_campaign(submission.spec)]
    return json.loads(json.dumps(records))


def _without_cache_flag(points: list[dict]) -> list[dict]:
    return [{k: v for k, v in point.items() if k != "cache_hit"}
            for point in points]


def served_cell(cfg: CellConfig, clock: layers.LayerClock | None) -> dict:
    """A fresh server replays the request list; traced, the layers are
    timed inside the server process (``served_boot.py``), not here."""
    from repro.server.client import ServerClient

    requests = served_requests(cfg.seed, SERVED_SIZES[cfg.mode]["requests"])
    command = [sys.executable]
    dump = os.path.join(cfg.work, f"served-{os.getpid()}.json")
    if cfg.traced:
        command += ["-X", "importtime", os.path.join(HERE, "served_boot.py"),
                    dump]
    else:
        command += ["-m", "repro.eval.cli"]
    command += ["serve", "--port", "0", "--no-cache", "--processes", "1",
                "--job-workers", "2"]
    stderr_path = os.path.join(cfg.work, f"served-{os.getpid()}.err")
    checks = Checks()
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        spawned = time.monotonic()
        proc = subprocess.Popen(command, cwd=cfg.work, env=cfg.env,
                                stdout=subprocess.PIPE, stderr=stderr,
                                text=True)
        try:
            line = proc.stdout.readline()
            port = int(re.search(r"http://[^:/]+:(\d+)", line).group(1))
            ServerClient(port=port).wait_healthy(deadline=60)
            setup_s = time.monotonic() - spawned
            latencies, answers, coalesced, pass_s = _replay(port, requests)
            ServerClient(port=port).shutdown()
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    checks.check(proc.returncode == 0, f"server exited {proc.returncode}")
    for index, answer in enumerate(answers):
        checks.check(isinstance(answer, dict),
                     f"request {index} failed: {answer}")
    # A sample of served answers must equal the library's direct answers.
    for index in range(0, len(requests), max(1, len(requests) // 12)):
        answer = answers[index]
        if isinstance(answer, dict):
            checks.check(
                _without_cache_flag(answer["points"])
                == _without_cache_flag(direct_points(requests[index])),
                f"request {index}: served result != direct result")
    extra = {}
    if cfg.traced:
        # The layers ran in the server process, which dumped them on exit.
        with open(dump, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        with open(stderr_path, encoding="utf-8") as handle:
            extra["imports"] = layers.fold_importtime(handle.read())
        extra["layers"] = {
            **layers.layer_metrics(snapshot),
            **layers.server_metrics(snapshot, latencies, coalesced)}
    return _result(checks, setup_s, [pass_s], {
        "served_req_per_s": [len(requests) / pass_s],
        "served_latency_ms": [lat * 1e3 for lat in latencies],
    }, **extra)


def _replay(port: int, requests: list[dict]):
    """Two closed-loop clients drain one request list."""
    from repro.server.client import ServerClient

    latencies = [0.0] * len(requests)
    answers: list = [None] * len(requests)
    coalesced = [False] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def client_loop() -> None:
        client = ServerClient(port=port, timeout=120)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            start = time.perf_counter()
            try:
                answer = client.run(requests[index])
            except Exception as error:  # counted as a failed operation
                answers[index] = f"{type(error).__name__}: {error}"
            else:
                answers[index] = answer
                coalesced[index] = bool(answer.get("coalesced"))
            latencies[index] = time.perf_counter() - start

    threads = [threading.Thread(target=client_loop)
               for _ in range(SERVED_CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, answers, coalesced, time.perf_counter() - start


CELLS = {
    "synth-suite": synth_cell,
    "mc-campaigns": mc_cell,
    "cli-cold": cli_cell,
    "served-mix": served_cell,
}


def record_reference(work: str) -> None:
    """Rewrite ``reference.json`` from serial runs of the current code.

    Run it only on a commit whose outputs are the accepted ones: every
    later run checks its pooled outputs against these serial ones.
    """
    from repro.engine import BatchEngine, JsonStore, SynthesisJob
    from repro.eval.benchsuite import by_name, suite
    from repro.synthesis import synthesize_lattice_dual

    lattices = {name: synthesize_lattice_dual(by_name(name).function.on)
                for name in ("xor4", "xor5")}
    reference: dict = {"synth_area_total": {}, "mc_digest": {}}
    for mode in ("full", "smoke"):
        jobs = [SynthesisJob.from_function(b.function, b.name)
                for b in suite(max_vars=SYNTH_SIZES[mode]["max_vars"])]
        with BatchEngine(":memory:", processes=1) as engine:
            reference["synth_area_total"][mode] = sum(
                result.area for result in engine.run(jobs))
        reference["mc_digest"][mode] = {}
        for variant in range(VARIANTS):
            cfg = CellConfig("mc-campaigns", variant, mode == "smoke",
                             traced=False, serial=True, spawned=0.0,
                             work=work, env={})
            path = os.path.join(work, f"reference-{mode}-{variant}.sqlite")
            store = JsonStore(path)
            reference["mc_digest"][mode][str(variant)] = mc_pass(
                cfg, store, lattices)["digest"]
            store.close()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
