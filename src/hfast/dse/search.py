"""Design-space search over the temporal interconnect evaluator.

A :class:`SearchSpec` fixes one workload (app, nranks, timing seed), a
:class:`~hfast.dse.space.SearchSpace`, and a strategy; :func:`run_search`
evaluates candidates and returns the Pareto frontier over four
objectives:

- ``coverage`` (max) — fraction of traffic carried on circuits;
- ``packet_bytes`` (min) — bytes falling back to the packet fabric;
- ``reconfig_s`` (min) — total reconfiguration seconds charged;
- ``eval_cost`` (min) — the analytic evaluation cost
  (:func:`hfast.sched.cost.estimate_candidate_cost`), the deterministic
  stand-in for evaluation wall time. Measured wall times are recorded
  too, but only in side-channel fields outside the frontier artifact.

Each candidate evaluation is one pipeline cell: the payload of the
workload's one-cell :class:`~hfast.spec.RunSpec` under the candidate's
interconnect config, which :func:`hfast.pipeline.run_cells` runs as it
runs analysis cells, under the same :class:`~hfast.spec.ExecOptions` —
serial in-process, or the work-stealing scheduler for ``workers > 1`` —
so searches retry, journal, and ``resume=<run-id>`` without any
search-specific machinery. Candidate
results merge in candidate-definition order, making the frontier
artifact (`frontier_bytes`) byte-identical across backends; repeated
trace synthesis is free after the first candidate because every
candidate of a workload shares one repro-cache entry.

Strategies:

- ``grid`` — exhaustive enumeration in canonical dimension order.
- ``evolution`` — seeded initial population, Pareto-rank parent
  selection with canonical tie-breaks, and hash-driven mutation; every
  stochastic choice is a splitmix64 function of (seed, generation,
  stream), so fixed seed means a fixed candidate sequence.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

from hfast.cache import DEFAULT_CACHE_DIR
from hfast.dse.pareto import Objective, pareto_frontier, pareto_rank, sort_key
from hfast.dse.space import Candidate, SearchSpace
from hfast.obs.manifest import build_manifest
from hfast.obs.profile import Observability, get_obs
from hfast.pipeline import Cell, close_journal, graft_cell, open_journal, run_cells
from hfast.sched.cost import CostModel, estimate_candidate_cost
from hfast.spec import ExecOptions, RunSpec, SpecError, check_cell, check_int, content_key
from hfast.timing import DEFAULT_TIMING_SEED, mix64

#: Search/frontier document schema version; it participates in the
#: search key, so bump it on any change to the canonical layout, or to
#: the frontier a key addresses (3: a search over a cell whose cache dir
#: held a committed JSON seed document evaluated that document, where it
#: now evaluates the synthesized trace).
FRONTIER_FORMAT = 3
FRONTIER_KIND = "hfast-dse-frontier"
STRATEGIES = ("grid", "evolution")
MAX_POPULATION = 4096
MAX_GENERATIONS = 64

#: The frontier's objective set, in canonical order.
OBJECTIVES = (
    Objective("coverage", "max"),
    Objective("packet_bytes", "min"),
    Objective("reconfig_s", "min"),
    Objective("eval_cost", "min"),
)

# Decouples the evolutionary mutation stream from initial sampling.
_MUTATE_STREAM = 0xD5E_5EED

# Scheduler stats that accumulate across an evolutionary search's
# per-generation run_stealing batches (vs config values that assign).
_SUM_STATS = frozenset(
    {
        "tasks_dispatched",
        "steals",
        "retries",
        "redispatches",
        "workers_spawned",
        "workers_lost",
        "cells_from_journal",
    }
)


class SearchSpecError(SpecError):
    """A search spec failed validation; ``errors`` lists every problem."""


@dataclass(frozen=True)
class SearchSpec:
    """One validated search request: workload + space + strategy."""

    app: str
    nranks: int
    space: SearchSpace = field(default_factory=SearchSpace)
    strategy: str = "grid"
    seed: int = 0
    population: int = 8
    generations: int = 3
    timing_seed: int = DEFAULT_TIMING_SEED

    def __post_init__(self) -> None:
        errors: list[str] = []
        check_cell(self.app, self.nranks, errors)
        check_int("timing_seed", self.timing_seed, errors)
        if self.strategy not in STRATEGIES:
            errors.append(f"strategy: expected one of {STRATEGIES}, got {self.strategy!r}")
        check_int("seed", self.seed, errors)
        check_int("population", self.population, errors, 1, MAX_POPULATION)
        check_int("generations", self.generations, errors, 1, MAX_GENERATIONS)
        if errors:
            raise SearchSpecError(errors)

    def canonical_doc(self) -> dict[str, Any]:
        return {
            "format": FRONTIER_FORMAT,
            "app": self.app,
            "nranks": self.nranks,
            "timing_seed": self.timing_seed,
            "space": self.space.to_doc(),
            "strategy": self.strategy,
            "seed": self.seed,
            "population": self.population,
            "generations": self.generations,
        }

    @property
    def key(self) -> str:
        """Content address of the search: sha256 of the canonical doc."""
        return content_key(self.canonical_doc())


@dataclass(frozen=True)
class CandidateCell(Cell):
    """A candidate evaluation as a pipeline cell. Its ``index`` is unique
    across the whole search (all generations), so one run journal covers
    every batch."""

    cand: Candidate


def objectives_for(
    cand: Candidate, summary: dict[str, Any], app: str, nranks: int
) -> dict[str, float]:
    """The frontier's objective vector for one evaluated candidate."""
    tmp = summary["interconnect_temporal"]
    return {
        "coverage": tmp["coverage"],
        "packet_bytes": tmp["packet_bytes"],
        "reconfig_s": round(tmp["n_reconfigs"] * cand.reconfig_cost, 9),
        "eval_cost": round(
            estimate_candidate_cost(app, nranks, cand.timesteps), 6
        ),
    }


def frontier_bytes(doc: dict[str, Any]) -> bytes:
    """Canonical serialization of a frontier document.

    Exactly the result-store serialization (``sort_keys`` + trailing
    newline), so a CLI ``--out`` file and a served
    ``GET /v1/results/<key>`` body are byte-for-byte the same artifact.
    """
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def run_search(
    spec: SearchSpec,
    cache_dir: str = DEFAULT_CACHE_DIR,
    obs: Observability | None = None,
    store: bool = True,
    argv: list[str] | None = None,
    options: ExecOptions = ExecOptions(),
) -> dict[str, Any]:
    """Run one design-space search; returns {frontier, manifest, ...}.

    The ``frontier`` document is a pure function of the spec: same
    workload + space + seed + strategy produce byte-identical
    :func:`frontier_bytes` on every scheduler backend — candidate
    results merge in definition order, the evaluation-cost objective is
    analytic, and measured wall times live only in the side-channel
    ``evaluations`` / manifest fields.

    ``options`` decides how candidates run, as for ``run_pipeline``. The
    stealing scheduler journals candidate completions under the search's
    fingerprint; ``resume=<run-id>`` replays evaluated candidates (across
    *all* generations of an evolutionary search, since candidate indices
    are globally unique) and executes only what is missing. Each
    candidate runs as the one-cell :class:`~hfast.spec.RunSpec` of the
    workload under the candidate's config (defaults elsewhere), so every
    input a candidate reads is in the search key.
    """
    obs = obs if obs is not None else get_obs()
    t_run0 = time.perf_counter()
    journal, sched_info = open_journal(spec, cache_dir, store, options)

    dse_provenance = {
        "search_key": spec.key,
        "space_key": spec.space.key,
        "strategy": spec.strategy,
        "seed": spec.seed,
        "space_size": spec.space.size,
    }
    manifest = build_manifest(
        [spec.app],
        {spec.app: [spec.nranks]},
        argv=argv,
        workers=options.workers,
        scheduler=sched_info,
        dse=dse_provenance,
    )
    obs.tracer.emit_event("manifest", manifest)

    cost_model = (
        CostModel.from_bench_dir(options.bench_dir) if options.scheduler == "stealing" else None
    )

    # Evaluation memo: candidate key -> record. A candidate re-proposed
    # by a later generation is never re-evaluated; definition order of
    # first proposal fixes its cell index (and therefore its journal
    # slot) deterministically.
    evaluated: dict[str, dict[str, Any]] = {}
    cells_by_index: dict[int, CandidateCell] = {}
    next_index = 0
    eval_reports: list[dict[str, Any]] = []

    def payload_for(cell: CandidateCell) -> dict[str, Any]:
        run = RunSpec(
            cells=((cell.app, cell.nranks),),
            timing_seed=spec.timing_seed,
            config=cell.cand.config(),
        )
        return run.cell_payload(cell, cache_dir, store, obs.enabled)

    def merge_one(res: dict[str, Any]) -> None:
        cell = cells_by_index[res["index"]]
        cand = cell.cand
        graft_cell(
            obs, res, root_id,
            span_name="candidate",
            extra_attrs={"candidate": cand.key},
        )
        if obs.enabled:
            obs.metrics.merge_snapshot(res["metrics"])
        record: dict[str, Any] = {
            "cand": cand,
            "index": res["index"],
            "ok": bool(res["ok"]),
            "error": res.get("error"),
            "attempts": res.get("attempts", 1),
            "wall_s": res.get("wall_s", 0.0),
        }
        if res["ok"] and res.get("summary") is not None:
            record["objectives"] = objectives_for(
                cand, res["summary"], spec.app, spec.nranks
            )
        evaluated[cand.key] = record
        eval_reports.append(
            {
                "app": res["app"],
                "nranks": res["nranks"],
                "candidate": cand.key,
                "ok": record["ok"],
                "wall_s": round(record["wall_s"], 6),
                "error": record["error"],
                "attempts": record["attempts"],
            }
        )

    def evaluate_batch(novel: list[Candidate]) -> None:
        nonlocal next_index
        cells: list[CandidateCell] = []
        for cand in novel:
            cell = CandidateCell(spec.app, spec.nranks, next_index, cand)
            cells_by_index[next_index] = cell
            cells.append(cell)
            next_index += 1
        if not cells:
            return
        raw, stats = run_cells(
            cells, payload_for, options, journal=journal, cost_model=cost_model, obs=obs
        )
        # Aggregate scheduler counters across generation batches;
        # configuration-ish stats (workers, timeouts) just assign.
        for k, v in stats.items():
            if k in _SUM_STATS:
                sched_info[k] = sched_info.get(k, 0) + v
            elif k == "max_queue_depth":
                sched_info[k] = max(sched_info.get(k, 0), v)
            else:
                sched_info[k] = v
        if journal is not None:
            sched_info["journal"] = str(journal.path)
        for res in raw:
            merge_one(res)

    root_id: int | None = None
    with obs.tracer.span(
        "dse_search",
        app=spec.app,
        nranks=spec.nranks,
        strategy=spec.strategy,
        space=spec.space.size,
    ) as sp:
        root_id = getattr(sp, "span_id", None)
        if spec.strategy == "grid":
            evaluate_batch(spec.space.grid())
        else:
            _run_evolution(spec, evaluated, evaluate_batch)
    close_journal(journal, all(r["ok"] for r in evaluated.values()))

    # Deterministic frontier over every successful evaluation.
    records = sorted(
        (r for r in evaluated.values() if r["ok"] and "objectives" in r),
        key=lambda r: r["index"],
    )
    points = [r["objectives"] for r in records]
    kept, dropped = pareto_frontier(points, OBJECTIVES)
    entries = [
        {
            "id": records[i]["cand"].key,
            "candidate": records[i]["cand"].to_doc(),
            "objectives": records[i]["objectives"],
        }
        for i in kept
    ]
    entries.sort(key=lambda e: (sort_key(e["objectives"], OBJECTIVES), e["id"]))
    failures = sorted(
        (
            {"id": r["cand"].key, "candidate": r["cand"].to_doc(), "error": r["error"]}
            for r in evaluated.values()
            if not r["ok"]
        ),
        key=lambda f: f["id"],
    )
    frontier_doc: dict[str, Any] = {
        "format": FRONTIER_FORMAT,
        "kind": FRONTIER_KIND,
        "search_key": spec.key,
        "workload": {
            "app": spec.app,
            "nranks": spec.nranks,
            "timing_seed": spec.timing_seed,
        },
        "space": spec.space.to_doc(),
        "space_key": spec.space.key,
        "strategy": spec.strategy,
        "seed": spec.seed,
        "objectives": [{"name": o.name, "sense": o.sense} for o in OBJECTIVES],
        "evaluated": len(evaluated),
        "dominated": len(dropped),
        "frontier": entries,
        "failed": failures,
    }
    obs.tracer.emit_event("dse_frontier", frontier_doc)

    manifest["cells"] = eval_reports
    manifest["failed_cells"] = [
        f"{spec.app}_p{spec.nranks}#{c['candidate']}" for c in eval_reports if not c["ok"]
    ]
    manifest["scheduler"] = sched_info
    obs.tracer.emit_event("manifest", manifest)

    return {
        "frontier": frontier_doc,
        "manifest": manifest,
        "sched": sched_info,
        # Side-channel (wall-clock-derived, outside the byte-identity
        # contract), mirroring wall_s/cell_timing elsewhere.
        "evaluations": eval_reports,
        "wall_s": time.perf_counter() - t_run0,
    }


def _run_evolution(
    spec: SearchSpec,
    evaluated: dict[str, dict[str, Any]],
    evaluate_batch,
) -> None:
    """Deterministic (mu + lambda)-style evolutionary loop.

    Parent selection sorts the current population by (Pareto rank,
    canonical objective vector, candidate id) — a total order, so ties
    never depend on evaluation timing. Mutation streams are keyed on
    (seed, generation, offspring slot), making the entire candidate
    sequence a pure function of the spec.
    """
    population = spec.space.sample(spec.population, spec.seed)
    mutate_seed = mix64(spec.seed ^ _MUTATE_STREAM)
    for gen in range(spec.generations):
        novel: list[Candidate] = []
        seen_batch: set[str] = set()
        for cand in population:
            if cand.key not in evaluated and cand.key not in seen_batch:
                novel.append(cand)
                seen_batch.add(cand.key)
        evaluate_batch(novel)
        if gen == spec.generations - 1:
            break
        ok_records = [
            evaluated[c.key]
            for c in _unique(population)
            if evaluated[c.key]["ok"] and "objectives" in evaluated[c.key]
        ]
        if not ok_records:
            # Every candidate failed: fall back to a fresh sample drawn
            # from a generation-specific stream.
            population = spec.space.sample(spec.population, mix64(spec.seed ^ (gen + 1)))
            continue
        ranks = pareto_rank([r["objectives"] for r in ok_records], OBJECTIVES)
        order = sorted(
            range(len(ok_records)),
            key=lambda i: (
                ranks[i],
                sort_key(ok_records[i]["objectives"], OBJECTIVES),
                ok_records[i]["cand"].key,
            ),
        )
        n_parents = max(1, spec.population // 2)
        parents = [ok_records[i]["cand"] for i in order[:n_parents]]
        offspring = [
            spec.space.mutate(
                parents[slot % len(parents)], mutate_seed, (gen << 16) | slot
            )
            for slot in range(spec.population - len(parents))
        ]
        population = parents + offspring


def _unique(cands: list[Candidate]) -> list[Candidate]:
    seen: set[str] = set()
    out: list[Candidate] = []
    for c in cands:
        if c.key not in seen:
            seen.add(c.key)
            out.append(c)
    return out
