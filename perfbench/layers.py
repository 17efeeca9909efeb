"""Per-layer metrics from one traced call.

Counts come from the cells' public outputs (``metadata``, the outcome
table or summary) and from cProfile call counts; times come from the
tracer's spans.  Layers a workload does not reach report 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

#: ``*.self_share`` metrics: name -> profile bucket.
SHARES = {
    "engine.self_share": "engine",
    "rng.self_share": "rng",
    "platforms.self_share": "platforms",
    "executor.self_share": "executor",
    "serving.self_share": "serving",
}


def _span_totals(spans) -> Dict[str, List[float]]:
    durations: Dict[str, List[float]] = defaultdict(list)
    for name, _parent, start, end, _pid in spans:
        durations[name].append(end - start)
    return durations


def self_split(tracer) -> Dict[str, float]:
    """Self time per profile bucket, as shares of the profiled total."""
    from tracing import reduce_profile
    totals: Dict[str, float] = defaultdict(float)
    for profile in [*tracer.cell_profiles, reduce_profile(tracer.outer)]:
        for bucket, seconds in profile["buckets"].items():
            totals[bucket] += seconds
    whole = sum(totals.values()) or 1.0
    return {bucket: seconds / whole
            for bucket, seconds in sorted(totals.items())}


def layer_metrics(tracer, results) -> Dict[str, float]:
    requests = sum(r.total_requests for r in results) or 1
    metadata = [r.metadata for r in results]
    events = sum(m.get("events_processed", 0.0) for m in metadata)
    attempts = sum(r.table.attempts_mean() * r.total_requests
                   for r in results)
    spans = tracer.all_spans()
    durations = _span_totals(spans)

    def total(name):
        return float(sum(durations.get(name, ())))

    out = {
        "engine.events_per_req": events / requests,
        "engine.host_us_per_event": (1e6 * total("executor.simulate")
                                     / max(events, 1.0)),
        "workload.gen_s": total("workload.gen"),
        "platforms.build_s": total("platforms.build"),
        "platforms.finalize_s": total("platforms.finalize"),
        "executor.simulate_s": total("executor.simulate"),
        "executor.attempts_per_req": attempts / requests,
        "serving.finalize_s": total("serving.finalize"),
        "serving.chunks_folded": sum(m.get("chunks_folded", 0.0)
                                     for m in metadata),
        "serving.peak_resident_chunks": max(
            (m.get("peak_resident_chunks", 0.0) for m in metadata),
            default=0.0),
        "study.frame_build_s": total("study.frame_build"),
        "study.overhead_s": max(total("study.run")
                                - total("pool.run_cells"), 0.0)
                            if "study.run" in durations else 0.0,
        "study.cell_s_max": max(durations.get("cell", ()), default=0.0),
        "study.cells": float(len(results)),
        "study.cache_misses": float(len(durations.get("cell", ()))),
    }
    out.update(_pool_metrics(tracer, spans))
    if tracer.profile:
        profiles = tracer.cell_profiles
        split = self_split(tracer)
        out.update({name: split.get(bucket, 0.0)
                    for name, bucket in SHARES.items()})
        out["engine.heappush_per_req"] = sum(
            p["heappush"] for p in profiles) / requests
        out["rng.draws_per_req"] = sum(p["draws"] for p in profiles) / requests
        out["cell.py_calls_per_req"] = sum(
            p["calls"] for p in profiles) / requests
        out["self_split"] = split
    return out


def _pool_metrics(tracer, spans) -> Dict[str, float]:
    records = tracer.worker_records
    pool_walls = [(start, end) for name, _p, start, end, _pid in spans
                  if name == "pool.run_cells"]
    if not records or not pool_walls:
        return {"pool.spawn_s": 0.0, "pool.busy_ratio": 0.0,
                "pool.transport_mb": 0.0, "pool.shm_cells": 0.0,
                "pool.unpack_s": 0.0}
    start, end = max(pool_walls, key=lambda wall: wall[1] - wall[0])
    inits = {record["pid"]: record["init"] for record in records}
    worker_cell_s = sum(e - s for record in records
                        for name, _p, s, e, _pid in record["spans"]
                        if name == "cell")
    unpack = sum(e - s for name, _p, s, e, _pid in tracer.spans
                 if name == "pool.unpack")
    return {
        "pool.spawn_s": max(inits.values()) - start,
        "pool.busy_ratio": worker_cell_s / (len(inits) * (end - start)),
        "pool.transport_mb": sum(r["transport_bytes"]
                                 for r in records) / 2 ** 20,
        "pool.shm_cells": float(sum(r["shm"] for r in records)),
        "pool.unpack_s": unpack,
    }
