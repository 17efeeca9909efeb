"""Output checks on every simulated cell, made from outside the program.

A cell passes when its conservation ledgers balance, its ledger agrees
with its outcomes, it produced one outcome row per issued request and
its peak instance count is the maximum of its instance gauge.  At the
default seed its digest must also match the one recorded in
``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
from typing import List

#: The five buckets every finished request lands in exactly once.
BUCKETS = ("completed", "failed", "rejected", "timed_out", "shed")


def issued_requests(result) -> int:
    """Requests the cell's workload issues, from its spec alone."""
    from repro.workload.generator import workload_spec
    spec = workload_spec(result.workload_name)
    if result.workload_scale != 1.0:
        spec = spec.compressed(result.workload_scale)
    return spec.target_requests


def ledger_prefixes(notes) -> List[str]:
    """The client ledger ('') and every prefixed sub-ledger in ``notes``."""
    return sorted(key[:-len("submitted")] for key in notes
                  if key.endswith("submitted"))


def problems(result) -> List[str]:
    """Every invariant ``result`` breaks (empty when the cell is sound)."""
    found = []
    notes = result.usage.notes
    for prefix in ledger_prefixes(notes):
        buckets = [notes.get(prefix + bucket) for bucket in BUCKETS]
        if None in buckets or notes[prefix + "submitted"] != sum(buckets):
            found.append(f"ledger {prefix or 'client.'} does not balance")
    table = result.table
    successes = (table.success_count if result.streaming
                 else int(table.success.sum()))
    if notes.get("completed") != successes:
        found.append(f"completed {notes.get('completed')} != "
                     f"{successes} successes")
    issued = issued_requests(result)
    if table.count != issued:
        found.append(f"{table.count} outcome rows != {issued} issued")
    usage = result.usage
    if usage.peak_instances != int(usage.instance_count.max()):
        found.append(f"peak_instances {usage.peak_instances} != "
                     f"max(instance_count) {usage.instance_count.max()}")
    return found


def digest(result) -> str:
    """A short hash of the cell's outcome columns and its ledger."""
    table = result.table
    columns = table.digest() if result.streaming else table.column_hash()
    usage = result.usage
    ledger = json.dumps({
        "notes": usage.notes,
        "cost": repr(usage.cost),
        "cost_breakdown": {k: repr(v)
                           for k, v in usage.cost_breakdown.items()},
        "cold_starts": usage.cold_starts,
        "instances_created": usage.instances_created,
        "peak_instances": usage.peak_instances,
        "duration_s": repr(result.duration_s),
    }, sort_keys=True)
    return hashlib.sha256((columns + ledger).encode()).hexdigest()[:16]
