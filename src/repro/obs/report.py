"""Report-side trace analysis: stage breakdowns, summaries, rendering.

Spans nest, so naive per-span sums double-count (a ``check`` span
contains the traversal it lazily triggered).  Everything here is
therefore built on **self time** -- a span's duration minus the
duration of its direct children.  Self times telescope: summed over a
whole trace tree they equal the root span's duration exactly, which is
what makes the per-stage breakdown (`stage "parse" 3%, "traversal"
81%, ...`) add up to the entry's wall time instead of exceeding it.

The *stage* vocabulary is the span-name vocabulary (literal names, rule
RA501); ``check`` spans are additionally keyed by their ``check``
attribute (``check:csc``), so a breakdown distinguishes the individual
property checks without anyone inventing span names at runtime.

Consumed by the ``--profile`` CLI view and ``tools/trace_report.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.core.stats import TraversalStats


def span_label(record: Mapping[str, object]) -> str:
    """The aggregation key of one span record (name, plus the check)."""
    name = str(record.get("name"))
    attrs = record.get("attrs") or {}
    check = attrs.get("check") if isinstance(attrs, Mapping) else None
    return f"{name}:{check}" if check else name


def spans_of(records: Iterable[Mapping[str, object]]
             ) -> List[Mapping[str, object]]:
    return [r for r in records if r.get("type") == "span"]


def events_of(records: Iterable[Mapping[str, object]]
              ) -> List[Mapping[str, object]]:
    return [r for r in records if r.get("type") == "event"]


def self_times(records: Iterable[Mapping[str, object]]
               ) -> Dict[int, float]:
    """Span id -> self time (duration minus direct children)."""
    spans = spans_of(records)
    child_sum: Dict[Optional[int], float] = {}
    for span in spans:
        parent = span.get("parent")
        child_sum[parent] = (child_sum.get(parent, 0.0)
                             + float(span.get("duration_s") or 0.0))
    result: Dict[int, float] = {}
    for span in spans:
        span_id = int(span["id"])
        duration = float(span.get("duration_s") or 0.0)
        result[span_id] = max(duration - child_sum.get(span_id, 0.0), 0.0)
    return result


def stage_breakdown(records: Iterable[Mapping[str, object]]
                    ) -> Dict[str, Dict[str, float]]:
    """Label -> ``{"self_s", "total_s", "count"}`` over one trace.

    ``self_s`` values sum (over all labels) to the root span duration;
    ``total_s`` is the inclusive time, meaningful per label but not
    summable across nesting labels.
    """
    records = list(records)
    per_span_self = self_times(records)
    stages: Dict[str, Dict[str, float]] = {}
    for span in spans_of(records):
        label = span_label(span)
        entry = stages.setdefault(
            label, {"self_s": 0.0, "total_s": 0.0, "count": 0})
        entry["self_s"] += per_span_self[int(span["id"])]
        entry["total_s"] += float(span.get("duration_s") or 0.0)
        entry["count"] += 1
    for entry in stages.values():
        entry["self_s"] = round(entry["self_s"], 6)
        entry["total_s"] = round(entry["total_s"], 6)
    return stages


def cache_breakdown(records: Iterable[Mapping[str, object]]
                    ) -> Dict[str, Dict[str, float]]:
    """Label -> summed per-span BDD operation-cache deltas (+ hit rate)."""
    table: Dict[str, Dict[str, float]] = {}
    for span in spans_of(records):
        bdd = span.get("bdd")
        if not isinstance(bdd, Mapping):
            continue
        label = span_label(span)
        entry = table.setdefault(
            label, {"lookups": 0, "hits": 0, "evictions": 0})
        entry["lookups"] += int(bdd.get("lookups") or 0)
        entry["hits"] += int(bdd.get("hits") or 0)
        entry["evictions"] += int(bdd.get("evictions") or 0)
    for entry in table.values():
        entry["hit_rate"] = (round(entry["hits"] / entry["lookups"], 4)
                             if entry["lookups"] else None)
    return table


def trace_wall_s(records: Iterable[Mapping[str, object]]) -> float:
    """The traced wall time: summed duration of the root spans."""
    return round(sum(float(span.get("duration_s") or 0.0)
                     for span in spans_of(records)
                     if span.get("parent") is None), 6)


def trace_meta(records: Iterable[Mapping[str, object]]
               ) -> Dict[str, object]:
    for record in records:
        if record.get("type") == "meta":
            return {key: value for key, value in record.items()
                    if key != "type"}
    return {}


def trace_summary(records: Iterable[Mapping[str, object]]
                  ) -> Dict[str, object]:
    """Everything the aggregate report needs from one entry's trace."""
    records = list(records)
    meta = trace_meta(records)
    end = next((r for r in records if r.get("type") == "end"), {})
    return {
        "entry": meta.get("entry"),
        "fingerprint": meta.get("fingerprint"),
        "provenance": meta.get("provenance") or {},
        "wall_s": trace_wall_s(records),
        "stages": stage_breakdown(records),
        "cache": cache_breakdown(records),
        "events": len(events_of(records)),
        "metrics": end.get("metrics") or {},
    }


def merge_stage_tables(summaries: Iterable[Mapping[str, object]]
                       ) -> Dict[str, Dict[str, float]]:
    """Summed per-stage table over many entry summaries."""
    merged: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for label, entry in (summary.get("stages") or {}).items():
            slot = merged.setdefault(
                label, {"self_s": 0.0, "total_s": 0.0, "count": 0})
            slot["self_s"] += float(entry.get("self_s") or 0.0)
            slot["total_s"] += float(entry.get("total_s") or 0.0)
            slot["count"] += int(entry.get("count") or 0)
    for slot in merged.values():
        slot["self_s"] = round(slot["self_s"], 6)
        slot["total_s"] = round(slot["total_s"], 6)
    return merged


def merge_cache_tables(summaries: Iterable[Mapping[str, object]]
                       ) -> Dict[str, Dict[str, float]]:
    """Summed per-stage BDD cache-efficiency table over many entries."""
    merged: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for label, entry in (summary.get("cache") or {}).items():
            slot = merged.setdefault(
                label, {"lookups": 0, "hits": 0, "evictions": 0})
            slot["lookups"] += int(entry.get("lookups") or 0)
            slot["hits"] += int(entry.get("hits") or 0)
            slot["evictions"] += int(entry.get("evictions") or 0)
    for slot in merged.values():
        slot["hit_rate"] = (round(slot["hits"] / slot["lookups"], 4)
                            if slot["lookups"] else None)
    return merged


def format_traversal(traversal: Optional[Mapping[str, object]]) -> str:
    """One-line traversal summary used by the ``--profile`` report.

    Rebuilds :class:`~repro.core.stats.TraversalStats` from its
    serialised form, so derived values (the cache hit rate) come from
    the stats layer instead of ad-hoc arithmetic at the call site.
    """
    if not traversal:
        return ""
    stats = TraversalStats.from_dict(traversal)
    rate = (f"{stats.cache_hit_rate:.2f}" if stats.cache_lookups else "-")
    return (f"traversal={stats.wall_time_s:.3f}s"
            f" iterations={stats.iterations}"
            f" images={stats.images_computed}"
            f" bdd_peak={stats.peak_nodes}"
            f" live_peak={stats.peak_live_nodes}"
            f" hit_rate={rate}")
