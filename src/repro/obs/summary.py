"""``repro-hoiho trace summary``: render a trace JSONL file as text.

The renderer turns a flat list of span records back into the tree the
tracer produced -- including worker-side spans that were re-parented by
:meth:`Tracer.adopt` -- and prints:

* the stage tree with per-span wall/cpu totals, attribute highlights,
  and events (retries, pool rebuilds, degradation) inline;
* a self-time table: per span name, wall minus the children's wall,
  with its share of the total wall (the rows sum to that total);
* a top-N table of the slowest ``learn.suffix`` spans (the unit of
  work the paper's Hoiho algorithm iterates over);
* a resilience table summing retry/pool-rebuild/timeout/poison events
  across the whole run;
* a cache table aggregating MatchCache hit-rates and artifact-store
  hits/misses/writes from span attributes.

Everything is computed from the records alone, so a file written on
one machine renders identically anywhere.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

#: Span attributes surfaced inline in the tree (order matters).
_HIGHLIGHT_ATTRS = ("suffix", "snapshot", "kind", "candidates", "kept",
                    "hit_rate", "hit", "keys", "hits", "items", "nodes",
                    "annotated", "round", "retries", "chunk")

#: Event names counted into the resilience table.
_RESILIENCE_EVENTS = ("retry", "pool-rebuild", "timeout", "poisoned",
                      "degrade-to-serial")


def _format_attrs(attrs: Dict[str, object]) -> str:
    parts = []
    for key in _HIGHLIGHT_ATTRS:
        if key in attrs:
            value = attrs[key]
            if isinstance(value, float):
                parts.append("%s=%.3f" % (key, value))
            else:
                parts.append("%s=%s" % (key, value))
    return " ".join(parts)


def _tree(records: List[Dict[str, object]],
          ) -> Tuple[List[Dict[str, object]],
                     Dict[Optional[str], List[Dict[str, object]]]]:
    """Roots plus a parent-id -> children index, preserving file order."""
    ids = {record.get("id") for record in records}
    children: Dict[Optional[str], List[Dict[str, object]]] = {}
    roots: List[Dict[str, object]] = []
    for record in records:
        parent = record.get("parent")
        # A parent id we never saw (truncated file) renders as a root.
        if parent is None or parent not in ids:
            roots.append(record)
        else:
            children.setdefault(parent, []).append(record)
    return roots, children


def _render_span(record: Dict[str, object],
                 children: Dict[Optional[str], List[Dict[str, object]]],
                 depth: int, lines: List[str], max_depth: int,
                 fold: int, shown: Set[str]) -> None:
    indent = "  " * depth
    shown.add(str(record.get("name", "?")))
    attrs = _format_attrs(record.get("attrs") or {})
    status = "" if record.get("status") == "ok" else "  [ERROR: %s]" % (
        record.get("error") or "unknown")
    lines.append("%s%-*s %8.3fs cpu=%7.3fs%s%s"
                 % (indent, max(36 - len(indent), 1),
                    record.get("name", "?"),
                    float(record.get("wall", 0.0)),
                    float(record.get("cpu", 0.0)),
                    ("  " + attrs) if attrs else "", status))
    for event in record.get("events") or []:
        event_attrs = event.get("attrs") or {}
        detail = " ".join("%s=%s" % (k, event_attrs[k])
                          for k in sorted(event_attrs))
        lines.append("%s  ! %s @%.3fs%s"
                     % (indent, event.get("name", "?"),
                        float(event.get("at", 0.0)),
                        ("  " + detail) if detail else ""))
    kids = children.get(record.get("id"), [])
    if depth + 1 >= max_depth and kids:
        lines.append("%s  ... %d child span(s) folded" % (indent, len(kids)))
        return
    if len(kids) > fold:
        shown_wall = sum(float(k.get("wall", 0.0)) for k in kids[fold:])
        for kid in kids[:fold]:
            _render_span(kid, children, depth + 1, lines, max_depth, fold,
                         shown)
        lines.append("%s  ... %d more sibling span(s), %.3fs total"
                     % (indent, len(kids) - fold, shown_wall))
        return
    for kid in kids:
        _render_span(kid, children, depth + 1, lines, max_depth, fold, shown)


def _self_time_table(records: List[Dict[str, object]],
                     children: Dict[Optional[str], List[Dict[str, object]]],
                     total_wall: float, shown: Set[str]) -> List[str]:
    """Per span name: wall minus the children's wall, summed.

    The rows telescope to the roots' total wall.  A row goes negative
    where children overlapped, e.g. spans adopted from parallel workers.
    Names the tree folded away are pooled into one ``(folded)`` row.
    """
    self_wall: Dict[str, float] = {}
    spans: Dict[str, int] = {}
    for record in records:
        name = str(record.get("name", "?"))
        if name not in shown:
            name = "(folded)"
        kids = children.get(record.get("id"), [])
        self_wall[name] = self_wall.get(name, 0.0) + float(
            record.get("wall", 0.0)) - sum(float(k.get("wall", 0.0))
                                           for k in kids)
        spans[name] = spans.get(name, 0) + 1
    lines = ["", "self time by span name",
             "  %-36s %9s %7s %6s" % ("name", "self", "share", "spans")]
    for name in sorted(self_wall, key=lambda n: (-self_wall[n], n)):
        share = ("%6.1f%%" % (100.0 * self_wall[name] / total_wall)
                 if total_wall > 0 else "      -")
        lines.append("  %-36s %8.3fs %s %6d"
                     % (name, self_wall[name], share, spans[name]))
    return lines


def _slowest_suffixes(records: Iterable[Dict[str, object]],
                      top: int) -> List[str]:
    suffixes = [r for r in records if r.get("name") == "learn.suffix"]
    if not suffixes:
        return []
    suffixes.sort(key=lambda r: -float(r.get("wall", 0.0)))
    lines = ["", "slowest suffixes (top %d of %d)"
             % (min(top, len(suffixes)), len(suffixes))]
    lines.append("  %-28s %9s %10s %6s %9s"
                 % ("suffix", "wall", "candidates", "kept", "hit-rate"))
    for record in suffixes[:top]:
        attrs = record.get("attrs") or {}
        hit_rate = attrs.get("hit_rate")
        lines.append("  %-28s %8.3fs %10s %6s %9s"
                     % (attrs.get("suffix", "?"),
                        float(record.get("wall", 0.0)),
                        attrs.get("candidates", "-"),
                        attrs.get("kept", "-"),
                        ("%.1f%%" % (float(hit_rate) * 100.0))
                        if hit_rate is not None else "-"))
    return lines


def _resilience_table(records: Iterable[Dict[str, object]]) -> List[str]:
    counts: Dict[str, int] = {}
    for record in records:
        for event in record.get("events") or []:
            name = event.get("name")
            if name in _RESILIENCE_EVENTS:
                attrs = event.get("attrs") or {}
                amount = int(attrs.get("count", 1))
                counts[name] = counts.get(name, 0) + amount
    if not counts:
        return []
    lines = ["", "resilience events"]
    for name in _RESILIENCE_EVENTS:
        if name in counts:
            lines.append("  %-20s %d" % (name, counts[name]))
    return lines


def _cache_table(records: Iterable[Dict[str, object]]) -> List[str]:
    match_calls = 0
    vector_hits = 0
    store: Dict[str, Dict[str, int]] = {}
    for record in records:
        attrs = record.get("attrs") or {}
        name = record.get("name")
        if name == "learn.suffix":
            match_calls += int(attrs.get("match_calls", 0))
            vector_hits += int(attrs.get("vector_hits", 0))
        elif name in ("store.get", "store.put"):
            kind = str(attrs.get("kind", "?"))
            row = store.setdefault(kind, {"hits": 0, "misses": 0,
                                          "writes": 0})
            if name == "store.put":
                row["writes"] += 1
            else:
                # A get counts its keys; a trace older than batched
                # gets has one key per span and a boolean ``hit``.
                keys = int(attrs.get("keys", 1))
                hits = int(attrs.get("hits", bool(attrs.get("hit"))))
                row["hits"] += hits
                row["misses"] += keys - hits
    lines: List[str] = []
    if match_calls:
        lines += ["", "match cache",
                  "  %-20s %d" % ("match_calls", match_calls),
                  "  %-20s %d" % ("vector_hits", vector_hits),
                  "  %-20s %.1f%%" % ("hit_rate",
                                      100.0 * vector_hits / match_calls)]
    if store:
        lines += ["", "artifact store",
                  "  %-12s %6s %8s %8s" % ("kind", "hits", "misses",
                                           "writes")]
        for kind in sorted(store):
            row = store[kind]
            lines.append("  %-12s %6d %8d %8d"
                         % (kind, row["hits"], row["misses"],
                            row["writes"]))
    return lines


def render_summary(records: List[Dict[str, object]], top: int = 10,
                   max_depth: int = 6, fold: int = 20) -> str:
    """The full ``trace summary`` report for a list of span records.

    ``max_depth`` and ``fold`` keep pathological traces one screen per
    stage: deeper nesting and sibling runs beyond ``fold`` collapse
    into count lines (their time is still in the parent totals).
    """
    if not records:
        return "trace is empty"
    roots, children = _tree(records)
    total_wall = sum(float(r.get("wall", 0.0)) for r in roots)
    errors = sum(1 for r in records if r.get("status") == "error")
    lines = ["trace: %d span(s), %d root stage(s), %.3fs total wall%s"
             % (len(records), len(roots), total_wall,
                (", %d error(s)" % errors) if errors else ""), ""]
    shown: Set[str] = set()
    for root in roots:
        _render_span(root, children, 0, lines, max_depth, fold, shown)
    lines += _self_time_table(records, children, total_wall, shown)
    lines += _slowest_suffixes(records, top)
    lines += _resilience_table(records)
    lines += _cache_table(records)
    return "\n".join(lines)
