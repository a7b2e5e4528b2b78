"""Rendering: self-contained HTML reports, ASCII fallback, JSON dumps.

The HTML report is a single file with no external references — inline CSS,
inline SVG sparklines — so it can be uploaded as a CI artifact and opened
anywhere.  The ASCII form renders the same delta tables through
:func:`repro.util.tables.format_table` (plus unicode-block sparklines for
the history view) for terminals and CI job summaries.
"""

from __future__ import annotations

import html
import json

from repro.compare.diff import DeltaRow, RunDiff
from repro.compare.meta import machine_fingerprint

#: History keys worth a sparkline, per bench kind, in display order.
HISTORY_KEYS = {
    "pipeline": (
        "per_triangle.fragments_per_s",
        "quadstream.fragments_per_s",
        "speedup.fragments_per_s",
        "observer.overhead_pct",
        "farm.serial.seconds",
    ),
    "serve": (
        "waves.cold.throughput_rps",
        "waves.warm.throughput_rps",
        "waves.cold.latency_s.p50",
        "waves.warm.latency_s.p99",
        "cache.hit_rate",
        "errors",
    ),
}

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def history_series(
    entries: list[dict], keys: tuple[str, ...] | list[str] | None = None
) -> list[tuple[str, list[float | None]]]:
    """Per-key value trajectories over history entries, oldest first.

    ``keys=None`` selects the curated :data:`HISTORY_KEYS` for whatever
    bench kinds appear; an entry missing a key contributes ``None`` (a gap
    in the sparkline, not a zero).
    """
    if keys is None:
        kinds = []
        for entry in entries:
            kind = entry.get("bench")
            if kind not in kinds:
                kinds.append(kind)
        keys = [
            key
            for kind in kinds
            for key in HISTORY_KEYS.get(kind, ())
        ]
    series: list[tuple[str, list[float | None]]] = []
    for key in keys:
        values = [
            value if isinstance(value, (int, float)) else None
            for value in (
                entry.get("metrics", {}).get(key) for entry in entries
            )
        ]
        if sum(v is not None for v in values) >= 1:
            series.append((key, values))
    return series


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        return f"{value:.4g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def _row_cells(row: DeltaRow) -> list[str]:
    rel = f"{row.rel_pct:+.1f}%" if row.rel_pct is not None else "-"
    status = row.status + (" (advisory)" if row.advisory else "")
    return [row.name, _fmt(row.a), _fmt(row.b), rel, row.klass, status]


# -- ASCII -----------------------------------------------------------------
def ascii_sparkline(values: list[float | None], width: int = 32) -> str:
    """Unicode block sparkline; gaps render as spaces."""
    if len(values) > width:
        values = values[-width:]
    present = [v for v in values if v is not None]
    if not present:
        return ""
    lo, hi = min(present), max(present)
    span = hi - lo
    chars = []
    for value in values:
        if value is None:
            chars.append(" ")
        elif span == 0:
            chars.append(_SPARK_BLOCKS[3])
        else:
            index = int((value - lo) / span * (len(_SPARK_BLOCKS) - 1))
            chars.append(_SPARK_BLOCKS[index])
    return "".join(chars)


def _diff_header_lines(diff: RunDiff) -> list[str]:
    lines = [f"A: {diff.label_a}", f"B: {diff.label_b}"]
    for side, meta in (("A", diff.meta_a), ("B", diff.meta_b)):
        if meta:
            rev = str(meta.get("git_rev", "?"))[:12]
            lines.append(
                f"   {side}: rev {rev} @ {meta.get('timestamp_utc', '?')}, "
                f"python {meta.get('python', '?')}, "
                f"{meta.get('cpu_count', '?')} cpu(s), "
                f"native {'off' if meta.get('no_native') else 'on'}"
            )
    if not diff.fingerprint_match:
        lines.append(
            "note: machine fingerprints differ or are unknown — "
            "timing deltas are ADVISORY, not gated"
        )
    counts = diff.counts()
    lines.append(
        f"{counts['compared']} values compared: "
        f"{counts['non_timing']} non-timing delta(s), "
        f"{counts['regressions']} timing regression(s) beyond "
        f"{diff.band_pct:g}%, {counts['rows']} row(s) total"
    )
    if diff.skipped:
        lines.append(
            "sections without both sides (skipped): "
            + ", ".join(diff.skipped)
        )
    return lines


def render_ascii(diff: RunDiff, max_rows: int = 40) -> str:
    """Terminal/CI-summary rendering of a diff."""
    from repro.util.tables import format_table

    out = _diff_header_lines(diff)
    if diff.empty:
        out.append("no differences")
        return "\n".join(out)
    for section in ("identity", "metrics", "stages", "cells"):
        rows = diff.section_rows(section)
        if not rows:
            continue
        shown = rows[:max_rows]
        out.append("")
        out.append(
            format_table(
                ["name", "A", "B", "rel", "class", "status"],
                [_row_cells(row) for row in shown],
                title=f"{section}: {len(rows)} delta(s)",
            )
        )
        if len(rows) > len(shown):
            out.append(f"  ... {len(rows) - len(shown)} more row(s)")
    return "\n".join(out)


def render_history_ascii(
    entries: list[dict], keys: list[str] | None = None
) -> str:
    """Sparkline trajectory of the bench history, one line per metric."""
    if not entries:
        return "no bench history entries"
    series = history_series(entries, keys)
    width = max((len(key) for key, _ in series), default=10)
    out = [
        f"bench history: {len(entries)} run(s), "
        f"{entries[0].get('meta', {}).get('timestamp_utc', '?')} -> "
        f"{entries[-1].get('meta', {}).get('timestamp_utc', '?')}"
    ]
    for key, values in series:
        present = [v for v in values if v is not None]
        spark = ascii_sparkline(values)
        out.append(
            f"  {key:<{width}} {spark} "
            f"last {_fmt(present[-1])} "
            f"(min {_fmt(min(present))}, max {_fmt(max(present))})"
        )
    return "\n".join(out)


# -- JSON ------------------------------------------------------------------
def render_json(diff: RunDiff) -> str:
    return json.dumps(diff.as_dict(), indent=2, sort_keys=True) + "\n"


# -- HTML ------------------------------------------------------------------
_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 72em; color: #1a1a2e; padding: 0 1em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; width: 100%; margin: 0.6em 0; }
th, td { text-align: left; padding: 0.25em 0.7em; border-bottom:
         1px solid #e0e0ea; font-variant-numeric: tabular-nums; }
th { background: #f4f4fa; }
code { background: #f4f4fa; padding: 0 0.25em; }
.meta { color: #555; font-size: 0.92em; }
.advisory { background: #fff8e6; border: 1px solid #e8d9a0;
            padding: 0.5em 0.8em; border-radius: 4px; }
.ok { color: #1f7a33; } .bad { color: #b3261e; font-weight: 600; }
.warn { color: #9a6700; } .dim { color: #888; }
.spark { display: flex; gap: 1.5em; flex-wrap: wrap; }
.spark figure { margin: 0; }
.spark figcaption { font-size: 0.85em; color: #555; }
"""

_STATUS_CLASS = {
    "regression": "bad",
    "changed": "bad",
    "added": "warn",
    "removed": "warn",
    "shift": "warn",
    "improvement": "ok",
    "noise": "dim",
}


def sparkline_svg(
    values: list[float | None], width: int = 240, height: int = 44
) -> str:
    """Inline SVG polyline of one metric trajectory (gaps break the line)."""
    present = [v for v in values if v is not None]
    if not present:
        return "<svg></svg>"
    lo, hi = min(present), max(present)
    span = (hi - lo) or 1.0
    pad = 4
    step = (width - 2 * pad) / max(1, len(values) - 1)

    def point(i: int, v: float) -> str:
        x = pad + i * step
        y = height - pad - (v - lo) / span * (height - 2 * pad)
        return f"{x:.1f},{y:.1f}"

    segments: list[list[str]] = [[]]
    for i, value in enumerate(values):
        if value is None:
            if segments[-1]:
                segments.append([])
        else:
            segments[-1].append(point(i, value))
    parts = [
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} '
        f'{height}" xmlns="http://www.w3.org/2000/svg" role="img">'
    ]
    for seg in segments:
        if len(seg) > 1:
            parts.append(
                f'<polyline points="{" ".join(seg)}" fill="none" '
                'stroke="#4355b9" stroke-width="1.6"/>'
            )
        elif len(seg) == 1:
            x, y = seg[0].split(",")
            parts.append(
                f'<circle cx="{x}" cy="{y}" r="2" fill="#4355b9"/>'
            )
    last = [i for i, v in enumerate(values) if v is not None][-1]
    parts.append(
        f'<circle cx="{point(last, values[last]).split(",")[0]}" '
        f'cy="{point(last, values[last]).split(",")[1]}" r="2.6" '
        'fill="#b3261e"/>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _html_meta_table(diff: RunDiff) -> str:
    fields = ("git_rev", "timestamp_utc", "python", "cpu_count", "no_native")
    rows = []
    for name in fields:
        a = diff.meta_a.get(name)
        b = diff.meta_b.get(name)
        if a is None and b is None:
            continue
        rows.append(
            f"<tr><td>{html.escape(name)}</td>"
            f"<td><code>{html.escape(_fmt(a))}</code></td>"
            f"<td><code>{html.escape(_fmt(b))}</code></td></tr>"
        )
    if not rows:
        return ""
    return (
        "<table><tr><th>meta</th><th>A</th><th>B</th></tr>"
        + "".join(rows)
        + "</table>"
    )


def _html_section_table(section: str, rows: list[DeltaRow]) -> str:
    body = []
    for row in rows:
        status = row.status + (" (advisory)" if row.advisory else "")
        cls = _STATUS_CLASS.get(row.status, "")
        if row.advisory and row.status in ("regression", "changed"):
            cls = "warn"
        rel = f"{row.rel_pct:+.1f}%" if row.rel_pct is not None else "&ndash;"
        body.append(
            f"<tr><td><code>{html.escape(row.name)}</code></td>"
            f"<td>{html.escape(_fmt(row.a))}</td>"
            f"<td>{html.escape(_fmt(row.b))}</td>"
            f"<td>{rel}</td><td>{html.escape(row.klass)}</td>"
            f'<td class="{cls}">{html.escape(status)}</td></tr>'
        )
    return (
        f"<h2>{html.escape(section)} &mdash; {len(rows)} delta(s)</h2>"
        "<table><tr><th>name</th><th>A</th><th>B</th><th>rel</th>"
        "<th>class</th><th>status</th></tr>" + "".join(body) + "</table>"
    )


def _html_history(entries: list[dict], keys: list[str] | None = None) -> str:
    if not entries:
        return ""
    figures = []
    for key, values in history_series(entries, keys):
        present = [v for v in values if v is not None]
        figures.append(
            "<figure>"
            + sparkline_svg(values)
            + f"<figcaption><code>{html.escape(key)}</code><br>"
            f"last {html.escape(_fmt(present[-1]))} &middot; "
            f"min {html.escape(_fmt(min(present)))} &middot; "
            f"max {html.escape(_fmt(max(present)))}"
            "</figcaption></figure>"
        )
    return (
        f"<h2>bench history &mdash; {len(entries)} run(s)</h2>"
        '<div class="spark">' + "".join(figures) + "</div>"
    )


def render_html(
    diff: RunDiff,
    history: list[dict] | None = None,
    history_keys: list[str] | None = None,
) -> str:
    """One self-contained HTML document: header, deltas, sparklines."""
    counts = diff.counts()
    verdict_cls = (
        "bad"
        if counts["non_timing"] or counts["regressions"]
        else "ok"
    )
    verdict = (
        f"{counts['non_timing']} non-timing delta(s), "
        f"{counts['regressions']} timing regression(s) beyond "
        f"{diff.band_pct:g}%"
        if not diff.empty
        else "no differences"
    )
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>repro compare</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>repro compare &mdash; cross-run regression report</h1>",
        f'<p class="meta">A: <code>{html.escape(diff.label_a)}</code><br>'
        f'B: <code>{html.escape(diff.label_b)}</code></p>',
        _html_meta_table(diff),
        f'<p class="{verdict_cls}">{html.escape(verdict)} '
        f"({counts['compared']} values compared)</p>",
    ]
    if not diff.fingerprint_match:
        fp_a = machine_fingerprint(diff.meta_a) or "unknown"
        fp_b = machine_fingerprint(diff.meta_b) or "unknown"
        parts.append(
            '<p class="advisory">Machine fingerprints differ or are '
            "unknown &mdash; timing deltas below are advisory and do not "
            f"gate.<br><code>A: {html.escape(fp_a)}</code><br>"
            f"<code>B: {html.escape(fp_b)}</code></p>"
        )
    if diff.skipped:
        parts.append(
            '<p class="meta">sections without both sides (skipped): '
            + html.escape(", ".join(diff.skipped))
            + "</p>"
        )
    for section in ("identity", "metrics", "stages", "cells"):
        rows = diff.section_rows(section)
        if rows:
            parts.append(_html_section_table(section, rows))
    if history:
        parts.append(_html_history(history, history_keys))
    parts.append("</body></html>")
    return "".join(parts) + "\n"


def render_history_html(
    entries: list[dict], keys: list[str] | None = None
) -> str:
    """History-only HTML report (``repro compare --history``)."""
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>repro bench history</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>repro bench history</h1>",
        _html_history(entries, keys) or "<p>no history entries</p>",
        "</body></html>",
    ]
    return "".join(parts) + "\n"
