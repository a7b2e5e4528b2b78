"""repro.compare — cross-run regression explorer.

Loads *runs* from any of five shapes (live probe, git revision,
``BENCH_*.json`` document, bench-history line, span export) into a
normalized lazily-computed :class:`~repro.compare.runset.RunResults`,
diffs two of them with tolerance classes (bit-identity / banded timing /
informational), and renders the result as ASCII, self-contained HTML, or
JSON.  The same diff feeds the CI ``compare-gate`` via
:func:`~repro.compare.diff.gate`.

Typical use::

    from repro import compare

    a = compare.load_run("HEAD~1")
    b = compare.load_run("live")
    diff = compare.diff_runs(a, b)
    print(compare.render_ascii(diff))

or from the CLI: ``repro compare HEAD~1 HEAD --format html --out report.html``.
"""

from __future__ import annotations

from repro.compare.diff import (
    DEFAULT_BAND_PCT,
    DeltaRow,
    RULES,
    RunDiff,
    classify,
    diff_runs,
    direction,
    gate,
    parse_fail_on,
)
from repro.compare.meta import (
    FINGERPRINT_FIELDS,
    HISTORY_PATH,
    append_history,
    flatten,
    git_rev,
    history_entry,
    load_history,
    machine_fingerprint,
    run_meta,
)
from repro.compare.report import (
    HISTORY_KEYS,
    ascii_sparkline,
    history_series,
    render_ascii,
    render_history_ascii,
    render_history_html,
    render_html,
    render_json,
    sparkline_svg,
)
from repro.compare.runset import (
    LoadOptions,
    ProbeSpec,
    RunResults,
    cells_from_tables,
    from_bench,
    from_history,
    from_live,
    from_rev,
    from_spans,
    load_run,
    resolve_rev,
)

__all__ = [
    "DEFAULT_BAND_PCT",
    "DeltaRow",
    "FINGERPRINT_FIELDS",
    "HISTORY_KEYS",
    "HISTORY_PATH",
    "LoadOptions",
    "ProbeSpec",
    "RULES",
    "RunDiff",
    "RunResults",
    "append_history",
    "ascii_sparkline",
    "cells_from_tables",
    "classify",
    "diff_runs",
    "direction",
    "flatten",
    "from_bench",
    "from_history",
    "from_live",
    "from_rev",
    "from_spans",
    "gate",
    "git_rev",
    "history_entry",
    "history_series",
    "load_history",
    "load_run",
    "machine_fingerprint",
    "parse_fail_on",
    "render_ascii",
    "render_history_ascii",
    "render_history_html",
    "render_html",
    "render_json",
    "resolve_rev",
    "run_meta",
    "sparkline_svg",
]
