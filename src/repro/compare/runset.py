"""Normalize anything that "ran" into one lazily-computed ``RunResults``.

The regression explorer diffs *runs*, and a run can live in four shapes:

* a **benchmark document** — ``BENCH_pipeline.json`` / ``BENCH_serve.json``
  (or one line of ``results/bench_history.jsonl``);
* a **span export** — the ``.jsonl`` timeline ``repro observe
  --export`` writes, whose track headers carry merged metric snapshots;
* a **live probe** — a fresh farm run of one :class:`JobSpec` under the
  observer, executed in a subprocess against the current tree;
* a **git revision** — the same probe, but against ``git archive <rev>``
  unpacked into a temp directory (checkout-to-tempdir + re-run), so
  ``repro compare HEAD~1 HEAD`` measures two actual states of the code.

Each shape is loaded into a :class:`RunResults`: a label, a provenance
``meta`` block, and four measurement sections — flat ``metrics``,
per-stage span self-times (``stages``), the bit-identity fingerprint
(``identity``), and Tables I–XVII cell values (``cells``).  Sections are
**lazy** in the fuzzbench ``ExperimentResults`` style: nothing executes
until a section is first read, and expensive sources (probes, table
regeneration) run exactly once however many sections the diff walks.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

from repro.compare.meta import flatten, git_rev, run_meta

#: Default probe: two simulated frames of the paper's lead workload —
#: small enough to re-run per revision, big enough to touch every stage.
DEFAULT_PROBE_KIND = "sim"
DEFAULT_PROBE_WORKLOAD = "UT2004/Primeval"
DEFAULT_PROBE_FRAMES = 2

#: Reduced frame budgets for Tables I–XVII cell regeneration (CI-sized).
DEFAULT_CELL_BUDGETS = {"api_frames": 8, "sim_frames": 1, "geometry_frames": 3}


@dataclass
class ProbeSpec:
    """What a live/revision probe measures."""

    kind: str = DEFAULT_PROBE_KIND
    workload: str = DEFAULT_PROBE_WORKLOAD
    frames: int = DEFAULT_PROBE_FRAMES
    jobs: int = 1
    shard_frames: int | None = None

    def describe(self) -> str:
        label = f"{self.kind}:{self.workload}@{self.frames}f"
        if self.jobs != 1:
            label += f" --jobs {self.jobs}"
        return label


class RunResults:
    """One normalized run; sections are computed on first access and cached.

    ``loader`` (when given) produces the expensive sections in one shot —
    a subprocess probe, a history parse — and runs at most once.
    ``cells_loader`` is separate because table regeneration is much more
    expensive than a probe and most diffs never read it.
    """

    def __init__(
        self,
        label: str,
        source: str,
        *,
        meta: dict | None = None,
        metrics: dict | None = None,
        metric_types: dict | None = None,
        stages: dict | None = None,
        identity: dict | None = None,
        loader=None,
        cells_loader=None,
    ):
        self.label = label
        self.source = source
        self._loader = loader
        self._cells_loader = cells_loader
        self._loaded = loader is None
        self._data: dict = {}
        for name, value in (
            ("meta", meta),
            ("metrics", metrics),
            ("metric_types", metric_types),
            ("stages", stages),
            ("identity", identity),
        ):
            if value is not None:
                self._data[name] = value
        self._cells: dict | None = None

    # -- lazy section access ---------------------------------------------
    def _section(self, name: str) -> dict:
        if name not in self._data and not self._loaded:
            produced = self._loader() or {}
            self._loaded = True
            for key, value in produced.items():
                self._data.setdefault(key, value)
        return self._data.get(name) or {}

    @property
    def meta(self) -> dict:
        """Provenance block (:func:`repro.compare.meta.run_meta` shape)."""
        return self._section("meta")

    @property
    def metrics(self) -> dict:
        """Flat ``dotted.name -> scalar`` measurements."""
        return self._section("metrics")

    @property
    def metric_types(self) -> dict:
        """``name -> "counter"|"gauge"|"histogram"`` where known."""
        return self._section("metric_types")

    @property
    def stages(self) -> dict:
        """``span name -> {"count": int, "self_seconds": float}``."""
        return self._section("stages")

    @property
    def identity(self) -> dict:
        """Flat bit-identity fingerprint (quad fates, cache triples, ...)."""
        return self._section("identity")

    @property
    def cells(self) -> dict:
        """Tables I–XVII cell values: ``"Table III|row|col" -> measured``."""
        if self._cells is None:
            self._cells = (
                self._cells_loader() if self._cells_loader is not None else {}
            )
        return self._cells

    def describe(self) -> str:
        return f"{self.label} [{self.source}]"


# -- normalization helpers -------------------------------------------------
def stages_from_timeline(tracks: list[dict]) -> dict:
    """Per-name span counts + self-time seconds from an exported timeline."""
    from repro.observe.export import top_spans

    return {
        agg["name"]: {
            "count": agg["count"],
            "self_seconds": round(agg["self_ns"] / 1e9, 6),
        }
        for agg in top_spans(tracks, n=None)
    }


def metrics_from_snapshot(snapshot: dict) -> tuple[dict, dict]:
    """Flatten a :meth:`MetricsRegistry.snapshot` into scalars + types.

    Counters and gauges keep their value under their own name; histograms
    expand to ``<name>.count`` / ``<name>.total`` (bucket vectors add no
    diff signal the totals don't already carry).
    """
    metrics: dict = {}
    types: dict = {}
    for name in sorted(snapshot):
        doc = snapshot[name]
        kind = doc.get("type")
        if kind in ("counter", "gauge"):
            metrics[name] = doc.get("value")
            types[name] = kind
        elif kind == "histogram":
            metrics[f"{name}.count"] = doc.get("count")
            metrics[f"{name}.total"] = doc.get("total")
            types[f"{name}.count"] = "histogram"
            types[f"{name}.total"] = "histogram"
    return metrics, types


def _normalize_probe(doc: dict, label: str, source: str, meta: dict) -> RunResults:
    metrics, types = metrics_from_snapshot(doc.get("metrics") or {})
    return RunResults(
        label,
        source,
        meta=meta,
        metrics=metrics,
        metric_types=types,
        stages=stages_from_timeline(doc.get("timeline") or []),
        identity=flatten(doc.get("identity") or {}, exclude=()),
    )


# -- sources ---------------------------------------------------------------
def from_bench(path: str | os.PathLike, label: str | None = None) -> RunResults:
    """A ``BENCH_*.json`` document (or any JSON object of measurements)."""
    source = pathlib.Path(path)
    doc = json.loads(source.read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: benchmark document must be a JSON object")
    return RunResults(
        label or source.name,
        "bench",
        meta=doc.get("meta") or {},
        metrics=flatten(doc),
    )


def from_history(
    path: str | os.PathLike,
    bench: str | None = None,
    index: int = -1,
    label: str | None = None,
) -> RunResults:
    """One entry of ``results/bench_history.jsonl`` (the last by default)."""
    from repro.compare.meta import load_history

    entries = load_history(path, bench=bench)
    if not entries:
        raise ValueError(
            f"{path}: no history entries"
            + (f" for bench {bench!r}" if bench else "")
        )
    entry = entries[index]
    position = index if index >= 0 else len(entries) + index
    return RunResults(
        label or f"{pathlib.Path(path).name}[{position}]",
        "history",
        meta=entry.get("meta") or {},
        metrics=entry.get("metrics") or {},
    )


def from_spans(path: str | os.PathLike, label: str | None = None) -> RunResults:
    """An ``observe --export`` JSONL timeline + its embedded metric merge."""
    from repro.observe.export import from_jsonl
    from repro.observe.metrics import MetricsRegistry

    source = pathlib.Path(path)
    tracks = from_jsonl(source.read_text())
    registry = MetricsRegistry()
    for track in tracks:
        snapshot = track.get("metrics") or {}
        try:
            registry.merge(snapshot)
        except (TypeError, ValueError, KeyError):
            continue
    metrics, types = metrics_from_snapshot(registry.snapshot())
    return RunResults(
        label or source.name,
        "spans",
        meta={},
        metrics=metrics,
        metric_types=types,
        stages=stages_from_timeline(tracks),
    )


def _run_driver(
    src_root: pathlib.Path,
    probe: ProbeSpec,
    meta: dict,
    label: str,
    source: str,
    env_extra: dict | None = None,
) -> RunResults:
    """Execute the probe driver against ``src_root`` in a subprocess."""
    with tempfile.TemporaryDirectory(prefix="repro-compare-probe-") as tmp:
        driver = pathlib.Path(tmp) / "probe_driver.py"
        out = pathlib.Path(tmp) / "probe.json"
        driver.write_text(_DRIVER_SOURCE)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_root) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env.setdefault("REPRO_CACHE_DIR", str(pathlib.Path(tmp) / "cache"))
        env.pop("REPRO_OBSERVE", None)  # the driver arms its own tracer
        env.update(env_extra or {})
        proc = subprocess.run(
            [
                sys.executable,
                str(driver),
                probe.kind,
                probe.workload,
                str(probe.frames),
                str(probe.jobs),
                "auto" if probe.shard_frames is None else str(probe.shard_frames),
                str(out),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0 or not out.exists():
            tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-8:]
            raise RuntimeError(
                f"probe of {label} failed (exit {proc.returncode}):\n"
                + "\n".join(tail)
            )
        doc = json.loads(out.read_text())
    return _normalize_probe(doc, label, source, meta)


def current_src_root() -> pathlib.Path:
    """The ``src/`` directory the running ``repro`` package was loaded from."""
    import repro

    return pathlib.Path(repro.__file__).resolve().parent.parent


def from_live(
    probe: ProbeSpec | None = None,
    label: str | None = None,
    cell_tables: list[str] | None = None,
    cell_budgets: dict | None = None,
) -> RunResults:
    """A fresh probe of the *current* tree (run lazily, in a subprocess)."""
    probe = probe or ProbeSpec()
    meta = run_meta()
    name = label or f"live:{probe.describe()}"

    def loader() -> dict:
        results = _run_driver(current_src_root(), probe, meta, name, "live")
        return dict(results._data)

    return RunResults(
        name,
        "live",
        meta=meta,
        loader=loader,
        cells_loader=(
            (lambda: cells_from_tables(cell_tables, cell_budgets))
            if cell_tables
            else None
        ),
    )


def from_rev(
    rev: str,
    probe: ProbeSpec | None = None,
    repo_root: str | os.PathLike = ".",
    label: str | None = None,
) -> RunResults:
    """Checkout ``rev`` to a temp dir and probe that tree via the farm.

    Requires the revision to contain the post-observe layout
    (``src/repro`` with the farm and span subsystems); older revisions
    still produce the identity section, with stages/metrics empty.
    """
    probe = probe or ProbeSpec()
    resolved = resolve_rev(rev, repo_root)
    if resolved is None:
        raise ValueError(f"{rev!r} is not a git revision")
    name = label or f"{rev}:{probe.describe()}"
    meta = run_meta()
    meta["git_rev"] = resolved

    def loader() -> dict:
        with tempfile.TemporaryDirectory(prefix="repro-compare-rev-") as tmp:
            tree = pathlib.Path(tmp) / "tree"
            tree.mkdir()
            archive = subprocess.run(
                ["git", "archive", resolved],
                cwd=str(repo_root),
                capture_output=True,
            )
            if archive.returncode != 0:
                raise RuntimeError(
                    f"git archive {rev} failed: "
                    f"{archive.stderr.decode(errors='replace').strip()}"
                )
            untar = subprocess.run(
                ["tar", "-x", "-C", str(tree)], input=archive.stdout,
                capture_output=True,
            )
            if untar.returncode != 0:
                raise RuntimeError(f"unpacking git archive {rev} failed")
            src = tree / "src"
            if not (src / "repro").is_dir():
                raise RuntimeError(f"{rev}: no src/repro package in the tree")
            results = _run_driver(src, probe, meta, name, "rev")
            return dict(results._data)

    return RunResults(name, "rev", meta=meta, loader=loader)


def resolve_rev(token: str, repo_root: str | os.PathLike = ".") -> str | None:
    """Full hash for a git revision token, or ``None`` if it isn't one."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--verify", "--quiet", token + "^{commit}"],
            cwd=str(repo_root),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def cells_from_tables(
    only: list[str] | None = None, budgets: dict | None = None
) -> dict:
    """Regenerate paper-table cells through the farm; measured values only.

    Keys are ``"<exhibit>|<row label>|<column>"`` so a diff pinpoints the
    exact cell (``"Table III|UT2004/Primeval|idx/batch"``).  Budgets
    default to the CI-sized reduced frame counts.
    """
    from repro.experiments import ExperimentConfig, Runner, tables

    budgets = dict(DEFAULT_CELL_BUDGETS, **(budgets or {}))
    runner = Runner(ExperimentConfig(**budgets))
    names = sorted(only) if only else sorted(tables.ALL_TABLES)
    cells: dict = {}
    for name in names:
        func = tables.ALL_TABLES.get(name)
        if func is None:
            raise ValueError(f"unknown table {name!r}")
        comparison = func(runner=runner)
        headers = comparison.headers
        for row_no, row in enumerate(comparison.rows):
            row_label = str(row[0])
            for col_no in range(1, len(row)):
                column = headers[col_no] if col_no < len(headers) else str(col_no)
                cells[f"{comparison.exhibit}|{row_label}|{column}"] = (
                    comparison.measured(row_no, col_no)
                )
    return cells


# -- source dispatch -------------------------------------------------------
@dataclass
class LoadOptions:
    """How tokens resolve: probe shape, repo root, optional table cells."""

    probe: ProbeSpec = field(default_factory=ProbeSpec)
    repo_root: str | os.PathLike = "."
    cell_tables: list[str] | None = None
    cell_budgets: dict | None = None
    history_bench: str | None = None


def load_run(token: str, options: LoadOptions | None = None) -> RunResults:
    """Resolve one CLI token into a :class:`RunResults`.

    Order of interpretation:

    1. an existing ``.jsonl`` file — span timeline or bench history
       (sniffed from the first parseable line);
    2. an existing ``.json`` file — benchmark document;
    3. ``live`` / ``worktree`` / ``.`` — probe the current tree;
    4. ``<kind>:<workload>@<frames>`` — probe that spec on the current tree;
    5. a git revision — checkout-to-tempdir + probe.
    """
    options = options or LoadOptions()
    path = pathlib.Path(token)
    if path.is_file():
        if path.suffix == ".jsonl":
            first: dict = {}
            for line in path.read_text().splitlines():
                if line.strip():
                    try:
                        first = json.loads(line)
                    except ValueError:
                        first = {}
                    break
            if isinstance(first, dict) and first.get("type") == "track":
                return from_spans(path)
            return from_history(path, bench=options.history_bench)
        return from_bench(path)
    if token in ("live", "worktree", "."):
        return from_live(
            options.probe,
            cell_tables=options.cell_tables,
            cell_budgets=options.cell_budgets,
        )
    if ":" in token and "@" in token:
        probe = _parse_spec_token(token, options.probe)
        if probe is not None:
            return from_live(
                probe,
                cell_tables=options.cell_tables,
                cell_budgets=options.cell_budgets,
            )
    if resolve_rev(token, options.repo_root) is not None:
        return from_rev(token, options.probe, options.repo_root)
    raise ValueError(
        f"cannot resolve {token!r}: not a file, 'live', a "
        f"kind:workload@frames spec, or a git revision"
    )


def _parse_spec_token(token: str, base: ProbeSpec) -> ProbeSpec | None:
    """``sim:UT2004/Primeval@2`` → a probe; None if it doesn't parse."""
    kind, _, rest = token.partition(":")
    workload, _, frames = rest.rpartition("@")
    if kind not in ("api", "sim", "geometry") or not workload:
        return None
    try:
        budget = int(frames)
    except ValueError:
        return None
    return ProbeSpec(
        kind=kind,
        workload=workload,
        frames=budget,
        jobs=base.jobs,
        shard_frames=base.shard_frames,
    )


#: Probe driver, written to a temp file and executed against either the
#: current tree or an archived revision.  Deliberately self-contained and
#: defensive: it must run under *older* code states too, so it only uses
#: long-stable APIs (farm + workloads) and degrades — empty metrics and
#: timeline — when the observe subsystem predates the revision.
_DRIVER_SOURCE = '''\
import hashlib
import json
import sys
import tempfile


def _identity(result):
    if hasattr(result, "frame_stats"):  # SimulationResult
        digest = hashlib.sha256()
        for image in getattr(result, "images", []) or []:
            digest.update(image.tobytes())
        return {
            "frame_stats": [fs.as_dict() for fs in result.frame_stats],
            "caches": {
                name: {
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "accesses": getattr(cache, "accesses", None),
                }
                for name, cache in sorted(result.caches.items())
            },
            "images": digest.hexdigest(),
        }
    summary = {}
    for attr in (
        "frame_count", "total_batches", "avg_indices_per_batch",
        "avg_indices_per_frame", "avg_state_calls_per_frame",
        "avg_vertex_instructions", "avg_fragment_instructions",
        "avg_texture_instructions", "alu_to_texture_ratio",
        "avg_primitives_per_frame", "index_size_bytes",
    ):
        if hasattr(result, attr):
            summary[attr] = getattr(result, attr)
    return {"api": summary}


def main():
    kind, workload, frames, jobs, shard, out = sys.argv[1:7]
    frames, jobs = int(frames), int(jobs)
    shard_frames = None if shard == "auto" else int(shard)

    tracer = None
    observe = None
    try:
        from repro import observe as observe_mod

        observe = observe_mod
        observe.metrics.reset()
        tracer = observe.enable(track="main")
    except Exception:
        observe = None

    from repro.farm import ArtifactStore, Farm, JobSpec

    with tempfile.TemporaryDirectory(prefix="repro-probe-store-") as tmp:
        kwargs = dict(store=ArtifactStore(tmp), jobs=jobs, use_cache=True)
        try:
            farm = Farm(shard_frames=shard_frames, **kwargs)
        except TypeError:  # revision predates frame sharding
            farm = Farm(**kwargs)
        try:
            result = farm.run_one(JobSpec(kind, workload, frames))
        finally:
            try:
                farm.close()
            except Exception:
                pass
        doc = {
            "probe": {"kind": kind, "workload": workload, "frames": frames,
                      "jobs": jobs},
            "identity": _identity(result),
            "metrics": {},
            "timeline": [],
        }
        if observe is not None:
            doc["metrics"] = observe.registry().snapshot()
            doc["timeline"] = tracer.timeline()
            observe.disable()
    with open(out, "w") as handle:
        json.dump(doc, handle)


if __name__ == "__main__":
    main()
'''
