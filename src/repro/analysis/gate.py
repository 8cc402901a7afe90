"""Gate orchestrator: per-file rules + whole-program checks, one verdict.

The per-file engine (:mod:`repro.analysis.engine`) and the
whole-program analyses (:mod:`repro.analysis.concurrency`,
:mod:`repro.analysis.seedflow`,
:mod:`repro.analysis.cachekey`, :mod:`repro.analysis.locks`,
:mod:`repro.analysis.shapes`) each produce raw findings; this module
runs them all over one set of paths, applies every file's suppression
table uniformly to both kinds, runs the stale-suppression check
(REPRO-LINT001) over the combined pre-suppression findings, and returns
a single sorted violation list.  ``python -m repro.analysis`` and the
self-lint test both call :func:`analyze_project_paths` so the CLI and
CI can never disagree about what the gate means.

Incremental engine
------------------
The gate memoizes findings through :mod:`repro.utils.artifact_cache`
(directory ``$REPRO_CACHE_DIR/lint``) so a warm re-run on an unchanged
tree re-analyzes nothing and is byte-identical to the cold run:

- **per-file findings** are keyed on the file's SHA-256, the rule-catalog
  fingerprint (:func:`repro.analysis.engine.catalog_fingerprint`), and a
  *dependency fingerprint* — the SHA-256 of the file's transitive
  import closure within the analyzed set.  Touching one file therefore
  re-analyzes exactly that file plus its import-graph dependents,
  mirroring the sensitivity of the cross-file passes.
- **import metadata** (which in-set modules a file imports) is keyed on
  the file's SHA-256 plus the module-name table, so the dependency
  graph itself is rebuilt without re-parsing unchanged files.
- **whole-program findings** are keyed on the catalog fingerprint plus a
  global tree fingerprint (every analyzed ``(path, sha)`` pair).

Cached payloads always hold the findings of *all* rules and *all*
passes; ``--select``/``--ignore`` filtering happens post-hoc, so one
entry serves every selection and cold/warm runs cannot diverge.  The
per-file phase optionally fans out over a ``ProcessPoolExecutor``
(module-level worker, results assembled in sorted path order), so the
report is deterministic at any worker count.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.analysis.cachekey import check_cache_keys
from repro.analysis.concurrency import check_concurrency
from repro.analysis.locks import check_lock_discipline
from repro.analysis.seedflow import check_seed_flow
from repro.analysis.shapes import check_shapes
from repro.analysis.engine import (
    LINT_RULE_ID,
    SYNTAX_ERROR_RULE_ID,
    FileReport,
    Violation,
    analyze_file_findings,
    catalog_fingerprint,
    iter_python_files,
    known_rule_ids,
    project_check_ids,
    report_from_findings,
    stale_suppressions,
)
from repro.analysis.project import ProjectModel

__all__ = [
    "GateReport",
    "LINT_CACHE_NAME",
    "analyze_project_paths",
    "changed_file_subset",
]

#: Registry name of the incremental findings cache (see
#: :func:`repro.utils.artifact_cache.cache_stats`).
LINT_CACHE_NAME = "lint-findings"

_FINDINGS_SCHEMA = "lint-findings-v1"
_IMPORTS_SCHEMA = "lint-imports-v1"
_PROJECT_SCHEMA = "lint-project-v1"


@dataclass
class GateReport:
    """Combined result of one full gate run."""

    violations: List[Violation]
    files_checked: int
    file_reports: List[FileReport]
    #: Paths whose per-file findings were recomputed this run (cache
    #: misses); empty on a fully warm run.
    reanalyzed_paths: List[str] = field(default_factory=list)
    #: Whether the whole-program findings came from the cache.
    project_from_cache: bool = False

    @property
    def has_syntax_errors(self) -> bool:
        """Whether any analyzed file failed to parse (CLI exit 2)."""
        return any(
            v.rule_id == SYNTAX_ERROR_RULE_ID for v in self.violations
        )


def _active_ids(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> Set[str]:
    """Validate select/ignore against the combined catalog and return the
    set of active rule/check ids (ValueError on unknown ``select`` ids,
    mirroring the per-file engine's behavior)."""
    known = known_rule_ids()
    active = set(known)
    if select is not None:
        wanted = set(select)
        unknown = wanted - known
        if unknown:
            raise ValueError(f"unknown rule ids in select: {sorted(unknown)}")
        active = wanted | {SYNTAX_ERROR_RULE_ID}
    if ignore is not None:
        active -= set(ignore)
    return active


def _chain_suppressed(
    finding: Violation, report_by_path: Dict[str, FileReport]
) -> bool:
    """Whole-program findings honor suppressions at *every* link of
    their report chain: a justification belongs wherever the code being
    justified lives (the fork site, the root submit call, the partner
    access), not only at the primary line.  Per-line directives count in
    any chain file; file-wide directives only in the primary file —
    silencing a whole module because one call chain passes through it
    would be far too blunt."""
    primary = report_by_path.get(finding.path)
    if primary is not None and primary.suppressed(finding):
        return True
    for chain_path in {p for p, _ in finding.chain if p != finding.path}:
        report = report_by_path.get(chain_path)
        if report is None:
            continue
        per_line = report.suppressions.per_line
        for line in finding.chain_lines_in(chain_path):
            scope = per_line.get(line, set())
            if "all" in scope or finding.rule_id in scope:
                return True
    return False


# ----------------------------------------------------------------------
# Findings (de)serialization for the artifact cache.
#
# The artifact container stores named numpy arrays; findings travel as a
# canonical JSON document packed into a uint8 byte array.  Sorting keys
# and findings makes the payload — and therefore a warm run's output —
# a pure function of the analyzed sources.
# ----------------------------------------------------------------------
def _violations_to_array(findings: Sequence[Violation]) -> np.ndarray:
    payload = json.dumps(
        [
            {
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "rule": v.rule_id,
                "message": v.message,
                "chain": [[p, n] for p, n in v.chain],
            }
            for v in sorted(findings)
        ],
        sort_keys=True,
    )
    return np.frombuffer(payload.encode("utf-8"), dtype=np.uint8).copy()


def _violations_from_array(array: np.ndarray) -> List[Violation]:
    entries = json.loads(bytes(bytearray(array)).decode("utf-8"))
    return [
        Violation(
            path=entry["path"],
            line=int(entry["line"]),
            col=int(entry["col"]),
            rule_id=entry["rule"],
            message=entry["message"],
            chain=tuple((p, int(n)) for p, n in entry["chain"]),
        )
        for entry in entries
    ]


def _strings_to_array(values: Sequence[str]) -> np.ndarray:
    payload = json.dumps(list(values))
    return np.frombuffer(payload.encode("utf-8"), dtype=np.uint8).copy()


def _strings_from_array(array: np.ndarray) -> List[str]:
    return list(json.loads(bytes(bytearray(array)).decode("utf-8")))


def _digest(*parts: str) -> str:
    joined = "\x1f".join(parts)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Import graph (for dependency fingerprints and --changed-since).
# ----------------------------------------------------------------------
def _module_table(
    path_list: Sequence[Union[str, Path]]
) -> Dict[str, str]:
    """Map analyzed file path → dotted module name, mirroring the module
    naming of :meth:`ProjectModel.from_paths` (package inferred from an
    ``__init__.py`` at each root)."""
    table: Dict[str, str] = {}
    for raw in path_list:
        root = Path(raw)
        if root.is_file():
            table[str(root)] = root.stem
            continue
        package = root.name if (root / "__init__.py").is_file() else None
        for file_path in iter_python_files([root]):
            relative = file_path.relative_to(root).with_suffix("")
            parts = list(relative.parts)
            if parts and parts[-1] == "__init__":
                parts = parts[:-1]
            if package is not None:
                parts = [package] + parts
            name = ".".join(parts) if parts else (package or file_path.stem)
            table[str(file_path)] = name
    return table


def _imported_modules(
    source: str, module_name: str, known_modules: Set[str]
) -> List[str]:
    """Dotted names of in-set modules ``source`` imports.

    Mirrors the alias resolution of :class:`ProjectModel` (absolute and
    relative imports), then maps each imported target into the analyzed
    set by stripping trailing components (``from repro.x import name``
    depends on module ``repro.x``; ``import repro.x.y`` on
    ``repro.x.y``).  Unparseable sources depend on nothing — the engine
    reports them as REPRO-SYNTAX through the per-file phase.
    """
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError):
        return []
    targets: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                targets.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = module_name.split(".")
                anchor = parts[: max(len(parts) - node.level, 0)]
                base = ".".join(
                    anchor + ([node.module] if node.module else [])
                )
            if base:
                targets.add(base)
                for alias in node.names:
                    if alias.name != "*":
                        targets.add(f"{base}.{alias.name}")
    resolved: Set[str] = set()
    for target in targets:
        parts = target.split(".")
        while parts:
            candidate = ".".join(parts)
            if candidate in known_modules:
                resolved.add(candidate)
                break
            parts.pop()
    resolved.discard(module_name)
    return sorted(resolved)


def _import_graph(
    files: Sequence[str],
    sources: Dict[str, str],
    shas: Dict[str, str],
    table: Dict[str, str],
    cache: Optional["object"],
) -> Dict[str, List[str]]:
    """Per-file list of imported in-set files (the dependency graph).

    Import lists are cached on (path, sha, module-table) alone — they
    do not depend on other files' contents — so warm runs rebuild the
    graph without re-parsing anything.
    """
    known_modules = set(table.values())
    by_module = {name: path for path, name in table.items()}
    table_fp = _digest(*sorted(known_modules))
    graph: Dict[str, List[str]] = {}
    for path in files:
        key = "imp-" + _digest(path, shas[path], table_fp)[:40]
        modules: Optional[List[str]] = None
        if cache is not None:
            entry = cache.load(
                key, schema=_IMPORTS_SCHEMA, required_keys=("imports",)
            )
            if entry is not None:
                modules = _strings_from_array(entry["imports"])
        if modules is None:
            modules = _imported_modules(
                sources[path], table[path], known_modules
            )
            if cache is not None:
                cache.store(
                    key,
                    {"imports": _strings_to_array(modules)},
                    schema=_IMPORTS_SCHEMA,
                )
        graph[path] = [
            by_module[m] for m in modules if m in by_module
        ]
    return graph


def _transitive_closures(
    files: Sequence[str], graph: Dict[str, List[str]]
) -> Dict[str, Set[str]]:
    """Transitive import closure per file (excluding the file itself),
    by worklist iteration so import cycles converge."""
    closures: Dict[str, Set[str]] = {
        path: set(graph.get(path, ())) for path in files
    }
    changed = True
    while changed:
        changed = False
        for path in files:
            closure = closures[path]
            for dep in list(closure):
                extra = closures.get(dep, set()) - closure - {path}
                if extra:
                    closure.update(extra)
                    changed = True
    return closures


def _dependency_fingerprints(
    files: Sequence[str],
    graph: Dict[str, List[str]],
    shas: Dict[str, str],
) -> Dict[str, str]:
    closures = _transitive_closures(files, graph)
    return {
        path: _digest(
            *(f"{dep}:{shas[dep]}" for dep in sorted(closures[path]))
        )
        for path in files
    }


def changed_file_subset(
    paths: Iterable[Union[str, Path]], ref: str
) -> List[str]:
    """Analyzed files changed since git ``ref``, plus import dependents.

    Asks ``git diff --name-only`` for the paths touched since ``ref``
    (including uncommitted changes), intersects with the analyzed set,
    and widens by the reverse transitive import graph — any file whose
    import closure reaches a changed file is re-checked, matching the
    invalidation granularity of the incremental cache.  Raises
    ``RuntimeError`` when git cannot answer (not a repository, unknown
    ref) — a smoke gate must not silently pass on an empty subset.
    """
    path_list = list(paths)
    files = [str(p) for p in iter_python_files(path_list)]
    try:
        proc = subprocess.run(
            ["git", "diff", "--name-only", ref, "--"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError) as exc:
        raise RuntimeError(
            f"cannot determine files changed since {ref!r}: {exc}"
        ) from exc
    changed_raw = {
        line.strip() for line in proc.stdout.splitlines() if line.strip()
    }
    by_resolved = {str(Path(f).resolve()): f for f in files}
    changed: Set[str] = set()
    for name in changed_raw:
        resolved = str(Path(name).resolve())
        if resolved in by_resolved:
            changed.add(by_resolved[resolved])
    if not changed:
        return []
    sources = {
        f: Path(f).read_text(encoding="utf-8") for f in files
    }
    shas = {
        f: hashlib.sha256(sources[f].encode("utf-8")).hexdigest()
        for f in files
    }
    table = _module_table(path_list)
    graph = _import_graph(files, sources, shas, table, None)
    closures = _transitive_closures(files, graph)
    subset = set(changed)
    for path in files:
        if closures[path] & changed:
            subset.add(path)
    return sorted(subset)


# ----------------------------------------------------------------------
# Whole-program phase.
# ----------------------------------------------------------------------
def _compute_project_findings(model: ProjectModel) -> List[Violation]:
    """Raw findings of every whole-program pass, pre-suppression.

    All passes always run — select/ignore filtering is applied by the
    caller — so the cached payload serves every rule selection.
    """
    findings: List[Violation] = []
    findings.extend(check_concurrency(model))
    findings.extend(check_seed_flow(model))
    findings.extend(check_cache_keys(model))
    findings.extend(check_lock_discipline(model))
    findings.extend(check_shapes(model))
    return sorted(findings)


def analyze_project_paths(
    paths: Iterable[Union[str, Path]],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    project: bool = True,
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[Union[str, Path]] = None,
) -> GateReport:
    """Run the full static-analysis gate over ``paths``.

    Per-file rules run through the engine (incrementally, and fanned out
    over ``jobs`` worker processes when ``jobs > 1``; ``jobs <= 0``
    means one per CPU); with ``project`` true (the default) the
    whole-program checks — REPRO-PAR001/002 concurrency safety,
    REPRO-SEED001/002 seed-flow taint, REPRO-KEY001 cache-key
    completeness, REPRO-LOCK001/002 lock discipline, REPRO-SHAPE001
    constant shapes, and the REPRO-LINT001 stale-suppression audit — run
    over a :class:`ProjectModel` built from the same paths.
    Whole-program findings honor the same ``# repro-lint:`` suppression
    directives as per-file ones, at the primary line or any line of the
    report chain (see :func:`_chain_suppressed`).

    With ``use_cache`` (the default) findings are memoized in the
    artifact cache under ``cache_dir`` (default
    ``$REPRO_CACHE_DIR/lint``); the module docstring describes the
    keying.  Cached and recomputed runs produce identical reports.
    """
    from repro.utils.artifact_cache import get_cache

    path_list = list(paths)
    active = _active_ids(select, ignore)

    files = [str(p) for p in iter_python_files(path_list)]
    sources: Dict[str, str] = {}
    shas: Dict[str, str] = {}
    for path in files:
        sources[path] = Path(path).read_text(encoding="utf-8")
        shas[path] = hashlib.sha256(
            sources[path].encode("utf-8")
        ).hexdigest()

    cache = None
    if use_cache:
        directory = (
            str(cache_dir)
            if cache_dir is not None
            else os.path.join(
                os.environ.get("REPRO_CACHE_DIR", ".repro_cache"), "lint"
            )
        )
        cache = get_cache(LINT_CACHE_NAME, directory)

    catalog_fp = catalog_fingerprint()
    table = _module_table(path_list)
    # Files passed explicitly (not discovered under a root) still need
    # module names for import resolution; default to their stem.
    for path in files:
        table.setdefault(path, Path(path).stem)
    graph = _import_graph(files, sources, shas, table, cache)
    dep_fps = _dependency_fingerprints(files, graph, shas)

    # -- per-file phase ------------------------------------------------
    file_keys = {
        path: "pf-"
        + _digest(path, shas[path], catalog_fp, dep_fps[path])[:40]
        for path in files
    }
    findings_by_path: Dict[str, List[Violation]] = {}
    pending: List[str] = []
    for path in files:
        if cache is not None:
            entry = cache.load(
                file_keys[path],
                schema=_FINDINGS_SCHEMA,
                required_keys=("findings",),
            )
            if entry is not None:
                findings_by_path[path] = _violations_from_array(
                    entry["findings"]
                )
                continue
        pending.append(path)

    if pending:
        if jobs <= 0:
            jobs = os.cpu_count() or 1
        if jobs > 1 and len(pending) > 1:
            with ProcessPoolExecutor(max_workers=jobs) as executor:
                computed = list(
                    executor.map(analyze_file_findings, pending)
                )
        else:
            computed = [analyze_file_findings(path) for path in pending]
        for path, found in zip(pending, computed):
            findings_by_path[path] = found
            if cache is not None:
                cache.store(
                    file_keys[path],
                    {"findings": _violations_to_array(found)},
                    schema=_FINDINGS_SCHEMA,
                )

    reports: List[FileReport] = [
        report_from_findings(
            path, sources[path], findings_by_path[path], active_ids=active
        )
        for path in files
    ]
    report_by_path: Dict[str, FileReport] = {r.path: r for r in reports}

    violations: List[Violation] = []
    for report in reports:
        violations.extend(report.violations)

    # -- whole-program phase -------------------------------------------
    project_from_cache = False
    project_findings: List[Violation] = []
    if project:
        global_fp = _digest(
            catalog_fp, *(f"{path}:{shas[path]}" for path in files)
        )
        project_key = "proj-" + global_fp[:40]
        cached_project: Optional[List[Violation]] = None
        if cache is not None:
            entry = cache.load(
                project_key,
                schema=_PROJECT_SCHEMA,
                required_keys=("findings",),
            )
            if entry is not None:
                cached_project = _violations_from_array(entry["findings"])
        if cached_project is not None:
            project_findings = cached_project
            project_from_cache = True
        else:
            model = ProjectModel.from_paths(path_list)
            project_findings = _compute_project_findings(model)
            if cache is not None:
                cache.store(
                    project_key,
                    {"findings": _violations_to_array(project_findings)},
                    schema=_PROJECT_SCHEMA,
                )
        for finding in project_findings:
            if finding.rule_id not in active:
                continue
            if _chain_suppressed(finding, report_by_path):
                continue
            violations.append(finding)
        if LINT_RULE_ID in active:
            violations.extend(
                stale_suppressions(
                    reports,
                    [v for v in project_findings if v.rule_id in active],
                    active_ids=active,
                )
            )

    return GateReport(
        violations=sorted(violations),
        files_checked=len(reports),
        file_reports=reports,
        reanalyzed_paths=sorted(pending),
        project_from_cache=project_from_cache,
    )
