"""Core of the SSTD lint engine: contexts, rules, registry, runner.

The engine is deliberately small — a file is parsed once into an
:class:`ast` tree, each registered :class:`Rule` walks it and yields
:class:`Finding` records, and ``# noqa: SSTD###`` comments on the
flagged physical line suppress findings the author has justified.

Since PR 6 the runner is whole-program: before any rule runs,
:mod:`repro.devtools.lint.callgraph` reduces every file to a
per-module summary and resolves calls across the file set, and rules
see the resulting :class:`~repro.devtools.lint.callgraph.ProjectAnalysis`
as ``ctx.project``.  Two rule flavors exist:

- per-file rules (``check(ctx)``) — run once per file, cacheable by
  (file content, dependency-closure digest);
- project rules (``project_rule = True``, ``check_project(project)``)
  — run once per lint invocation over the global analysis (SSTD012's
  lock-order graph); their findings anchor to ordinary source lines
  and respect ``noqa`` there, but are never cached.

Suppressions are themselves audited: when the full rule set runs, a
``# noqa`` comment that silences nothing is reported as ``SSTD000``
(stale suppression) so justifications cannot outlive the code they
excused.  Stale-suppression findings are not themselves suppressible.

Adding a rule:

>>> @register
... class MyRule(Rule):
...     rule_id = "SSTD042"
...     summary = "what the rule enforces"
...     def check(self, ctx):
...         for node in ast.walk(ctx.tree):
...             ...
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "FileContext",
    "Finding",
    "RULE_REGISTRY",
    "Rule",
    "all_rules",
    "count_noqa_comments",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "register",
    "stale_noqa_findings",
]

_NOQA_RE = re.compile(
    r"#\s*noqa(?P<codes>:\s*[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)?",
    re.IGNORECASE,
)

_SKIP_DIR_NAMES = frozenset(
    {"__pycache__", ".git", ".pytest_cache", "build", "dist"}
)


@dataclass(frozen=True, slots=True)
class Finding:
    """One lint finding, anchored to a source position."""

    rule_id: str
    message: str
    path: str
    line: int
    col: int
    #: Optional path trace: ``(path, line, col, note)`` per step, e.g.
    #: acquire site → leak site for SSTD014.  Rendered as SARIF
    #: codeFlows and round-tripped through the findings cache.
    steps: tuple[tuple[str, int, int, str], ...] = ()

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule_id} {self.message}"

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "rule": self.rule_id,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }
        if self.steps:
            out["steps"] = [list(step) for step in self.steps]
        return out


@dataclass(slots=True)
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    module: str = ""
    #: The whole-program analysis when linting a file set
    #: (:class:`repro.devtools.lint.callgraph.ProjectAnalysis`), else None.
    project: object | None = None

    @classmethod
    def from_source(cls, source: str, path: str, module: str = "") -> "FileContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            module=module or module_name_for(Path(path)),
        )

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def is_suppressed(self, finding: Finding) -> bool:
        """``# noqa`` on the flagged line silences the finding.

        A bare ``# noqa`` silences every rule; ``# noqa: SSTD003`` (or a
        comma-separated list) silences only the named rules.
        """
        return _line_suppresses(self.line_text(finding.line), finding.rule_id)


def _line_suppresses(line_text: str, rule_id: str) -> bool:
    """``noqa`` check against a raw source line (no context needed)."""
    match = _NOQA_RE.search(line_text)
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True
    listed = {c.strip().upper() for c in codes.lstrip(":").split(",")}
    return rule_id.upper() in listed


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, anchored at the ``repro`` package.

    ``src/repro/hmm/batch.py`` -> ``repro.hmm.batch``; package
    ``__init__.py`` files map to the package itself.  Files outside a
    ``repro`` tree fall back to their stem so synthetic fixtures still
    get a usable name.
    """
    parts = list(path.parts)
    if path.suffix == ".py":
        parts[-1] = path.stem
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[anchor:]
    else:
        parts = parts[-1:]
    return ".".join(parts)


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id`` (``SSTD###``) and ``summary`` and
    implement :meth:`check`, yielding findings; helper
    :meth:`finding` keeps positions consistent.  Rules that consume
    the project call graph set ``needs_project`` (per-file rules that
    read ``ctx.project``) or ``project_rule`` (global rules that
    implement :meth:`check_project` instead and run once per
    invocation, uncached).
    """

    rule_id: str = ""
    summary: str = ""
    #: Per-file rule that reads ``ctx.project`` when available.
    needs_project: bool = False
    #: Global rule: :meth:`check_project` runs once per invocation.
    project_rule: bool = False
    #: Sanction syntax (annotation comment) that silences the rule
    #: without ``noqa``; shown by ``--explain``.  Empty = noqa only.
    sanction: str = ""
    #: Minimal flagged example, shown by ``--explain``.
    example: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, project: object) -> Iterator[Finding]:
        """Findings computed from the whole-program analysis."""
        return iter(())

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        steps: tuple[tuple[str, int, int, str], ...] = (),
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            message=message,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            steps=steps,
        )


#: Registry of rule classes keyed by rule id, filled by :func:`register`.
RULE_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} must set rule_id")
    if rule_cls.rule_id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")
    RULE_REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def all_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate registered rules, optionally restricted to ``select``."""
    # Importing the rules package populates the registry on first use.
    from repro.devtools.lint import rules as _rules  # noqa: F401

    if select is None:
        ids = sorted(RULE_REGISTRY)
    else:
        ids = []
        for rule_id in select:
            normalized = rule_id.strip().upper()
            if normalized not in RULE_REGISTRY:
                known = ", ".join(sorted(RULE_REGISTRY))
                raise KeyError(f"unknown rule {rule_id!r}; known rules: {known}")
            ids.append(normalized)
    return [RULE_REGISTRY[rule_id]() for rule_id in ids]


def _noqa_comments(
    source: str,
) -> dict[int, tuple[frozenset[str] | None, int]]:
    """Map line -> (suppressed codes or None for bare, column) per ``noqa``.

    Tokenize-based so ``# noqa`` spelled inside a string literal or
    docstring (this module's own docstrings, for one) is not mistaken
    for a suppression the way a per-line regex would.
    """
    comments: dict[int, tuple[frozenset[str] | None, int]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(tok.string)
            if match is None:
                continue
            codes = match.group("codes")
            parsed = (
                None
                if codes is None
                else frozenset(
                    c.strip().upper() for c in codes.lstrip(":").split(",")
                )
            )
            comments[tok.start[0]] = (parsed, tok.start[1] + match.start())
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    return comments


def count_noqa_comments(path: Path) -> int:
    """Number of ``noqa`` suppression comments in ``path``.

    Feeds the CLI's ``--noqa-budget`` gate; unreadable or untokenizable
    files count zero (they surface as SSTD000 findings instead).
    """
    try:
        source = path.read_text(encoding="utf-8")
    except OSError:
        return 0
    return len(_noqa_comments(source))


def _stale_from_comments(
    comments: dict[int, tuple[frozenset[str] | None, int]],
    path: str,
    silenced_by_line: dict[int, set[str]],
) -> list[Finding]:
    """SSTD000 findings for suppressions that silenced nothing."""
    findings: list[Finding] = []
    for line, (codes, col) in sorted(comments.items()):
        silenced = silenced_by_line.get(line, set())
        if codes is None:
            if silenced:
                continue
            message = (
                "stale suppression: bare '# noqa' silences no finding on "
                "this line; delete the comment"
            )
        else:
            sstd = {c for c in codes if c.startswith("SSTD")}
            if not sstd:
                continue  # another tool's suppression; not ours to judge
            if sstd & silenced:
                continue
            listed = ", ".join(sorted(sstd))
            message = (
                f"stale suppression: '# noqa: {listed}' silences no "
                f"{listed} finding on this line; delete or update the "
                "comment"
            )
        findings.append(
            Finding(
                rule_id="SSTD000",
                message=message,
                path=path,
                line=line,
                col=col,
            )
        )
    return findings


def stale_noqa_findings(
    source: str, path: str, silenced_by_line: dict[int, set[str]]
) -> list[Finding]:
    """SSTD000 findings for ``noqa`` comments that suppress nothing.

    ``silenced_by_line`` maps line numbers to the rule ids whose
    findings a suppression on that line actually silenced this run.
    Suppressions listing only foreign codes (``# noqa: F401``) belong
    to other tools and are never judged; mixed lists are judged only
    if none of their SSTD codes fired.
    """
    return _stale_from_comments(_noqa_comments(source), path, silenced_by_line)


def _audit_flag(rules: Sequence[Rule], audit_noqa: bool | None) -> bool:
    """Resolve the stale-``noqa`` audit default.

    ``None`` enables the audit exactly when the full registered rule
    set runs — a partial ``--select`` run cannot tell a stale ``noqa``
    from one whose rule simply was not selected.
    """
    if audit_noqa is not None:
        return audit_noqa
    registered = set(RULE_REGISTRY)
    return bool(registered) and {r.rule_id for r in rules} >= registered


def _check_file(
    ctx: FileContext, rules: Sequence[Rule]
) -> tuple[list[Finding], dict[int, set[str]]]:
    """Run per-file rules; returns (kept findings, silenced-by-line)."""
    findings: list[Finding] = []
    silenced_by_line: dict[int, set[str]] = {}
    for rule in rules:
        if rule.project_rule:
            continue
        for finding in rule.check(ctx):
            if ctx.is_suppressed(finding):
                silenced_by_line.setdefault(finding.line, set()).add(
                    finding.rule_id
                )
            else:
                findings.append(finding)
    return findings, silenced_by_line


def _needs_project(rules: Sequence[Rule]) -> bool:
    return any(rule.needs_project or rule.project_rule for rule in rules)


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[Rule] | None = None,
    module: str = "",
    audit_noqa: bool | None = None,
) -> list[Finding]:
    """Lint a source string; returns unsuppressed findings sorted by position.

    A single-file project analysis is built when any selected rule
    consumes the call graph, so same-module transitive summaries (and
    the project rules SSTD012+) work in standalone runs too; anything
    imported from *other* modules stays unresolved — whole-program
    resolution needs :func:`lint_paths`.

    ``audit_noqa`` adds the stale-suppression audit (SSTD000).  The
    default (``None``) enables it exactly when the full registered rule
    set runs.  Stale-suppression findings bypass ``noqa`` handling: a
    suppression cannot vouch for itself.
    """
    if rules is None:
        rules = all_rules()
    audit = _audit_flag(rules, audit_noqa)
    ctx = FileContext.from_source(source, path=path, module=module)
    if _needs_project(rules):
        from repro.devtools.lint.callgraph import build_project_for_context

        build_project_for_context(ctx)  # attaches itself as ctx.project
    findings, silenced_by_line = _check_file(ctx, rules)
    for rule in rules:
        if not rule.project_rule or ctx.project is None:
            continue
        for finding in rule.check_project(ctx.project):
            if ctx.is_suppressed(finding):
                silenced_by_line.setdefault(finding.line, set()).add(
                    finding.rule_id
                )
            else:
                findings.append(finding)
    if audit:
        findings.extend(stale_noqa_findings(source, path, silenced_by_line))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def lint_file(
    path: Path,
    rules: Sequence[Rule] | None = None,
    audit_noqa: bool | None = None,
) -> list[Finding]:
    """Lint one file.  Syntax errors surface as an SSTD000 finding."""
    try:
        source = path.read_text(encoding="utf-8")
        return lint_source(
            source, path=str(path), rules=rules, audit_noqa=audit_noqa
        )
    except SyntaxError as exc:
        return [_syntax_finding(str(path), exc)]


def _syntax_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule_id="SSTD000",
        message=f"syntax error: {exc.msg}",
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
    )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into the .py files to lint."""
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                parts = set(sub.parts)
                if parts & _SKIP_DIR_NAMES:
                    continue
                if any(part.endswith(".egg-info") for part in sub.parts):
                    continue
                yield sub
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Iterable[Path],
    rules: Sequence[Rule] | None = None,
    audit_noqa: bool | None = None,
    cache: "object | None" = None,
    *,
    changed_only: Iterable[Path] | None = None,
    stats: dict | None = None,
) -> list[Finding]:
    """Lint every python file under ``paths`` as one project.

    The project summary layer is built over the *entire* file set
    first (cheap when the summary cache is warm); per-file rules then
    run — or are served from ``cache`` when neither the file nor its
    dependency closure changed — and the project rules (lock-order
    graph, SSTD012) run last over the global analysis.

    ``changed_only`` restricts the per-file rule phase (and the
    reported findings) to the given files *plus their call-graph
    dependents*; the project is still built over everything so
    resolution stays whole-program.

    ``cache``, when given, is a :class:`repro.devtools.lint.cache.LintCache`.
    ``stats``, when given, is filled with cache hit counters.
    """
    if rules is None:
        rules = all_rules()
    audit = _audit_flag(rules, audit_noqa)
    rule_ids = tuple(sorted(rule.rule_id for rule in rules))
    project_rules = [rule for rule in rules if rule.project_rule]
    findings: list[Finding] = []
    entries: list[tuple[Path, str]] = []
    sources: dict[str, str] = {}
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(
                Finding(
                    rule_id="SSTD000",
                    message=f"unreadable file: {exc}",
                    path=str(file_path),
                    line=1,
                    col=0,
                )
            )
            continue
        entries.append((file_path, source))
        sources[str(file_path)] = source

    project = None
    if _needs_project(rules):
        from repro.devtools.lint.callgraph import build_project

        project = build_project(entries, cache=cache)

    scoped: set[str] | None = None
    if changed_only is not None:
        changed_paths = {str(p) for p in changed_only}
        scoped = changed_paths & set(sources)
        if project is not None:
            changed_modules = {
                module_name_for(Path(p)) for p in changed_paths
            }
            keep = project.dependents_of(
                changed_modules & set(project.modules)
            )
            scoped |= {
                project.modules[mod].path
                for mod in keep
                if project.has_module(mod)
            }

    per_file_silenced: dict[str, dict[int, set[str]]] = {}
    per_file_noqa: dict[str, dict[int, tuple[frozenset[str] | None, int]]] = {}
    checked: list[str] = []
    for file_path, source in entries:
        spath = str(file_path)
        if scoped is not None and spath not in scoped:
            continue
        module = module_name_for(file_path)
        in_project = project is not None and project.has_module(module)
        dep_digest = project.dep_digest(module) if in_project else ""
        if cache is not None:
            entry = cache.get(
                file_path,
                rule_ids,
                audit,
                dep_digest=dep_digest,
                with_meta=True,
            )
            if entry is not None:
                findings.extend(entry.findings)
                per_file_silenced[spath] = entry.silenced
                per_file_noqa[spath] = entry.noqa
                checked.append(spath)
                continue
        try:
            if in_project:
                ctx = project.context(module)
            else:
                ctx = FileContext.from_source(
                    source, path=spath, module=module
                )
                ctx.project = project
        except SyntaxError as exc:
            findings.append(_syntax_finding(spath, exc))
            continue
        file_findings, silenced = _check_file(ctx, rules)
        noqa = _noqa_comments(source)
        if cache is not None:
            cache.put(
                file_path,
                rule_ids,
                audit,
                file_findings,
                silenced=silenced,
                noqa=noqa,
                dep_digest=dep_digest,
            )
        findings.extend(file_findings)
        per_file_silenced[spath] = silenced
        per_file_noqa[spath] = noqa
        checked.append(spath)

    # Project rules run over the global analysis on every invocation —
    # their findings depend on the whole file set, so caching them per
    # file would go stale silently.
    if project is not None:
        for rule in project_rules:
            for finding in rule.check_project(project):
                if scoped is not None and finding.path not in scoped:
                    continue
                source = sources.get(finding.path, "")
                lines = source.splitlines()
                line_text = (
                    lines[finding.line - 1]
                    if 1 <= finding.line <= len(lines)
                    else ""
                )
                if _line_suppresses(line_text, finding.rule_id):
                    per_file_silenced.setdefault(
                        finding.path, {}
                    ).setdefault(finding.line, set()).add(finding.rule_id)
                else:
                    findings.append(finding)

    if audit:
        for spath in checked:
            comments = per_file_noqa.get(spath)
            if comments is None:
                comments = _noqa_comments(sources[spath])
            findings.extend(
                _stale_from_comments(
                    comments, spath, per_file_silenced.get(spath, {})
                )
            )

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    if stats is not None:
        stats["files_seen"] = len(entries)
        stats["files_checked"] = len(checked)
        if cache is not None:
            stats["findings_hits"] = cache.hits
            stats["findings_misses"] = cache.misses
            stats["summary_hits"] = getattr(cache, "summary_hits", 0)
            stats["summary_misses"] = getattr(cache, "summary_misses", 0)
    return findings
