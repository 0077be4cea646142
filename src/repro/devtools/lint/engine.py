"""Core of the SSTD lint engine: contexts, rules, registry, runner.

The engine is deliberately small — a file is parsed once into an
:class:`ast` tree, each registered :class:`Rule` walks it and yields
:class:`Finding` records, and ``# noqa: SSTD###`` comments on the
flagged physical line suppress findings the author has justified.

Every rule reads one file's syntax tree; no rule resolves calls
across files.

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
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "register",
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

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule_id} {self.message}"


@dataclass(slots=True)
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    module: str = ""

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
        match = _NOQA_RE.search(self.line_text(finding.line))
        if match is None:
            return False
        codes = match.group("codes")
        if codes is None:
            return True
        listed = {c.strip().upper() for c in codes.lstrip(":").split(",")}
        return finding.rule_id.upper() in listed


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
    :meth:`finding` keeps positions consistent.
    """

    rule_id: str = ""
    summary: str = ""
    #: Sanction syntax (annotation comment) that silences the rule
    #: without ``noqa``; shown by ``--explain``.  Empty = noqa only.
    sanction: str = ""
    #: Minimal flagged example, shown by ``--explain``.
    example: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            message=message,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
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


def _stale_noqa_findings(
    source: str, path: str, silenced_by_line: dict[int, set[str]]
) -> list[Finding]:
    """SSTD000 findings for ``noqa`` comments that suppress nothing.

    ``silenced_by_line`` maps line numbers to the rule ids whose
    findings a suppression on that line actually silenced this run.
    Suppressions listing only foreign codes (``# noqa: F401``) belong
    to other tools and are never judged; mixed lists are judged only
    if none of their SSTD codes fired.
    """
    findings: list[Finding] = []
    for line, (codes, col) in sorted(_noqa_comments(source).items()):
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
    ctx: FileContext, rules: Sequence[Rule], audit: bool
) -> list[Finding]:
    """Run the rules over one file; unsuppressed findings plus SSTD000."""
    findings: list[Finding] = []
    silenced_by_line: dict[int, set[str]] = {}
    for rule in rules:
        for finding in rule.check(ctx):
            if ctx.is_suppressed(finding):
                silenced_by_line.setdefault(finding.line, set()).add(
                    finding.rule_id
                )
            else:
                findings.append(finding)
    if audit:
        # Stale-suppression findings bypass ``noqa`` handling: a
        # suppression cannot vouch for itself.
        findings.extend(
            _stale_noqa_findings(ctx.source, ctx.path, silenced_by_line)
        )
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[Rule] | None = None,
    module: str = "",
    audit_noqa: bool | None = None,
) -> list[Finding]:
    """Lint a source string; returns unsuppressed findings sorted by position.

    ``audit_noqa`` adds the stale-suppression audit (SSTD000).  The
    default (``None``) enables it exactly when the full registered rule
    set runs.
    """
    if rules is None:
        rules = all_rules()
    ctx = FileContext.from_source(source, path=path, module=module)
    findings = _check_file(ctx, rules, _audit_flag(rules, audit_noqa))
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
) -> list[Finding]:
    """Lint every python file under ``paths``, one file at a time."""
    if rules is None:
        rules = all_rules()
    audit = _audit_flag(rules, audit_noqa)
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        try:
            findings.extend(lint_file(file_path, rules=rules, audit_noqa=audit))
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
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings
