"""File walking, ``# noqa`` suppression, and the linting entry points.

Two analysis layers run here: the per-module lexical rules R1–R7,
R13 and R14 (:func:`repro.lint.rules.check_module`) and the whole-program dataflow
rules R8–R12 (:func:`repro.lint.flow.analyze_modules`), which see the
entire linted file set at once so cross-file calls resolve.

Suppression semantics differ by layer.  A lexical finding is silenced
by ``# noqa`` or ``# noqa: R<n>`` on its line, as before.  A *flow*
finding demands a justification: ``# noqa: R8 -- <why this is safe>``
— a bare ``# noqa`` (or a coded one without the ``-- reason`` tail)
does not silence R8–R12, because every such suppression is a claim
about global program behaviour that reviewers must be able to audit.

Unreadable and unparseable files are reported as R0 findings rather
than raised, so one broken file cannot abort a whole-tree lint, and
identical findings reached along several call-graph paths are
deduplicated before reporting.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable

from .findings import FLOW_CODES, Finding
from .rules import check_module

__all__ = ["lint_source", "lint_file", "lint_paths"]

_NOQA = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9]+(?:\s*,\s*[A-Z0-9]+)*))?"
    r"(?:\s*--\s*(?P<why>\S.*))?",
    re.IGNORECASE,
)

#: Directories never descended into when expanding path arguments.
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", ".hypothesis", "build", "dist"}


def _suppressed(finding: Finding, lines: list[str]) -> bool:
    """True if the finding's source line carries a matching ``# noqa``.

    Flow findings (R8–R12) additionally require the ``-- reason`` tail:
    the suppression must say *why* the global property still holds.
    """
    if not (1 <= finding.line <= len(lines)):
        return False
    m = _NOQA.search(lines[finding.line - 1])
    if m is None:
        return False
    codes = m.group("codes")
    if codes is None:
        # Bare "# noqa" silences the lexical rules only.
        return finding.code not in FLOW_CODES
    if finding.code not in {c.strip().upper() for c in codes.split(",")}:
        return False
    if finding.code in FLOW_CODES:
        return m.group("why") is not None
    return True


def _parse(source: str, path: str) -> tuple[ast.Module | None, Finding | None]:
    try:
        return ast.parse(source, filename=path), None
    except SyntaxError as exc:
        return None, Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            code="R0",
            message=f"syntax error: {exc.msg}",
        )


def _finish(
    findings: Iterable[Finding], lines_of: dict[str, list[str]]
) -> list[Finding]:
    """Deduplicate, sort, and apply inline suppression."""
    return [
        f
        for f in sorted(set(findings))
        if not _suppressed(f, lines_of.get(f.path, []))
    ]


def lint_source(source: str, path: str = "<string>", *, flow: bool = True) -> list[Finding]:
    """Lint Python source text; returns findings not silenced by noqa."""
    tree, err = _parse(source, path)
    if tree is None:
        return [err]
    findings = list(check_module(tree, path))
    if flow:
        from .flow import analyze_modules

        findings.extend(analyze_modules([(path, tree)]))
    return _finish(findings, {path: source.splitlines()})


def lint_file(path: str | Path, *, flow: bool = True) -> list[Finding]:
    """Lint one file; I/O and parse failures come back as R0 findings."""
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [
            Finding(path=str(p), line=1, col=1, code="R0", message=f"cannot read file: {exc}")
        ]
    return lint_source(source, str(p), flow=flow)


def _expand(paths: Iterable[str | Path]) -> list[Path]:
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(
                f
                for f in sorted(p.rglob("*.py"))
                if not (_SKIP_DIRS & set(f.relative_to(p).parts))
            )
        else:
            out.append(p)
    return out


def lint_paths(paths: Iterable[str | Path], *, flow: bool = True) -> list[Finding]:
    """Lint files and directories (recursively); findings sorted by location.

    The dataflow rules see every successfully parsed module of the run
    as one program, so a collective reached through a cross-file callee
    is still attributed to its caller.
    """
    findings: list[Finding] = []
    modules: list[tuple[str, ast.Module]] = []
    lines_of: dict[str, list[str]] = {}
    for f in _expand(paths):
        try:
            source = f.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(path=str(f), line=1, col=1, code="R0", message=f"cannot read file: {exc}")
            )
            continue
        tree, err = _parse(source, str(f))
        if tree is None:
            findings.append(err)
            continue
        lines_of[str(f)] = source.splitlines()
        modules.append((str(f), tree))
        findings.extend(check_module(tree, str(f)))
    if flow and modules:
        from .flow import analyze_modules

        findings.extend(analyze_modules(modules))
    return _finish(findings, lines_of)
