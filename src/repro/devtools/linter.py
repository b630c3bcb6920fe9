"""AST-based invariant checker over this repository's own source.

The reproduction's correctness rests on cross-cutting invariants —
strict layering, mutators bump ``TimeVaryingGraph.version``,
``SweepPlan`` holds ints and read-only int64 arrays only, errors become
:class:`ServiceError` at the service boundary — that a general-purpose
linter cannot know about.
This module is the *framework* half: a rule registry, per-file context
with resolved imports and suppression comments, and structured findings
with ``file:line``.  The project-specific rules live in
:mod:`repro.devtools.rules`.

Three front ends share this pass: ``python -m repro lint`` (humans and
CI), the unconditional pytest gate in ``tests/test_lint.py`` (which
also emits ``LINT_report.json``), and the fixture-driven unit tests
under ``tests/devtools/``.

Suppressions: a ``# repro-lint: disable=RL001`` comment silences the
named rule(s) on its own line, or — when the comment stands alone — on
the next line that holds code.  Several codes may be comma-separated.
Suppressions are deliberately per-line, never per-file: a file-wide
waiver would silently cover future regressions.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

#: Directories :func:`iter_source_files` never descends into.  The
#: benchmark harnesses are measurement scripts, not architecture, and
#: tool caches hold generated python that is nobody's fault.
SKIP_DIRS = frozenset(
    {
        ".git",
        ".hypothesis",
        ".pytest_cache",
        ".ruff_cache",
        "__pycache__",
        "benchmarks",
        "build",
        "dist",
    }
)

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9_,\s]+)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, ordered for stable reports."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True)
class Rule:
    """A registered check: ``file`` rules run once per source file,
    ``project`` rules run once per tree with the repo root in hand."""

    code: str
    summary: str
    scope: str
    check: Callable


_REGISTRY: dict[str, Rule] = {}


def rule(code: str, summary: str, scope: str = "file"):
    """Decorator registering a check under ``code``.

    File-scope checks receive a :class:`FileContext` and yield
    :class:`Finding`; project-scope checks receive a
    :class:`ProjectContext`.
    """
    if scope not in {"file", "project"}:
        raise ValueError(f"unknown rule scope {scope!r}")

    def register(check: Callable) -> Callable:
        if code in _REGISTRY:
            raise ValueError(f"duplicate rule code {code}")
        _REGISTRY[code] = Rule(code, summary, scope, check)
        return check

    return register


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, in code order (imports the rule pack)."""
    from repro.devtools import rules as _rules  # noqa: F401 — registration

    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map line number → rule codes suppressed there.

    Inline comments cover their own line; standalone comments cover the
    next line that carries code (so a suppression may sit above a long
    statement without riding on it).
    """
    suppressed: dict[int, set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    code_lines: set[int] = set()
    for tok in tokens:
        if tok.type in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        ):
            continue
        for lineno in range(tok.start[0], tok.end[0] + 1):
            code_lines.add(lineno)
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if not match:
            continue
        codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
        lineno = tok.start[0]
        if lineno in code_lines:
            suppressed.setdefault(lineno, set()).update(codes)
        else:
            target = min((ln for ln in code_lines if ln > lineno), default=None)
            if target is not None:
                suppressed.setdefault(target, set()).update(codes)
    return {line: frozenset(codes) for line, codes in suppressed.items()}


@dataclass
class FileContext:
    """Everything a file-scope rule needs about one source file."""

    path: Path
    rel_path: str
    module: str
    source: str
    tree: ast.AST
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        """Second dotted component of the module ("core", "service",
        ...), or "" for the ``repro`` facade itself."""
        parts = self.module.split(".")
        if parts[0] != "repro" or len(parts) == 1:
            return ""
        return parts[1]

    def suppressed(self, line: int, code: str) -> bool:
        return code in self.suppressions.get(line, frozenset())


@dataclass
class ProjectContext:
    """Handed to project-scope rules: the tree, not one file."""

    root: Path
    src_root: Path
    tests_root: Path
    files: tuple[FileContext, ...]

    def file(self, module: str) -> FileContext | None:
        for ctx in self.files:
            if ctx.module == module:
                return ctx
        return None

    def test_sources(self) -> Iterator[str]:
        if not self.tests_root.is_dir():
            return
        for path in sorted(self.tests_root.rglob("*.py")):
            if set(path.parts) & SKIP_DIRS:
                continue
            yield path.read_text(encoding="utf-8")


def module_name(path: Path, src_root: Path) -> str:
    """Dotted module name of ``path`` under ``src_root`` ("" outside)."""
    try:
        rel = path.resolve().relative_to(src_root.resolve())
    except ValueError:
        return ""
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def iter_source_files(root: Path) -> Iterator[Path]:
    """Yield ``*.py`` files under ``root``, skipping :data:`SKIP_DIRS`."""
    for path in sorted(root.rglob("*.py")):
        if set(path.parts[:-1]) & SKIP_DIRS:
            continue
        yield path


def load_context(path: Path, src_root: Path, repo_root: Path) -> FileContext:
    source = path.read_text(encoding="utf-8")
    return make_context(
        source,
        path=path,
        rel_path=path.resolve().relative_to(repo_root.resolve()).as_posix(),
        module=module_name(path, src_root),
    )


def make_context(
    source: str,
    *,
    path: Path | None = None,
    rel_path: str = "<fixture>",
    module: str = "",
) -> FileContext:
    """Build a :class:`FileContext` from source text (fixture-friendly)."""
    return FileContext(
        path=path if path is not None else Path(rel_path),
        rel_path=rel_path,
        module=module,
        source=source,
        tree=ast.parse(source),
        suppressions=parse_suppressions(source),
    )


def lint_source(
    source: str,
    *,
    module: str = "",
    rel_path: str = "<fixture>",
    rules: Iterable[Rule] | None = None,
) -> list[Finding]:
    """Run the file-scope rules over one source string.

    The unit-test entry point: fixtures assert finding-for-finding
    without touching the filesystem.
    """
    ctx = make_context(source, rel_path=rel_path, module=module)
    selected = tuple(rules) if rules is not None else all_rules()
    findings: list[Finding] = []
    for rl in selected:
        if rl.scope != "file":
            continue
        for finding in rl.check(ctx):
            if not ctx.suppressed(finding.line, finding.rule):
                findings.append(finding)
    return sorted(findings)


@dataclass
class LintReport:
    """The outcome of one full pass: findings plus per-rule counts."""

    findings: list[Finding]
    files_scanned: int

    @property
    def counts(self) -> dict[str, int]:
        counts = {rl.code: 0 for rl in all_rules()}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_json(self) -> str:
        return json.dumps(
            {
                "files_scanned": self.files_scanned,
                "total": len(self.findings),
                "counts": self.counts,
                "findings": [f.to_json() for f in self.findings],
            },
            indent=2,
            sort_keys=True,
        )

    def render(self) -> str:
        if not self.findings:
            return f"clean: {self.files_scanned} files, 0 findings"
        lines = [finding.render() for finding in self.findings]
        lines.append(f"{len(self.findings)} finding(s) in {self.files_scanned} files")
        return "\n".join(lines)


def default_repo_root() -> Path:
    """The repo root inferred from this package's location on disk
    (``src/repro/devtools`` → three parents up)."""
    return Path(__file__).resolve().parent.parent.parent.parent


def run_lint(
    root: Path | None = None,
    rules: Iterable[Rule] | None = None,
) -> LintReport:
    """Lint ``src/repro`` under ``root`` (default: this repo)."""
    repo_root = Path(root) if root is not None else default_repo_root()
    src_root = repo_root / "src"
    package_root = src_root / "repro"
    tests_root = repo_root / "tests"
    selected = tuple(rules) if rules is not None else all_rules()
    contexts = [
        load_context(path, src_root, repo_root)
        for path in iter_source_files(package_root)
    ]
    findings: list[Finding] = []
    for ctx in contexts:
        for rl in selected:
            if rl.scope != "file":
                continue
            for finding in rl.check(ctx):
                if not ctx.suppressed(finding.line, finding.rule):
                    findings.append(finding)
    project = ProjectContext(
        root=repo_root,
        src_root=src_root,
        tests_root=tests_root,
        files=tuple(contexts),
    )
    for rl in selected:
        if rl.scope != "project":
            continue
        for finding in rl.check(project):
            ctx = next((c for c in contexts if c.rel_path == finding.path), None)
            if ctx is not None and ctx.suppressed(finding.line, finding.rule):
                continue
            findings.append(finding)
    return LintReport(findings=sorted(findings), files_scanned=len(contexts))
