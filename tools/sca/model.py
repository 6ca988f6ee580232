"""Source model: findings, suppressions, and the scanned file corpus."""

from __future__ import annotations

import fnmatch
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from sca import lexer

# Inline suppression grammar (written in a // or /* */ comment):
#   sca-suppress(rule-id[, rule-id...]): reason
#   sca-suppress-file(rule-id[, rule-id...]): reason     (whole file)
# A line suppression covers findings on its own line through the next code
# line, so it can ride at end-of-line or atop the construct — including as
# the first line of a multi-line justification comment.
_SUPPRESS_RE = re.compile(
    r"sca-suppress(?P<file>-file)?\s*\(\s*(?P<rules>[^)]*)\)\s*(?::\s*(?P<reason>.*))?",
    re.S,
)


@dataclass(frozen=True)
class Finding:
    rule: str
    path: str          # repo-relative, forward slashes
    line: int          # 1-based; 1 for whole-file findings
    message: str
    hint: str = ""

    def fingerprint_key(self) -> str:
        # Line-insensitive so pure code motion does not churn the baseline.
        return f"{self.rule}|{self.path}|{self.message}"


@dataclass
class Suppression:
    line: int
    rules: tuple[str, ...]
    reason: str
    file_level: bool
    anchor: int = 0    # last line this suppression covers (>= line)
    used: bool = False


class SourceFile:
    def __init__(self, root: Path, path: Path):
        self.abspath = path
        self.rel = path.relative_to(root).as_posix()
        self.text = path.read_text(errors="replace")
        self.scan = lexer.scan(self.text)
        self.suppressions: list[Suppression] = []
        self._parse_suppressions()

    @property
    def clean(self) -> str:
        return self.scan.clean

    def line_of(self, offset: int) -> int:
        return self.scan.line_of(offset)

    def _parse_suppressions(self) -> None:
        clean_lines = self.clean.split("\n")
        for line, text in self.scan.comments:
            for m in _SUPPRESS_RE.finditer(text):
                rules = tuple(
                    r.strip() for r in m.group("rules").split(",") if r.strip())
                reason = (m.group("reason") or "").strip()
                self.suppressions.append(Suppression(
                    line=line, rules=rules, reason=reason,
                    anchor=self._anchor(clean_lines, line),
                    file_level=m.group("file") is not None))

    @staticmethod
    def _anchor(clean_lines: list[str], line: int) -> int:
        """Last line a suppression at `line` covers: the next code line.

        End-of-line annotations (code on the suppression line itself) also
        cover the line below; comment-only lines reach past the rest of the
        justification block to the statement it documents.
        """
        if line <= len(clean_lines) and clean_lines[line - 1].strip():
            return line + 1
        j = line + 1
        while j <= len(clean_lines) and not clean_lines[j - 1].strip():
            j += 1
        return j

    def suppression_for(self, rule: str, line: int) -> Suppression | None:
        for s in self.suppressions:
            if rule not in s.rules:
                continue
            if s.file_level or s.line <= line <= s.anchor:
                return s
        return None


# Directories never scanned (relative path prefixes under the root).
EXCLUDE_PREFIXES = ("build", ".git", "tests/sca/fixtures")

CPP_SUFFIXES = (".cpp", ".h", ".hpp", ".cc")


def _excluded(rel: str) -> bool:
    return any(rel == p or rel.startswith(p + "/") or rel.startswith(p + "-")
               for p in EXCLUDE_PREFIXES)


def _walk(root: Path, pattern: str) -> list[Path]:
    """Files under `root` whose name matches `pattern`, sorted, outside the
    exclude list. Excluded directories are never entered: the lint tests
    create and delete temporary trees under build/ while the gate runs."""
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        base = Path(dirpath)
        dirnames[:] = [d for d in dirnames
                       if not _excluded((base / d).relative_to(root).as_posix())]
        out += [base / name for name in filenames
                if fnmatch.fnmatchcase(name, pattern)
                and not _excluded((base / name).relative_to(root).as_posix())]
    return sorted(out)


class Corpus:
    """All C++ sources under the root, lexed once and shared by every rule."""

    def __init__(self, root: Path):
        self.root = root
        self.files: dict[str, SourceFile] = {}
        for path in _walk(root, "*"):
            if path.suffix not in CPP_SUFFIXES:
                continue
            sf = SourceFile(root, path)
            self.files[path.relative_to(root).as_posix()] = sf

    def src_files(self) -> list[SourceFile]:
        return [f for rel, f in sorted(self.files.items())
                if rel.startswith("src/")]

    def get(self, rel: str) -> SourceFile | None:
        return self.files.get(rel)

    def data_files(self, pattern: str) -> list[Path]:
        """Non-C++ inputs (e.g. BENCH_*.json), honoring the exclude list."""
        return _walk(self.root, pattern)
