"""The four checks migrated from tools/lint.py, message-for-message.

Each has a golden fixture under tests/sca/fixtures/ (enum-string-coverage,
stats-publish-coverage, dispatch-table-complete, bench-report-schema).
"""

from __future__ import annotations

import json
import math
import re

from sca.model import Finding
from sca.registry import rule


def enum_members(clean_header: str, enum: str) -> list[str]:
    m = re.search(
        r"enum\s+class\s+" + re.escape(enum) + r"\b[^{]*\{(.*?)\};",
        clean_header, flags=re.S)
    if m is None:
        return []
    return re.findall(r"\b(k[A-Za-z0-9_]+)\b\s*(?:=[^,}]*)?[,}\s]",
                      m.group(1) + ",")


def _missing(analysis, rel: str, what: str):
    return Finding("project-config", rel, 1,
                   f"configured file missing from tree ({what})")


@rule("enum-string-coverage",
      "every enumerator appears in its to_string translation unit",
      "add the missing case so logs never degrade to \"?\" silently")
def enum_string_coverage(analysis):
    for enum, (header, source) in sorted(analysis.config["enums"].items()):
        hf = analysis.corpus.get(header)
        srcf = analysis.corpus.get(source)
        if hf is None:
            yield _missing(analysis, header, f"enum {enum}")
            continue
        members = enum_members(hf.clean, enum)
        if not members:
            yield Finding("enum-string-coverage", header, 1,
                          f"enum {enum} not found (lint table stale?)")
            continue
        if srcf is None:
            yield _missing(analysis, source, f"to_string({enum})")
            continue
        for member in members:
            if not re.search(rf"\b{enum}::{member}\b", srcf.clean):
                yield Finding(
                    "enum-string-coverage", source, 1,
                    f"to_string({enum}) misses {enum}::{member}")


def stats_fields(clean_header: str) -> list[str]:
    m = re.search(r"struct\s+Stats\s*\{(.*?)\};", clean_header, re.S)
    if m is None:
        return []
    return re.findall(r"\b(\w+)\s*=\s*0\s*;", m.group(1))


@rule("stats-publish-coverage",
      "every Stats field is published by its class's publish_metrics",
      "publish the field (the obs reconciliation rules depend on it)")
def stats_publish_coverage(analysis):
    for cls, header, source in analysis.config["stats_classes"]:
        hf = analysis.corpus.get(header)
        srcf = analysis.corpus.get(source)
        if hf is None:
            yield _missing(analysis, header, f"{cls}::Stats")
            continue
        fields = stats_fields(hf.clean)
        if not fields:
            yield Finding("stats-publish-coverage", header, 1,
                          f"{cls}::Stats not found (lint table stale?)")
            continue
        if srcf is None:
            yield _missing(analysis, source, f"{cls}::publish_metrics")
            continue
        m = re.search(
            rf"void\s+{cls}::publish_metrics\s*\(\)\s*\{{(.*?)\n\}}",
            srcf.clean, re.S)
        if m is None:
            yield Finding("stats-publish-coverage", source, 1,
                          f"{cls}::publish_metrics not found")
            continue
        body = m.group(1)
        for field in fields:
            if not re.search(rf"\bstats_\.{field}\b", body):
                yield Finding(
                    "stats-publish-coverage", source, 1,
                    f"{cls}::publish_metrics does not publish Stats::{field}")


@rule("dispatch-table-complete",
      "the dispatch table has exactly one row per Call enumerator",
      "a declared but undispatchable call silently returns kInvalid to guests")
def dispatch_table_complete(analysis):
    cfg = analysis.config["dispatch"]
    header, source = cfg["header"], cfg["source"]
    enum, table = cfg["enum"], cfg["table"]
    hf = analysis.corpus.get(header)
    srcf = analysis.corpus.get(source)
    if hf is None:
        yield _missing(analysis, header, f"enum {enum}")
        return
    members = enum_members(hf.clean, enum)
    if not members:
        yield Finding("dispatch-table-complete", header, 1,
                      f"enum {enum} not found (lint table stale?)")
        return
    if srcf is None:
        yield _missing(analysis, source, table)
        return
    m = re.search(table + r"\s*(?:\[\]|\{\{)?\s*=?\s*\{\{(.*?)\}\};",
                  srcf.clean, re.S)
    if m is None:
        yield Finding("dispatch-table-complete", source, 1,
                      f"{table} not found (dispatch gate stale?)")
        return
    body = m.group(1)
    line = srcf.line_of(m.start())
    for member in members:
        rows = len(re.findall(rf"\b{enum}::{member}\b", body))
        if rows == 0:
            yield Finding(
                "dispatch-table-complete", source, line,
                f"{table} has no CallDescriptor row for {enum}::{member}")
        elif rows > 1:
            yield Finding(
                "dispatch-table-complete", source, line,
                f"{table} lists {enum}::{member} {rows} times")
    for used in sorted(set(re.findall(rf"\b{enum}::(k[A-Za-z0-9_]+)\b", body))):
        if used not in members:
            yield Finding(
                "dispatch-table-complete", source, line,
                f"{table} row references unknown {enum}::{used}")
    count = re.search(cfg["count_constant"] + r"\s*=\s*(\d+)", hf.clean)
    if count is not None and int(count.group(1)) != len(members):
        yield Finding(
            "dispatch-table-complete", header, hf.line_of(count.start()),
            f"{cfg['count_constant']} = {count.group(1)} but enum {enum} "
            f"has {len(members)} enumerators")


@rule("bench-report-schema",
      "every BENCH_*.json parses with the bench/metrics schema, no NaN/Inf",
      "the perf-trajectory tooling and CI artifact upload choke otherwise")
def bench_report_schema(analysis):
    for path in analysis.corpus.data_files("BENCH_*.json"):
        rel = path.relative_to(analysis.corpus.root).as_posix()
        try:
            doc = json.loads(path.read_text(),
                             parse_constant=lambda c: math.nan)
        except (OSError, ValueError) as err:
            yield Finding("bench-report-schema", rel, 1,
                          f"unparsable bench report ({err})")
            continue
        if not isinstance(doc, dict):
            yield Finding("bench-report-schema", rel, 1,
                          "top level is not an object")
            continue
        if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
            yield Finding("bench-report-schema", rel, 1,
                          'missing/empty "bench" name')
        rows = doc.get("metrics")
        if not isinstance(rows, list) or not rows:
            yield Finding("bench-report-schema", rel, 1,
                          'missing/empty "metrics" array')
            continue
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                yield Finding("bench-report-schema", rel, 1,
                              f"metrics[{i}] is not an object")
                continue
            if not isinstance(row.get("name"), str) or not row.get("name"):
                yield Finding("bench-report-schema", rel, 1,
                              f'metrics[{i}] missing "name"')
            for key in ("mean", "stdev", "n"):
                v = row.get(key)
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    yield Finding("bench-report-schema", rel, 1,
                                  f'metrics[{i}] missing numeric "{key}"')
                elif math.isnan(v) or math.isinf(v):
                    yield Finding("bench-report-schema", rel, 1,
                                  f'metrics[{i}] "{key}" is NaN/Inf')
