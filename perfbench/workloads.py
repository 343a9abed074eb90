"""Workload definitions, input builders and output checks for the citefields benchmark.

A workload is a generator spec (seeded by the benchmark's ``--seed``), an
optional defect plan, and the CLI invocations one pass runs in order. The
checks here judge the program's reports; they are plain functions over the
report text so ``selftest.py`` can feed them corrupted reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from random import Random

from citefields.synth import GeneratorSpec, PlantedLifecycle, generate

INPUT_NAME = "corpus.txt"

# Fields the generated corpora draw from (taxonomy indices 0..7).
GENERATED_FIELDS = ("AI", "Algo", "NETW", "DB", "DIST", "ARC", "SE", "ML")
RANK_WINDOWS = ((1970, 1979), (1990, 1999))
TOP_SHARE = 0.05

# Defect kinds planted into the ingest corpus, named by the diagnostic code
# the parser reports for each. Every kind yields exactly one diagnostic.
DEFECT_KINDS = (
    "duplicate-reference", "self-reference", "unknown-line",
    "malformed-year", "unknown-field", "duplicate-id",
)
SKIPPING_DEFECTS = frozenset({"malformed-year", "duplicate-id"})
UNKNOWN_FIELD_LABEL = "Quantum Basketry"


@dataclass(frozen=True)
class Invocation:
    """One ``python -m citefields.cli`` process of a pass."""

    label: str
    args: tuple[str, ...]
    output: str

    def argv(self) -> list[str]:
        head, *flags = self.args
        return [head, INPUT_NAME, *flags, "-o", self.output]


@dataclass(frozen=True)
class Workload:
    name: str
    spec: GeneratorSpec
    invocations: tuple[Invocation, ...]
    defect_rate: float = 0.0
    # Each invocation reads a freshly written copy of the input under a new path.
    fresh_input_per_invocation: bool = False


def _windows(pairs) -> tuple[str, ...]:
    out: list[str] = []
    for start, end in pairs:
        out += ["--window", f"{start}:{end}"]
    return tuple(out)


LIFECYCLE = PlantedLifecycle(focal_field=2, tau_drop_year=1984, zeta_rise_year=1996)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="session-10k",
            spec=GeneratorSpec(
                field_count=8, start_year=1970, years_span=40, papers_per_year=(250, 250),
                references=(3, 6), multi_tag_probability=0.1, lifecycle=LIFECYCLE,
            ),
            invocations=(
                Invocation("rank-rdi", ("rank", "--metric", "rdi", *_windows(RANK_WINDOWS)),
                           "rank-rdi.csv"),
                Invocation("rank-kdi", ("rank", "--metric", "kdi", *_windows(RANK_WINDOWS)),
                           "rank-kdi.csv"),
                Invocation("impact", ("impact",), "impact.csv"),
                Invocation("reciprocity-matrix",
                           ("reciprocity", "--matrix", "--window", "1980:1989"),
                           "reciprocity.csv"),
                Invocation("acp", ("acp", "--focal", "AI", "--target", "Algo",
                                   "--window", "1980:1989"), "acp.csv"),
                Invocation("trajectory-phases", ("trajectory", "--field", "NETW", "--phases"),
                           "phases.csv"),
                Invocation("evidence", ("evidence",), "evidence.csv"),
            ),
        ),
        Workload(
            name="ingest-50k",
            # The C9 corpus shape at half its size.
            spec=GeneratorSpec(
                field_count=8, start_year=1950, years_span=50, papers_per_year=(1000, 1000),
                references=(2, 4), multi_tag_probability=0.1,
            ),
            invocations=(
                Invocation("validate", ("validate", "--format", "json"), "validate.json"),
                Invocation("stats", ("stats",), "stats.csv"),
            ),
            defect_rate=0.05,
            fresh_input_per_invocation=True,
        ),
    )
}


# -- inputs ------------------------------------------------------------------

def build_input(workload: Workload, seed: int) -> tuple[str, dict[str, int]]:
    """Generate the workload's corpus for ``seed`` and plant its defects.

    Returns the corpus text and the count of each planted defect kind.
    """
    text = generate(replace(workload.spec, seed=seed))
    planted: dict[str, int] = {}
    if workload.defect_rate:
        planted = {kind: 0 for kind in DEFECT_KINDS}
        text = plant_defects(text, seed, workload.defect_rate, planted)
    return text, planted


def _pick(rng: Random, items: list):
    return items[min(int(rng.random() * len(items)), len(items) - 1)]


def _split_blocks(text: str) -> tuple[str, list[list[str]]]:
    header, *blocks = text.rstrip("\n").split("\n\n")
    return header, [b.split("\n") for b in blocks]


def plant_defects(text: str, seed: int, rate: float, planted: dict[str, int]) -> str:
    """Give a ``rate`` share of the records exactly one defect each.

    ``planted`` is filled with the count of each kind. Duplicate ids copy
    the id of an earlier record that carries no defect, so the parser has
    certainly accepted that id before it meets the copy.
    """
    rng = Random(f"citefields-defects-{seed}")
    header, blocks = _split_blocks(text)
    clean_ids: list[str] = []
    for lines in blocks:
        index_at = next(i for i, line in enumerate(lines) if line.startswith("#index"))
        pid = lines[index_at][6:]
        if rng.random() >= rate:
            clean_ids.append(pid)
            continue
        kind = _pick(rng, DEFECT_KINDS)
        refs = [line for line in lines if line.startswith("#%")]
        if (kind == "duplicate-reference" and not refs) or (kind == "duplicate-id" and not clean_ids):
            kind = "unknown-line"
        if kind == "duplicate-reference":
            lines.append(refs[0])
        elif kind == "self-reference":
            lines.append(f"#%{pid}")
        elif kind == "unknown-line":
            lines.append("#qinjected line the parser does not know")
        elif kind == "malformed-year":
            at = next(i for i, line in enumerate(lines) if line.startswith("#t"))
            lines[at] = "#t19x0"
        elif kind == "unknown-field":
            at = next(i for i, line in enumerate(lines) if line.startswith("#f"))
            lines[at] += "," + UNKNOWN_FIELD_LABEL
        else:  # duplicate-id
            lines[index_at] = "#index" + _pick(rng, clean_ids)
        planted[kind] += 1
    return "\n\n".join([header, *("\n".join(lines) for lines in blocks)]) + "\n"


def describe(workload: Workload, seed: int, text: str, planted: dict[str, int]) -> dict:
    """Workload descriptors, read from the input independently of the program.

    The reading follows the record format's rules only as far as the
    generator and the planted defects exercise them.
    """
    _header, blocks = _split_blocks(text)
    accepted: dict[int, list[int]] = {}
    authors: Counter = Counter()
    for lines in blocks:
        tags = {line[:2]: line for line in lines if not line.startswith("#%")}
        pid = int(tags["#i"][6:])
        year = tags["#t"][2:]
        if pid in accepted or not year.isdigit():
            continue
        refs = list(dict.fromkeys(int(line[2:]) for line in lines if line.startswith("#%")))
        accepted[pid] = [r for r in refs if r != pid]
        for name in tags.get("#@", "")[2:].split(","):
            if name.strip():
                authors[name.strip().casefold()] += 1
    edges = sum(1 for refs in accepted.values() for r in refs if r in accepted)
    total_refs = sum(len(refs) for refs in accepted.values())
    lifecycle = workload.spec.lifecycle
    return {
        "seed": seed,
        "lines": text.count("\n"),
        "blocks": len(blocks),
        "records": len(accepted),
        "resolved_edges": edges,
        "dangling_refs": total_refs - edges,
        "mean_refs_per_paper": edges / len(accepted),
        "authors": len(authors),
        "papers_per_author_mean": sum(authors.values()) / len(authors),
        "papers_per_author_max": max(authors.values()),
        "planted_defects": dict(planted),
        "input_bytes": len(text.encode("utf-8")),
        "lifecycle": None if lifecycle is None else {
            "tau_drop_year": lifecycle.tau_drop_year,
            "zeta_rise_year": lifecycle.zeta_rise_year,
        },
    }


# -- output checks -------------------------------------------------------------
#
# Each check takes the report text and what the benchmark knows about the
# input, and returns a list of problems (empty when the report is correct).

def _csv_report(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    meta: dict[str, str] = {}
    body: list[str] = []
    for line in text.splitlines():
        if line.startswith("# ") and not body:
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            body.append(line)
    return meta, list(csv.DictReader(io.StringIO("\n".join(body))))


def check_validate(text: str, desc: dict) -> list[str]:
    report = json.loads(text)
    meta = report["metadata"]
    problems = []
    if meta["parsed"] + meta["skipped"] != meta["blocks"]:
        problems.append(f"parsed {meta['parsed']} + skipped {meta['skipped']} "
                        f"!= blocks {meta['blocks']}")
    if meta["blocks"] != desc["blocks"]:
        problems.append(f"blocks {meta['blocks']} != {desc['blocks']} written")
    code_at = report["columns"].index("code")
    seen = Counter(row[code_at] for row in report["rows"])
    expected = {k: v for k, v in desc["planted_defects"].items() if v}
    if dict(seen) != expected:
        problems.append(f"diagnostics by code {dict(sorted(seen.items()))} "
                        f"!= planted {dict(sorted(expected.items()))}")
    skipped = sum(v for k, v in expected.items() if k in SKIPPING_DEFECTS)
    if meta["skipped"] != skipped:
        problems.append(f"skipped {meta['skipped']} != {skipped} planted record-level defects")
    return problems


def check_stats(text: str, desc: dict) -> list[str]:
    meta, _rows = _csv_report(text)
    if int(meta.get("records", -1)) != desc["records"]:
        return [f"stats records {meta.get('records')} != {desc['records']} accepted"]
    return []


def check_rank(text: str, desc: dict) -> list[str]:
    _meta, rows = _csv_report(text)
    have = {(r["window_start"], r["window_end"], r["field_abbr"]) for r in rows if r["value"]}
    missing = [
        f"{abbr}@{start}:{end}"
        for start, end in RANK_WINDOWS for abbr in GENERATED_FIELDS
        if (str(start), str(end), abbr) not in have
    ]
    return [f"rank has no value for {', '.join(missing)}"] if missing else []


def check_impact(text: str, desc: dict) -> list[str]:
    _meta, rows = _csv_report(text)
    problems = []
    if len(rows) != desc["records"]:
        problems.append(f"impact has {len(rows)} rows for {desc['records']} papers")
    top = sum(1 for r in rows if r["top_cited"] == "1")
    if top < math.ceil(TOP_SHARE * desc["records"]):
        problems.append(f"top-cited set of {top} is under {TOP_SHARE:.0%} of {desc['records']}")
    return problems


def check_phases(text: str, desc: dict) -> list[str]:
    lifecycle = desc.get("lifecycle")
    if lifecycle is None:
        return []
    meta, rows = _csv_report(text)
    problems = []
    for key, planted in (("tau_change_year", lifecycle["tau_drop_year"]),
                         ("zeta_change_year", lifecycle["zeta_rise_year"])):
        found = meta.get(key, "")
        if not found.isdigit() or abs(int(found) - planted) > 1:
            problems.append(f"{key} {found!r} is not within 1 year of planted {planted}")
    labels = [r["phase"] for r in rows]
    if labels != ["growing", "matured", "interdisciplinary"]:
        problems.append(f"phases {labels} != growing, matured, interdisciplinary")
    return problems


def expected_sizes(desc: dict) -> dict[str, int]:
    """What each traced layer's size counters must read for this input."""
    planted = desc["planted_defects"]
    return {
        "corpusio.lines": desc["lines"],
        "corpusio.blocks": desc["blocks"],
        "corpusio.skipped": sum(v for k, v in planted.items() if k in SKIPPING_DEFECTS),
        "corpusio.diagnostics": sum(planted.values()),
        "graph.edges": desc["resolved_edges"],
        "graph.dangling": desc["dangling_refs"],
        "impact.population": desc["records"],
    }


CHECKS = {
    "validate": check_validate,
    "stats": check_stats,
    "rank-rdi": check_rank,
    "rank-kdi": check_rank,
    "impact": check_impact,
    "trajectory-phases": check_phases,
}


def check_report(label: str, text: str, desc: dict) -> list[str]:
    """Problems with one invocation's report; checks that cannot parse it fail it."""
    check = CHECKS.get(label)
    if check is None:
        return [] if text else ["empty report"]
    try:
        return check(text, desc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]
