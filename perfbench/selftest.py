#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

On small versions of each workload's corpus it runs the real CLI once,
requires every genuine report to pass its check, then corrupts each report
in the ways the checks exist to catch (a wrong diagnostic count, a shifted
change year, an altered byte, a traced layer that saw too few records, ...)
and requires each corruption to fail.
Exits 0 when every genuine report passes and every corruption is caught.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from dataclasses import replace

import run
import workloads as W

SEED = 11
# Small enough to run in seconds, large enough to recover the planted lifecycle.
TINY_PAPERS_PER_YEAR = {"session-10k": 60, "ingest-50k": 20}


def _replace_line(text: str, prefix: str, new_line: str) -> str:
    lines = text.split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[at] = new_line
    return "\n".join(lines)


def _edit_json(text: str, edit) -> str:
    report = json.loads(text)
    edit(report)
    return json.dumps(report)


def _recode_first_row(report: dict) -> None:
    code_at = report["columns"].index("code")
    row = report["rows"][0]
    row[code_at] = next(k for k in W.DEFECT_KINDS if k != row[code_at])


def _shift_meta(text: str, key: str, by: int) -> str:
    meta, _rows = W._csv_report(text)
    return _replace_line(text, f"# {key}: ", f"# {key}: {int(meta[key]) + by}")


def _drop_last_row(text: str) -> str:
    return "\n".join(text.rstrip("\n").split("\n")[:-1]) + "\n"


def _clear_top_cited(text: str) -> str:
    return "\n".join(line[:-2] + ",0" if line.endswith(",1") else line
                     for line in text.split("\n"))


def _blank_first_rank_value(text: str) -> str:
    lines = text.split("\n")
    header = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    cells = lines[header + 1].split(",")
    cells[lines[header].split(",").index("value")] = ""
    lines[header + 1] = ",".join(cells)
    return "\n".join(lines)


# (label, description, corruption) for every check the benchmark makes.
CORRUPTIONS = (
    ("validate", "one diagnostic with the wrong code",
     lambda t: _edit_json(t, _recode_first_row)),
    ("validate", "one diagnostic missing",
     lambda t: _edit_json(t, lambda r: r["rows"].pop())),
    ("validate", "parsed + skipped != blocks",
     lambda t: _edit_json(t, lambda r: r["metadata"].update(parsed=r["metadata"]["parsed"] + 1))),
    ("stats", "record count off by one",
     lambda t: _shift_meta(t, "records", 1)),
    ("rank-rdi", "one generated field without a value", _blank_first_rank_value),
    ("rank-kdi", "one generated field without a value", _blank_first_rank_value),
    ("impact", "one paper missing", _drop_last_row),
    ("impact", "empty top-cited set", _clear_top_cited),
    ("trajectory-phases", "tau change year shifted by 2",
     lambda t: _shift_meta(t, "tau_change_year", 2)),
    ("trajectory-phases", "zeta change year shifted by -2",
     lambda t: _shift_meta(t, "zeta_change_year", -2)),
    ("trajectory-phases", "phase labels out of order",
     lambda t: t.replace(",matured,", ",growing,", 1)),
)


def main() -> int:
    work = run.WORK / f"selftest-{os.getpid()}"
    failures = 0
    reports: dict[str, tuple[str, dict]] = {}
    try:
        for name, workload in W.WORKLOADS.items():
            ppy = TINY_PAPERS_PER_YEAR[name]
            # Reports stay in the input directory, where this test reads them.
            tiny = replace(workload, spec=replace(workload.spec, papers_per_year=(ppy, ppy)),
                           fresh_input_per_invocation=False)
            bench = run.Bench(tiny, SEED, work / name)
            try:
                bench.setup()
                result = bench.run_pass(traced=False)
                for inv, res in zip(tiny.invocations, result.invocations):
                    ok = not res.problems
                    failures += not ok
                    print(f"{'ok  ' if ok else 'FAIL'} genuine {name} {inv.label} passes"
                          + ("" if ok else f": {res.problems}"))
                    text = (bench.input_dir / inv.output).read_text(encoding="utf-8")
                    reports[inv.label] = (text, bench.descriptors)
                # A traced pass: same reports, and its layers' sizes match the input's.
                traced = bench.run_pass(traced=True)
                for inv, res in zip(tiny.invocations, traced.invocations):
                    ok = not res.problems
                    failures += not ok
                    print(f"{'ok  ' if ok else 'FAIL'} genuine traced {name} {inv.label} passes"
                          + ("" if ok else f": {res.problems}"))
                # A parse that saw one record too few must fail the size check.
                spans = copy.deepcopy(traced.invocations[0].spans["spans"])
                parse = next(s for s in spans if s["name"] == "corpusio.parse")
                parse["counters"]["blocks"] -= 1
                problems = run.size_problems(spans, W.expected_sizes(bench.descriptors))
                failures += not problems
                print(f"{'ok  ' if problems else 'FAIL'} {name} traced: one block too few is "
                      f"{'caught: ' + problems[0] if problems else 'missed'}")
                # Byte identity: the same report with one byte altered must fail.
                inv = tiny.invocations[0]
                out = bench.input_dir / inv.output
                data = bytearray(out.read_bytes())
                data[len(data) // 2] ^= 0x01
                out.write_bytes(bytes(data))
                res = bench.judge(inv, 0.0, 0, 0.0, out, None)
                caught = any("differs" in p for p in res.problems)
                failures += not caught
                print(f"{'ok  ' if caught else 'FAIL'} {name} {inv.label}: one altered byte is "
                      f"{'caught' if caught else 'missed'}")
            finally:
                bench.spawner.close()

        for label, what, corrupt in CORRUPTIONS:
            text, desc = reports[label]
            problems = W.check_report(label, corrupt(text), desc)
            failures += not problems
            print(f"{'ok  ' if problems else 'FAIL'} {label}: {what} is "
                  f"{'caught: ' + problems[0] if problems else 'missed'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
