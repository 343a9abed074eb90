#!/usr/bin/env python3
"""End-to-end benchmark of the citefields CLI.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload session-10k --seed 1 --seconds 50 --trace 0

The benchmark generates the workload's corpus from ``--seed`` (the set-up,
built several times and timed as ``setup_s``, scaled like ``wall_ref`` by the
reference computation), then runs passes until
``--seconds`` have been measured. A pass runs the workload's CLI invocations
in order, one fresh ``python -m citefields.cli`` process each, one after
another: a closed loop with one client. Every report is checked in every
pass and must be byte-identical across passes.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
reported; the time metric ``wall_ref`` divides each invocation's time by a
fixed reference computation timed just before and after it
(``reference_seconds``) and sums over the pass. With
``--trace 1`` untraced and traced passes alternate; a traced pass runs each
invocation under ``perfbench/traced.py``. The per-layer metrics are the
traced passes' span self times and call counts, summed over a pass, plus the
untraced spawn-to-exit time of each invocation. The sizes the traced layers
see (lines, records, edges, rows, ...) are properties of the input: they are
checked against the workload's descriptors and printed, not reported as
metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record of the run, spans included, goes to ``.perfbench-out/``.
Numbers are taken with a warm page cache and without CPU pinning.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

if not (SRC / "citefields" / "cli.py").is_file():
    sys.exit(f"perfbench: no citefields sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))
import workloads as W  # noqa: E402
from traced import Tracer  # noqa: E402

SETUP_REPS = 5
# Rounds of the reference computation timed between two builds, and between two invocations.
SETUP_REFERENCE_ROUNDS = 5
PASS_REFERENCE_ROUNDS = 2
# ``setup_s`` is given in seconds on a host where one reference round takes this long.
REFERENCE_NOMINAL_S = 0.06
INVOCATION_TIMEOUT_S = 150.0

# Input of the reference computation: record-format-like lines of ids and names.
REFERENCE_LINES = tuple(
    f"#%{(i * 7919) % 100003}" if i % 3 else f"#@Author {i % 40:03d},Author {i * 3 % 40:03d}"
    for i in range(40_000)
)

# Span names whose self time is a per-layer metric ``<name>_s``.
TIMED_SPANS = (
    "corpusio.parse", "records.corpus_init", "graph.build", "diversity.rank_fields",
    "diversity.build_keyword_sets", "impact.compute_impact_scores",
    "reciprocity.citation_fraction_matrix", "reciprocity.acp_bucket_test",
    "trajectory.evidence_series", "trajectory.field_trajectory", "trajectory.detect_phases",
    "report.write", "cli.import",
)
# Call counts summed over a traced pass: work a change to the program can save.
COUNTS = (
    "records.papers_in_calls", "graph.field_ref_counts_calls",
    "graph.citations_received_calls", "diversity.rdi_paper_calls", "diversity.kdi_paper_calls",
)
# Sizes summed over a traced pass. They are fixed by the input, so they are
# checked (W.expected_sizes) and printed, but reported as no metric.
SIZES = (
    "corpusio.lines", "corpusio.blocks", "corpusio.skipped", "corpusio.diagnostics",
    "graph.edges", "graph.dangling", "impact.population", "report.rows", "report.bytes",
)
COMMAND_LABELS = sorted({inv.label for w in W.WORKLOADS.values() for inv in w.invocations})


@dataclass
class InvocationResult:
    label: str
    seconds: float
    rss_mb: float
    problems: list[str]
    spans: dict | None = None


@dataclass
class PassResult:
    traced: bool
    wall: float = 0.0  # seconds, summed over the invocations
    wall_ref: float = 0.0  # reference rounds, summed over the invocations
    ref: float = 0.0  # mean seconds of one reference round during the pass
    elapsed: float = 0.0  # seconds, checks and reference rounds included
    invocations: list[InvocationResult] = field(default_factory=list)


def reference_seconds(rounds: int) -> float:
    """Seconds per round of a fixed pure-Python computation, a probe of the host's speed.

    It parses ints, splits and case-folds strings, fills a dict and a set and
    sorts, like the CLI's parse and graph build, and it does not depend on
    citefields, so no change to the program moves it. Dividing a time by it
    cancels the drift in CPU speed of a shared host.
    """
    start = time.perf_counter()
    for _ in range(rounds):
        counts: dict[int, int] = {}
        names: set[str] = set()
        for line in REFERENCE_LINES:
            if line.startswith("#%"):
                rid = int(line[2:])
                counts[rid] = counts.get(rid, 0) + 1
            else:
                names.update(name.strip().casefold() for name in line[2:].split(","))
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return (time.perf_counter() - start) / rounds


class Spawner:
    """Runs children through ``spawner.py``, whose small size keeps their peak RSS their own."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path, env: dict, stderr_path: Path
            ) -> tuple[float, int, float]:
        """Run one child to completion: (seconds from spawn to exit, exit code, max RSS in MiB)."""
        request = {"argv": argv, "cwd": str(cwd), "env": env, "stderr": str(stderr_path),
                   "timeout": INVOCATION_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        result = json.loads(reply)
        return result["seconds"], result["exit_code"], result["rss_mb"]

    def close(self) -> None:
        """Stop the helper; a child it is still running is killed and reaped first."""
        self.proc.stdin.close()
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


class Bench:
    """One workload at one seed: its inputs, passes and checked results."""

    def __init__(self, workload: W.Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.input_dir = work / "input"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), CITEFIELDS_LOG="WARNING")
        self.spawner = Spawner()
        self.passes: list[PassResult] = []
        self.reference: dict[str, str] = {}
        self.descriptors: dict = {}
        self.setup_problems: list[str] = []
        self.setup_times: list[float] = []
        self.setup_refs: list[float] = []
        self.setup_spans: list[dict] = []

    def setup(self, traced: bool = False) -> None:
        """Build the input SETUP_REPS times, timing each build.

        The reference computation runs between builds; a build's reference
        time is the mean of the runs just before and just after it. Traced,
        the generator's own time is recorded as ``synth.generate`` spans.
        """
        self.input_dir.mkdir(parents=True)
        target = self.input_dir / W.INPUT_NAME
        tracer = Tracer("setup")
        generate = W.generate
        if traced:
            tracer.wrap(W, "generate", "synth.generate")
        digests = set()
        ref = reference_seconds(SETUP_REFERENCE_ROUNDS)
        try:
            for _ in range(SETUP_REPS):
                start = time.perf_counter()
                text, planted = W.build_input(self.workload, self.seed)
                target.write_text(text, encoding="utf-8")
                self.setup_times.append(time.perf_counter() - start)
                after = reference_seconds(SETUP_REFERENCE_ROUNDS)
                self.setup_refs.append((ref + after) / 2)
                ref = after
                digests.add(hashlib.sha256(text.encode("utf-8")).hexdigest())
        finally:
            W.generate = generate
        self.setup_spans = tracer.spans
        if len(digests) != 1:
            self.setup_problems.append("input generation is not deterministic")
        self.descriptors = W.describe(self.workload, self.seed, text, planted)
        # Compile and cache the package's bytecode outside the timed passes.
        self.spawner.run([sys.executable, "-c", "import citefields.cli"], self.input_dir,
                         self.env, self.work / "stderr.txt")

    def measure(self, seconds: float, trace: bool) -> None:
        """Run passes until the next one would end after ``seconds``.

        Traced, passes alternate untraced and traced, at least one of each.
        """
        start = time.perf_counter()
        while True:
            self.run_pass(traced=trace and len(self.passes) % 2 == 1)
            elapsed = time.perf_counter() - start
            typical = statistics.median(p.elapsed for p in self.passes)
            if elapsed + typical > seconds and len(self.passes) >= 1 + trace:
                return

    def run_pass(self, traced: bool) -> PassResult:
        """Run each invocation once; the pass's wall time is the sum of theirs.

        The reference computation runs between invocations; an invocation's
        time in reference rounds divides its seconds by the mean of the
        rounds just before and just after it. Copying fresh inputs and
        checking reports happen between the timed invocations and are not
        part of the pass's time.
        """
        n = len(self.passes)
        result = PassResult(traced)
        start = time.perf_counter()
        refs = [reference_seconds(PASS_REFERENCE_ROUNDS)]
        for inv in self.workload.invocations:
            cwd = self.input_dir
            if self.workload.fresh_input_per_invocation:
                cwd = self.work / f"pass-{n}-{inv.label}"
                cwd.mkdir()
                shutil.copyfile(self.input_dir / W.INPUT_NAME, cwd / W.INPUT_NAME)
            out = cwd / inv.output
            out.unlink(missing_ok=True)
            spans_path = self.work / f"spans-{n}-{inv.label}.json"
            if traced:
                argv = [sys.executable, str(HERE / "traced.py"), str(spans_path),
                        f"{n}:{inv.label}", "--", *inv.argv()]
            else:
                argv = [sys.executable, "-m", "citefields.cli", *inv.argv()]
            seconds, code, rss = self.spawner.run(argv, cwd, self.env, self.work / "stderr.txt")
            refs.append(reference_seconds(PASS_REFERENCE_ROUNDS))
            result.wall += seconds
            result.wall_ref += seconds / ((refs[-2] + refs[-1]) / 2)
            result.invocations.append(
                self.judge(inv, seconds, code, rss, out, spans_path if traced else None))
            if cwd != self.input_dir:
                shutil.rmtree(cwd)
        result.ref = statistics.mean(refs)
        result.elapsed = time.perf_counter() - start
        self.passes.append(result)
        return result

    def judge(self, inv: W.Invocation, seconds: float, code: int, rss: float, out: Path,
              spans_path: Path | None) -> InvocationResult:
        """Check one invocation's exit code and report, and read its spans."""
        if code != 0:
            err = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            return InvocationResult(inv.label, seconds, rss,
                                    [f"exit code {code}: {err.strip()[-500:]}"])
        data = out.read_bytes() if out.exists() else b""
        problems = W.check_report(inv.label, data.decode("utf-8", errors="replace"),
                                  self.descriptors)
        digest = hashlib.sha256(data).hexdigest()
        if self.reference.setdefault(inv.label, digest) != digest:
            problems.append("report differs from the first pass's report")
        spans = None
        if spans_path is not None:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
            problems += size_problems(spans["spans"], W.expected_sizes(self.descriptors))
        return InvocationResult(inv.label, seconds, rss, problems, spans)


def size_problems(spans: list[dict], expected: dict[str, int]) -> list[str]:
    """Sizes a traced invocation's layers saw that differ from the input's."""
    problems = []
    for s in spans:
        layer = s["name"].split(".")[0]
        for key, value in s["counters"].items():
            name = f"{layer}.{key}"
            if name in expected and value != expected[name]:
                problems.append(f"{name} {value} != {expected[name]} in the input")
    return problems


# -- metrics -------------------------------------------------------------------
# Each metric is (value, samples). Times are medians over passes.

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name: a span's duration minus its children's."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        out[s["name"]] = out.get(s["name"], 0.0) + t
    return out


def end_to_end_metrics(bench: Bench) -> dict[str, tuple[float, int]]:
    passes = [p for p in bench.passes if not p.traced]
    return {
        "wall_ref": (_median([p.wall_ref for p in passes]), len(passes)),
        "peak_rss_mb": (_median([max(i.rss_mb for i in p.invocations) for p in passes]),
                        len(passes)),
        "setup_s": (_median([t / r * REFERENCE_NOMINAL_S
                             for t, r in zip(bench.setup_times, bench.setup_refs)]),
                    len(bench.setup_times)),
    }


def command_metrics(bench: Bench) -> dict[str, tuple[float, int]]:
    """Untraced pass and invocation times in seconds (0 where a label did not run)."""
    passes = [p for p in bench.passes if not p.traced]
    out = {
        "wall_s": (_median([p.wall for p in passes]), len(passes)),
        "host.ref_s": (_median([p.ref for p in passes]), len(passes)),
    }
    for label in COMMAND_LABELS:
        times = [i.seconds for p in bench.passes if not p.traced
                 for i in p.invocations if i.label == label]
        out[f"cmd.{label}_s"] = (_median(times), len(times))
    return out


def layer_metrics(bench: Bench) -> dict[str, tuple[float, int]]:
    """Span self times and counts, summed per traced pass (0 where a layer did not run)."""
    traced = [p for p in bench.passes if p.traced]
    samples: dict[str, list[float]] = {}
    for p in traced:
        sums: dict[str, float] = {}
        rss = 0.0
        for inv in p.invocations:
            if inv.spans is None:  # the invocation failed; it is counted in ``failed``
                continue
            for name, t in self_times(inv.spans["spans"]).items():
                sums[name] = sums.get(name, 0.0) + t
            for s in inv.spans["spans"]:
                layer = s["name"].split(".")[0]
                for key, value in s["counters"].items():
                    if key == "rss_mb":
                        rss = max(rss, value)
                    else:
                        sums[f"{layer}.{key}"] = sums.get(f"{layer}.{key}", 0) + value
            for name, value in inv.spans["counts"].items():
                sums[name] = sums.get(name, 0) + value
        for name in TIMED_SPANS:
            samples.setdefault(f"{name}_s", []).append(sums.get(name, 0.0))
        samples.setdefault("cli.self_s", []).append(sums.get("cli.main", 0.0))
        samples.setdefault("corpusio.rss_mb", []).append(rss)
        for name in COUNTS + SIZES:
            samples.setdefault(name, []).append(sums.get(name, 0))
    samples["synth.generate_s"] = [s["end"] - s["start"] for s in bench.setup_spans]
    out = {name: (_median(v), len(v)) for name, v in samples.items()}
    untraced = [p.wall for p in bench.passes if not p.traced]
    out["trace.overhead_s"] = (_median([p.wall for p in traced]) - _median(untraced),
                               len(traced))
    return out


def unit(name: str) -> str:
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    return "ratio" if name == "failed_share" else "count"


# -- provenance ------------------------------------------------------------------

def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "citefields").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cache": "warm page cache, no CPU pinning",
    }


def git_revision() -> str | None:
    """HEAD's commit id, or None outside a git checkout or without git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


# -- entry point -----------------------------------------------------------------

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    bench = Bench(W.WORKLOADS[args.workload], args.seed,
                  WORK / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        bench.setup(traced=bool(args.trace))
        bench.measure(args.seconds, trace=bool(args.trace))
    finally:
        bench.spawner.close()
        shutil.rmtree(bench.work, ignore_errors=True)

    invocations = [i for p in bench.passes for i in p.invocations]
    failed = sum(1 for i in invocations if i.problems)
    commands = command_metrics(bench)
    shown = {**end_to_end_metrics(bench), **commands,
             "setup_raw_s": (_median(bench.setup_times), len(bench.setup_times)),
             "failed_share": (failed / len(invocations), len(invocations))}
    if args.trace:
        layers = layer_metrics(bench)
        shown.update(layers)
        reported = {name: metric for name, metric in {**layers, **commands}.items()
                    if name not in SIZES and name != "host.ref_s"}
    else:
        reported = end_to_end_metrics(bench)
    env_info = environment()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(bench.passes)} passes, {len(invocations)} invocations, {failed} failed")
    print("environment " + json.dumps(env_info, sort_keys=True))
    print("descriptors " + json.dumps(bench.descriptors, sort_keys=True))
    for problem in bench.setup_problems:
        print(f"FAILED setup: {problem}")
    for n, p in enumerate(bench.passes):
        for inv in p.invocations:
            for problem in inv.problems:
                print(f"FAILED pass {n} {inv.label}: {problem}")
    for name, (value, samples) in shown.items():
        if samples:
            print(f"  {name:40s} {value:14.6f} {unit(name):5s} n={samples}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_info, "descriptors": bench.descriptors,
        "metrics": {k: {"value": v, "unit": unit(k), "samples": n}
                    for k, (v, n) in shown.items()},
        "passes": [{"traced": p.traced, "wall_s": p.wall,
                    "invocations": [vars(i) for i in p.invocations]} for p in bench.passes],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0 and not bench.setup_problems,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, (value, _n) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
