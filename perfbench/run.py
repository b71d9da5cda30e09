"""supermalcev benchmark: run one workload, check every output, print metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): octonions, random_super, operators_mybe, cli.
The library is imported from ``src/`` of the current directory, so the
command measures the checkout it runs in; without ``src/supermalcev`` it
exits 2 and prints no result.

Times are scaled to one machine speed (see speed.py): the process pins
itself and its children to one core and times a fixed reference between
operations.  The unscaled wall times are printed too.

``--trace 0`` sets the workload up ``SETUP_PROBES`` times in fresh child
processes (setup_s is their median), sets it up once more in-process, then
runs whole passes over the workload's operations until ``--seconds`` have
elapsed.  It prints the end-to-end metrics: setup_s, pass_s (median pass),
op_p50_ms (the median over the operations of each one's median latency)
and peak_rss_mb (this process, or for ``cli`` the largest request process).
op_tail_ms, the highest percentile with ten operations above it, is printed
where a run has enough operations for a p90, and is not a metric because
octonions never has.  error_rate is ``failed / attempted``.

``--trace 1`` prints the per-layer metrics instead.  It alternates untraced
and traced passes until ``--seconds`` have elapsed (trace.overhead_ratio is
the ratio of their medians), then makes two counting passes whose exact
counters must agree.  Spans of the traced passes are written to
``.perfbench/trace-<workload>-seed<N>.json``.  A layer that a workload never
calls reports 0.

A run is correct when every pass gives the same result digest and no
operation fails its check, apart from the known defects that workloads.py
lists; those still count in ``failed``.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import Speedometer, pin_to_one_core

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
IMPORT_PROBES = 5
COUNTING_PASSES = 2

# per-layer metrics: name -> unit.  "<layer>.<function>.ms" is the median
# inclusive time per call over the traced passes; counts are per pass.
SPAN_MS = (
    "algebras.check_left_alternative", "algebras.check_right_alternative",
    "algebras.check_malcev", "algebras.check_pre_malcev", "algebras.check_pre_alternative",
    "reps.check_malcev_representation", "reps.check_alternative_bimodule",
    "reps.semidirect_malcev", "reps.coadjoint_representation",
    "operators.search_rota_baxter", "operators.search_o_operators_malcev",
    "operators.search_o_operators_alternative", "operators.check_o_operator_malcev",
    "operators.check_rota_baxter", "operators.pre_malcev_from_o_operator",
    "yangbaxter.mybe_lhs", "yangbaxter.check_operator_form", "yangbaxter.canonical_r",
    "yangbaxter.r_from_o_operator",
    "serialize.parse", "serialize.serialize", "cli.main",
)
EXACT_COUNTS = (
    "algebras.tuples", "algebras.violations", "algebras.mul_sparse.calls",
    "reps.tuples", "reps.violations", "linalg.mat_mul.calls", "linalg.solve.calls",
    "graded.vector_from_sparse.calls", "operators.candidates",
)
PER_LAYER_UNITS = {
    "import.interpreter.ms": "ms",
    "import.supermalcev_cli.ms": "ms",
    **{f"{name}.ms": "ms" for name in SPAN_MS},
    "serialize.parse.bytes": "bytes",
    "serialize.serialize.bytes": "bytes",
    **{name: "count" for name in EXACT_COUNTS},
    "algebras.witness_keep_ratio": "ratio",
    "operators.accept_ratio": "ratio",
    "operators.candidates_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


@dataclass
class Pass:
    wall: float  # sum of the scaled operation times
    raw_wall: float  # wall time, reference samples included
    latencies: list[float]
    names: list[str]
    failed: list[str]
    digest: str
    maxrss_kb: int
    recorder: object = None
    spans_by_name: dict = field(default_factory=dict)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(label: str, values: list[float], unit: str, scale: float = 1.0) -> str:
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (f"{label}: median {med * scale:.4f} {unit} "
            f"(q1 {q1 * scale:.4f}, q3 {q3 * scale:.4f}, n={len(values)})")


def tail(latencies: list[float]) -> str:
    """The highest whole percentile with at least ten samples above it."""
    n = len(latencies)
    pct = int(100 * (n - 10) / n) if n > 10 else 0
    if pct < 90:
        return f"op_tail_ms: not reported, {n} operations are too few for a p90"
    ordered = sorted(latencies)
    value = ordered[max(0, -(-pct * n // 100) - 1)]
    return f"op_tail_ms: p{pct} {value * 1000:.4f} ms (n={n})"


class Runner:
    def __init__(self, workload: str, seed: int, root: Path, workdir: Path):
        import workloads

        self.w = workloads
        self.workload = workload
        self.ctx = workloads.Context(root, workdir, seed)
        self.state = None
        self.speed = Speedometer()

    # -- child-process probes ------------------------------------------------

    def _child_seconds(self, code: str) -> float:
        """Start a child that prints perf_counter() when it is done; return
        the time from just before the spawn to that point."""
        self.speed.sample()
        start = perf_counter()
        reply = self.w.spawn([sys.executable, "-c", code], self.ctx.root, self.ctx.workdir)
        self.speed.sample()
        if reply.code != 0:
            raise RuntimeError(f"probe failed with exit code {reply.code}")
        return self.speed.scaled(start, float(reply.stdout.decode().strip()))

    def setup_seconds(self) -> float:
        code = (
            "import sys, time\n"
            f"sys.path.insert(0, {str(HERE)!r})\n"
            "from pathlib import Path\n"
            "import workloads\n"
            f"workloads.setup({self.workload!r}, workloads.Context("
            f"Path.cwd(), Path({str(self.ctx.workdir)!r}), {self.ctx.seed}))\n"
            "print(time.perf_counter())\n"
        )
        return self._child_seconds(code)

    def import_seconds(self, statement: str) -> float:
        return self._child_seconds(f"{statement}\nimport time\nprint(time.perf_counter())")

    # -- passes ------------------------------------------------------------------

    def run_pass(self, recorder=None) -> Pass:
        w, ctx = self.w, self.ctx
        results: dict = {}
        done, intervals = [], []
        ctx.recorder = recorder
        if recorder is not None:
            recorder.install()
        start = perf_counter()
        ticking = self.speed.ticking() if w.in_process(self.workload) else nullcontext()
        try:
            with ticking:
                for op in w.ops(self.workload, ctx, self.state, results):
                    self.speed.sample_if_due()
                    if recorder is not None:
                        recorder.op = op.name
                        sid = recorder.begin(f"workload.{op.name}")
                    t0 = perf_counter()
                    try:
                        results[op.name] = op.call()
                    except Exception as exc:  # an operation that raises is counted as failed
                        print(f"{op.name}: raised {exc!r}", file=sys.stderr)
                        results[op.name] = w.OpError(exc)
                    intervals.append((t0, perf_counter()))
                    if recorder is not None:
                        recorder.end(sid)
                    done.append(op)
            self.speed.sample()
            raw_wall = perf_counter() - start
        finally:
            if recorder is not None:
                recorder.uninstall()
            ctx.recorder = None
        failed = [op.name for op in done if not self._passes(op, results)]
        names = [op.name for op in done]
        rss = [r.maxrss_kb for r in results.values() if isinstance(r, w.Reply)]
        maxrss = max(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        latencies = [self.speed.scaled(t0, t1) for t0, t1 in intervals]
        p = Pass(sum(latencies), raw_wall, latencies, names, failed,
                 w.digest(names, results), maxrss, recorder)
        if recorder is not None:
            for name, begin, end, _, _ in recorder.spans:
                p.spans_by_name.setdefault(name, []).append(self.speed.scaled(begin, end))
        return p

    def _passes(self, op, results) -> bool:
        result = results[op.name]
        if isinstance(result, self.w.OpError):
            return False
        try:
            return bool(op.check(result, results))
        except Exception as exc:  # a check that cannot read the result fails it
            print(f"{op.name}: check raised {exc!r}", file=sys.stderr)
            return False

    def verdict(self, passes: list[Pass], problems: list[str]) -> tuple[bool, int, int]:
        unexpected = sorted({n for p in passes for n in p.failed} - self.w.KNOWN_DEFECTS)
        if unexpected:
            problems.append("operations failed their checks: " + ", ".join(unexpected))
        if len({p.digest for p in passes}) != 1:
            problems.append("passes gave different result digests")
        attempted = sum(len(p.names) for p in passes)
        failed = sum(len(p.failed) for p in passes)
        return not problems, attempted, failed

    # -- runs ------------------------------------------------------------------------

    def end_to_end(self, seconds: float) -> tuple[dict, list[Pass], list[str], list[str]]:
        setups = [self.setup_seconds() for _ in range(SETUP_PROBES)]
        self.state = self.w.setup(self.workload, self.ctx)
        passes: list[Pass] = []
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            passes.append(self.run_pass())
        walls = [p.wall for p in passes]
        latencies = [t for p in passes for t in p.latencies]
        by_op: dict[str, list[float]] = {}
        for p in passes:
            for name, t in zip(p.names, p.latencies):
                by_op.setdefault(name, []).append(t)
        # every pass runs the same operations: the median operation's median
        # latency, which does not jump between operations from run to run
        op_p50 = statistics.median(statistics.median(ts) for ts in by_op.values())
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(walls),
            "op_p50_ms": op_p50 * 1000,
            "peak_rss_mb": max(p.maxrss_kb for p in passes) / 1024,
        }
        lines = [
            describe("setup_s", setups, "s"),
            describe("pass_s", walls, "s"),
            describe("pass wall time, unscaled", [p.raw_wall for p in passes], "s"),
            describe("operation latency, all passes pooled", latencies, "ms", 1000),
            tail(latencies),
        ]
        return metrics, passes, lines, []

    def per_layer(self, seconds: float) -> tuple[dict, list[Pass], list[str], list[str]]:
        from tracing import Recorder

        self.state = self.w.setup(self.workload, self.ctx)
        bare, full = [], []
        for _ in range(IMPORT_PROBES):
            bare.append(self.import_seconds("pass"))
            full.append(self.import_seconds("import supermalcev.cli"))
        plain: list[Pass] = []
        traced: list[Pass] = []
        start = perf_counter()
        while not traced or perf_counter() - start < seconds:
            plain.append(self.run_pass())
            traced.append(self.run_pass(Recorder()))
        counted = [self.run_pass(Recorder(count_calls=True)) for _ in range(COUNTING_PASSES)]
        facts = [p.recorder.facts for p in counted]

        metrics = {
            "import.interpreter.ms": statistics.median(bare) * 1000,
            "import.supermalcev_cli.ms": (statistics.median(full) - statistics.median(bare)) * 1000,
        }
        for name in SPAN_MS:
            times = [t for p in traced for t in p.spans_by_name.get(name, ())]
            metrics[f"{name}.ms"] = statistics.median(times) * 1000 if times else 0.0
        f = facts[0]
        metrics["serialize.parse.bytes"] = f["serialize.parse.bytes"]
        metrics["serialize.serialize.bytes"] = f["serialize.serialize.bytes"]
        for name in EXACT_COUNTS:
            metrics[name] = f[name]
        built = f["algebras.witness_vectors"]
        metrics["algebras.witness_keep_ratio"] = (
            f["algebras.witnesses_kept"] / built if built else 1.0)
        candidates = f["operators.candidates"]
        metrics["operators.accept_ratio"] = f["operators.hits"] / candidates if candidates else 0.0
        search_s = statistics.median(
            sum(t for name, ts in p.spans_by_name.items()
                if name.startswith("operators.search_") for t in ts)
            for p in traced)
        metrics["operators.candidates_per_s"] = candidates / search_s if search_s else 0.0
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain))

        lines = [describe("import.interpreter", bare, "ms", 1000),
                 describe("import.supermalcev_cli (with interpreter)", full, "ms", 1000),
                 describe("untraced pass_s", [p.wall for p in plain], "s"),
                 describe("traced pass_s", [p.wall for p in traced], "s")]
        lines += self_time_lines(traced)
        problems = []
        if facts[0] != facts[1]:
            problems.append("exact counters differ between the two counting passes")
        if any(p.recorder.facts != {k: f[k] for k in p.recorder.facts} for p in traced):
            problems.append("traced passes and counting passes disagree on exact counts")
        self.write_trace(traced, counted)
        return metrics, plain + traced + counted, lines, problems

    def write_trace(self, traced: list[Pass], counted: list[Pass]) -> None:
        path = self.ctx.root / ".perfbench" / f"trace-{self.workload}-seed{self.ctx.seed}.json"
        payload = {
            "workload": self.workload,
            "seed": self.ctx.seed,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "traced_passes": [p.recorder.dump() for p in traced],
            "counts": dict(counted[0].recorder.facts),
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def self_time_lines(traced: list[Pass]) -> list[str]:
    """Median self time per layer and pass: a span's duration minus the
    part its child spans cover.  Layer "workload" is time inside an
    operation but outside every library span (for ``cli``: process start,
    import and exit)."""
    per_pass = []
    for p in traced:
        spans = p.recorder.spans
        child_time = [0.0] * len(spans)
        for name, begin, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - begin
        layers: dict[str, float] = {}
        for sid, (name, begin, end, _, _) in enumerate(spans):
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + (end - begin) - child_time[sid]
        per_pass.append(layers)
    names = sorted({k for layers in per_pass for k in layers})
    return [f"self time per pass (unscaled), {layer}: "
            f"{statistics.median(l.get(layer, 0.0) for l in per_pass) * 1000:.3f} ms"
            for layer in names]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("octonions", "random_super", "operators_mybe", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "supermalcev" / "__init__.py").is_file():
        print("error: src/supermalcev not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    pin_to_one_core()
    workdir = root / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, root, workdir)
        if args.trace:
            metrics, passes, lines, problems = runner.per_layer(args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, passes, lines, problems = runner.end_to_end(args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed = runner.verdict(passes, problems)
    for line in lines:
        print(line)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    failures = sorted({n for p in passes for n in p.failed})
    print(f"error_rate: {failed}/{attempted} operations failed"
          + (f" ({', '.join(failures)})" if failures else ""))
    print(f"digest: {passes[0].digest}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
