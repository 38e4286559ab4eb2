"""qmv benchmark: time to verdict on four workloads, with a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload plain --seed 1 --seconds 30 --trace 0

One client runs in a closed loop: each command or query starts only after the
previous one has returned.  A workload *pass* runs the workload's commands, each
in a fresh process with a cold straightening cache, as a CLI user pays on every
run; ``session`` is one warm process answering a seeded stream of ``qmv equal``
queries.  Passes repeat while another one fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates an untraced pass with a traced one and reports the
per-layer metrics of the traced passes and the tracing overhead.

Every verdict is checked against its known answer.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 if any verdict was wrong and 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import EXACT, METRICS, combine  # noqa: E402

SESSION_QUERIES = 1200  # per session pass: > 1000, so ten lie beyond the p99
CHILD_TIMEOUT_S = 150

# Each workload is a list of qmv commands, or the session stream.
WORKLOADS = {
    "plain": [["suite", "centrality", "--n", "6"], ["suite", "laplace", "--n", "6"]],
    "derived": [["suite", "thm21", "--n", "6"], ["suite", "cor22", "--n", "5"],
                ["suite", "lemma23", "--n", "5"], ["suite", "thm25", "--n", "5"]],
    "membership": [["suite", "jordan-obstruction", "--n", "6"], ["fit-exponents"]],
    "session": None,
}


class ChildFailed(RuntimeError):
    pass


def run_child(spec: dict) -> dict:
    """Start one benchmark process, wait for it, and return its report with
    ``setup_s`` added."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"benchmark process for {spec} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    report["command"] = " ".join(spec.get("argv") or ["session"])
    return report


def run_pass(workload: str, seed: int, rng: random.Random, trace: bool) -> list[dict]:
    """Run every command of the workload once; traced processes write their
    spans to ``perfbench/out``."""
    if WORKLOADS[workload] is None:
        specs = [{"session": {"seed": seed, "count": SESSION_QUERIES}}]
    else:
        specs = [{"argv": argv} for argv in WORKLOADS[workload]]
        rng.shuffle(specs)
    reports = []
    for spec in specs:
        spec["trace"] = trace
        if trace:
            label = "-".join(a for a in spec.get("argv", ["session"]) if a[0] != "-")
            spec["spans"] = str(HERE / "out" / f"{workload}-{label}")
        reports.append(run_child(spec))
    return reports


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples and never beyond them."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def by_command(passes: list[list[dict]]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for p in passes:
        for r in p:
            out.setdefault(r["command"], []).append(r)
    return out


def verdict_s(passes: list[list[dict]]) -> float:
    """Time to all of a pass's verdicts: the sum over the workload's commands
    of each command's median over passes, so that one slow command in one pass
    and another in the next do not both count."""
    return sum(statistics.median(r["verdict_s"] for r in reports)
               for reports in by_command(passes).values())


def verdict_times_ms(passes: list[list[dict]]) -> list[float]:
    """Time per verdict.  A session query is timed on its own.  A suite command
    returns all its verdicts at once, so each is charged an equal share of the
    command's median time over passes, and counted once per verdict."""
    times: list[float] = []
    for reports in by_command(passes).values():
        if "latencies_ms" in reports[0]:
            times += [ms for r in reports for ms in r["latencies_ms"]]
        else:
            n = reports[0]["verdicts"]
            times += [statistics.median(r["verdict_s"] for r in reports) * 1e3 / n] * n
    return times


def end_to_end(passes: list[list[dict]]) -> tuple[dict, int]:
    reports = [r for p in passes for r in p]
    times = verdict_times_ms(passes)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "verdict_s": verdict_s(passes),
        "peak_rss_mb": max(r["maxrss_kb"] for r in reports) / 1024,
        "query_p50_ms": statistics.median(times),
        "query_p99_ms": quantile(times, 99),
    }
    return metrics, len(times)


def per_layer(traced: list[list[dict]], untraced: list[list[dict]]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes: counts from the first (the
    others must repeat them exactly), times as medians over passes."""
    combined = [combine([r["layers"] for r in p]) for p in traced]
    drift = [name for name in EXACT if any(c[name] != combined[0][name] for c in combined)]
    metrics = {
        name: combined[0][name] if name in EXACT
        else statistics.median(c[name] for c in combined)
        for name in METRICS
    }
    verdict = verdict_s(traced)
    reference = verdict_s(untraced)
    metrics["trace.verdict_s"] = verdict
    metrics["trace.untraced_verdict_s"] = reference
    metrics["trace.overhead_ratio"] = verdict / reference
    return metrics, drift


UNITS = dict(METRICS, **{
    "setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB", "query_p50_ms": "ms",
    "query_p99_ms": "ms", "trace.verdict_s": "s", "trace.untraced_verdict_s": "s",
    "trace.overhead_ratio": "ratio",
})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qmv" / "__init__.py").is_file():
        print(f"error: no qmv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    untraced: list[list[dict]] = []
    traced: list[list[dict]] = []
    try:
        # Compile the sources and warm the file cache before anything is timed.
        run_child({"warmup": True})
        began = time.monotonic()
        # Start another round only if it is expected to end within --seconds.
        while True:
            untraced.append(run_pass(args.workload, args.seed, rng, False))
            if args.trace:
                traced.append(run_pass(args.workload, args.seed, rng, True))
            elapsed = time.monotonic() - began
            if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
                break
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reports = [r for p in untraced + traced for r in p]
    attempted = sum(r["verdicts"] for r in reports)
    failed = sum(r["wrong"] for r in reports)
    if args.trace:
        metrics, drift = per_layer(traced, untraced)
        samples = len(traced)
    else:
        metrics, samples = end_to_end(untraced)
        drift = []
    correct = failed == 0 and not drift

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(untraced)} pass(es), {samples} sample(s)")
    print(f"  wrong_verdicts = {failed} count (of {attempted} verdicts)")
    for label, runs in (("untraced", untraced), ("traced", traced)):
        for command in dict.fromkeys(r["command"] for p in runs for r in p):
            times = " ".join(f"{r['verdict_s']:.3f}" for p in runs for r in p
                             if r["command"] == command)
            print(f"  {label} {command}: verdict_s per pass {times}")
    for name in drift:
        print(f"  exact count {name} differs between traced passes")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
