"""One benchmark process: a cold `qmv` CLI invocation or a warm session of queries.

Run as ``python3 perfbench/child.py '<json spec>'``.  The spec names either an
``argv`` for one ``qmv`` command or a ``session`` (seed and query count), and
whether to trace.  The process reports, as one JSON line on stdout:

* ``ready``: the CLOCK_MONOTONIC time at which set-up (interpreter start,
  ``import qmv``, CLI parser build) had finished; the parent subtracts the
  time at which it started the process;
* ``verdict_s``: from the first call into qmv to the last verdict;
* ``latencies_ms``: for a session, the latency of each query;
* ``verdicts`` and ``wrong``: verdicts checked against the known answer;
* ``maxrss_kb``, and the per-layer metrics when traced.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# Set-up: importing the package loads every layer, then the CLI parser is built.
from qmv import algebra, cli  # noqa: E402

cli.build_parser()
READY = time.monotonic()

sys.path.insert(0, str(HERE))
from queries import session_queries  # noqa: E402
from tracer import Tracer  # noqa: E402

# Known answers of the suite workloads: the number of checks each command must
# report, every one passing.  fit-exponents must reproduce all six frozen laws.
SUITE_CHECKS = {
    ("centrality", 6): 36,
    ("laplace", 6): 72,
    ("thm21", 6): 2,
    ("cor22", 5): 138,
    ("lemma23", 5): 593,
    ("thm25", 5): 552,
    ("jordan-obstruction", 6): 13,
}
FIT_FAMILIES = 6
JORDAN_VERDICT = "has no solution"


def judge_command(argv: list[str], code: int, output: str) -> tuple[int, int]:
    """(verdicts, wrong) for one suite or fit-exponents command run with
    ``--format json``.  Each verdict missing from the known answer, and each
    failing one, is wrong; so is any exit code other than 0."""
    try:
        payload = json.loads(output)
    except ValueError:
        payload = None
    if argv[0] == "fit-exponents":
        fits = payload if isinstance(payload, list) and code == 0 else []
        good = sum(1 for f in fits if f.get("matches_frozen") is True)
        return FIT_FAMILIES, FIT_FAMILIES - min(good, FIT_FAMILIES)
    name, n = argv[1], int(argv[argv.index("--n") + 1])
    expected = SUITE_CHECKS[(name, n)]
    checks = payload.get("checks", []) if isinstance(payload, dict) else []
    passed = [c for c in checks if c.get("status") == "pass"]
    wrong = max(expected - len(passed), len(checks) - len(passed))
    no_verdict = name == "jordan-obstruction" and not any(
        JORDAN_VERDICT in c.get("name", "") for c in passed)
    if code != 0 or no_verdict:
        wrong = max(wrong, 1)
    return max(expected, len(checks)), wrong


def run_command(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        start = time.monotonic()
        code = cli.main(argv + ["--format", "json"])
        verdict_s = time.monotonic() - start
    verdicts, wrong = judge_command(argv, code, out.getvalue())
    return {"verdict_s": verdict_s, "verdicts": verdicts, "wrong": wrong}


def run_session(seed: int, count: int) -> dict:
    queries = session_queries(seed, count)
    latencies = []
    wrong = 0
    clock = time.monotonic
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        first = clock()
        for query in queries:
            start = clock()
            code = cli.main(query.argv())
            latencies.append((clock() - start) * 1e3)
            wrong += code != query.expected
        verdict_s = clock() - first
    return {"verdict_s": verdict_s, "latencies_ms": latencies,
            "verdicts": len(queries), "wrong": wrong}


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("warmup"):
        print(json.dumps({"ready": READY}))
        return 0
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
    try:
        if "session" in spec:
            result = run_session(spec["session"]["seed"], spec["session"]["count"])
        else:
            result = run_command(spec["argv"])
    finally:
        if tracer is not None:
            tracer.restore()
    result["ready"] = READY
    if tracer is not None:
        result["layers"] = tracer.metrics(algebra._mono_times_gen.cache_info())
        if spec.get("spans"):
            tracer.write_spans(Path(spec["spans"]))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
