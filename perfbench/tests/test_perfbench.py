"""Self-tests of the benchmark harness.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import qmv  # noqa: E402
from qmv import algebra, cli  # noqa: E402
from qmv.expr import SessionConfig, evaluate_source  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
from queries import session_queries  # noqa: E402
from tracer import EXACT, METRICS, Tracer, combine  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMALL_COMMANDS = (
    ["suite", "thm25", "--n", "3"],
    ["suite", "laplace", "--n", "3"],
    ["suite", "jordan-obstruction", "--n", "3"],
)


def _qmv_namespaces():
    modules = [m for name, m in sys.modules.items() if name == "qmv" or name.startswith("qmv.")]
    classes = [v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("qmv")]
    return modules + classes


def _snapshot():
    return {(id(ns), name): value for ns in _qmv_namespaces() for name, value in vars(ns).items()}


def _verdicts(queries, commands):
    codes = []
    with redirect_stdout(io.StringIO()):
        for q in queries:
            codes.append(cli.main(q.argv()))
    outputs = []
    for argv in commands:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv + ["--format", "json"])
        payload = json.loads(out.getvalue())
        outputs.append((code, [(c["name"], c["status"]) for c in payload["checks"]]))
    return codes, outputs


def _traced(fn):
    algebra._mono_times_gen.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        result = fn()
    finally:
        tracer.restore()
    return result, combine([tracer.metrics(algebra._mono_times_gen.cache_info())])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scaled_side_of_every_false_query_is_nonzero(seed):
    queries = session_queries(seed, 300)
    false = [q for q in queries if q.expected == 1]
    assert len(false) == len(queries) // 2
    for q in false:
        assert q.scaled in (q.lhs, q.rhs)
        value = evaluate_source(q.scaled, SessionConfig(q.n, q.n))
        assert not value.is_zero(), q


def test_session_stream_is_determined_by_seed_with_a_fixed_mix():
    assert session_queries(7, 100) == session_queries(7, 100)
    assert session_queries(7, 100) != session_queries(8, 100)
    mix = lambda seed: sorted((q.template, q.n, q.expected) for q in session_queries(seed, 1200))
    assert mix(7) == mix(8)
    assert all(not q.lhs.startswith("-") and not q.rhs.startswith("-")
               for q in session_queries(7, 400))


def test_traced_and_untraced_runs_give_identical_verdicts():
    queries = session_queries(3, 120)
    untraced = _verdicts(queries, SMALL_COMMANDS)
    traced, metrics = _traced(lambda: _verdicts(queries, SMALL_COMMANDS))
    assert traced == untraced
    assert untraced[0] == [q.expected for q in queries]
    assert all(code == 0 and all(s == "pass" for _, s in checks) for code, checks in untraced[1])
    assert metrics["cli.main_calls"] == len(queries) + len(SMALL_COMMANDS)


def test_wrappers_cover_imported_names_and_aliases_and_are_restored():
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        from qmv import expr, localize, minors, verify
        from qmv.scalar import LaurentScalar

        for module in (minors, localize, verify, expr, cli, qmv):
            assert module.minor is not before[(id(minors), "minor")]
            assert module.minor.__wrapped__ is before[(id(minors), "minor")]
        assert vars(LaurentScalar)["__rmul__"] is vars(LaurentScalar)["__mul__"]
        assert vars(LaurentScalar)["__mul__"] is not before[(id(LaurentScalar), "__mul__")]
        assert cli.run_suite is verify.run_suite
        assert expr.x_prime_minor is localize.x_prime_minor
    finally:
        tracer.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_exact_counts_repeat_between_traced_runs():
    queries = session_queries(5, 40)
    _, first = _traced(lambda: _verdicts(queries, SMALL_COMMANDS))
    _, second = _traced(lambda: _verdicts(queries, SMALL_COMMANDS))
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["verify.checks.thm25-5x5"] == 0
    assert first["localize.norm_calls"] > 0 and first["expr.parse_calls"] > 0


def test_plain_commands_bypass_the_localization():
    _, metrics = _traced(lambda: _verdicts([], (["suite", "centrality", "--n", "3"],
                                                ["suite", "laplace", "--n", "3"])))
    assert metrics["scalar.mul_calls"] > 0
    assert {k: v for k, v in metrics.items() if k.startswith("localize.")} == {
        k: 0 for k in METRICS if k.startswith("localize.")}


def test_known_answer_gate_counts_wrong_verdicts():
    argv = ["suite", "jordan-obstruction", "--n", "6"]
    checks = [{"name": f"c{i}", "status": "pass"} for i in range(12)]
    verdict = {"name": "e = A(nn) alpha + beta X[1,6] has no solution (n=6)", "status": "pass"}
    good = json.dumps({"checks": checks + [verdict]})
    assert child.judge_command(argv, 0, good) == (13, 0)
    assert child.judge_command(argv, 1, good)[1] == 1
    missing = json.dumps({"checks": checks + [dict(verdict, name="other")]})
    assert child.judge_command(argv, 0, missing)[1] == 1
    failing = json.dumps({"checks": checks + [dict(verdict, status="fail")]})
    assert child.judge_command(argv, 1, failing)[1] == 1
    assert child.judge_command(argv, 0, json.dumps({"checks": checks}))[1] == 1
    assert child.judge_command(argv, 2, "")[1] == 13
    fits = [{"matches_frozen": True}] * 6
    assert child.judge_command(["fit-exponents"], 0, json.dumps(fits)) == (6, 0)
    assert child.judge_command(["fit-exponents"], 1, json.dumps(fits[:5]))[1] == 6


def test_metric_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in list(end_to_end) + list(per_layer) + list(run.UNITS):
        assert NAME.match(name), name
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert all(run.UNITS[name] == unit for name, unit in {**end_to_end, **per_layer}.items())
    assert set(per_layer) == set(METRICS) | {
        "trace.verdict_s", "trace.untraced_verdict_s", "trace.overhead_ratio"}
    session = {"setup_s": 0.1, "verdict_s": 1.0, "latencies_ms": [1.0, 2.0],
               "maxrss_kb": 1024, "verdicts": 2, "wrong": 0, "command": "session"}
    metrics, _ = run.end_to_end([[session]])
    assert set(metrics) == set(end_to_end)


def test_suite_verdicts_share_their_command_time():
    def report(command, seconds, verdicts):
        return {"setup_s": 0.1, "verdict_s": seconds, "maxrss_kb": 1024,
                "verdicts": verdicts, "wrong": 0, "command": command}

    passes = [[report("a", 1.0, 10), report("b", 0.2, 40)],
              [report("a", 3.0, 10), report("b", 0.4, 40)],
              [report("a", 2.0, 10), report("b", 0.3, 40)]]
    assert run.verdict_s(passes) == 2.0 + 0.3
    times = run.verdict_times_ms(passes)
    assert sorted(set(times)) == [7.5, 200.0] and len(times) == 50
    metrics, samples = run.end_to_end(passes)
    assert metrics["query_p50_ms"] == 7.5 and metrics["query_p99_ms"] == 200.0 and samples == 50


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "plain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
