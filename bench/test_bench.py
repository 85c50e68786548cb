"""Tests of the benchmark's own logic: oracles catch planted wrong answers,
and the span arithmetic is right.  No test here asserts a timing.

    PYTHONPATH=src python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from trialg import cli  # noqa: E402
from trialg.catalog import catalog_get  # noqa: E402
from trialg.generate import generate_nary  # noqa: E402
from trialg.msc import Matrix, Msc  # noqa: E402
from trialg import ring as rg  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def fail_count(op, code, out, error=None):
    op = dict(op, id=0)
    return len(workloads.failures([op], [[(code, out, error)]]))


def planted(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return json.dumps(doc)


@pytest.fixture
def cdagger(tmp_path):
    path = workloads._write(tmp_path, "Cdagger", catalog_get("Cdagger"))
    op = {"kind": "express", "expect": "expressible", "argv": ["express", "--input", path]}
    code, out = run_cli(op["argv"])
    return op, code, out


def test_express_right_answer_passes(cdagger):
    assert fail_count(*cdagger) == 0


def test_flipped_exit_code_fails(cdagger):
    op, code, out = cdagger
    assert fail_count(op, 1 - code, out) == 1


def test_witness_with_one_entry_changed_fails(cdagger):
    op, code, out = cdagger
    doc = json.loads(out)
    name = sorted(doc["witness"])[0]
    bad = planted(doc, lambda d: d["witness"].__setitem__(name, str(
        rg.parse_scalar(d["witness"][name], rg.QQ) + rg.from_int(rg.QQ, 1))))
    assert fail_count(op, code, bad) == 1


def test_cstar_must_exit_one():
    op = {"kind": "express", "expect": "inexpressible", "argv": ["express", "--input", "x"]}
    assert fail_count(op, 1, "{}") == 0
    assert fail_count(op, 0, "{}") == 1


def test_op_that_raised_fails_without_aborting(cdagger):
    op, code, out = cdagger
    ops = [dict(op, id=0), dict(op, id=1)]
    passes = [[(None, "", "RuntimeError: boom"), (code, out, None)]]
    assert [(k, i) for k, i, _ in workloads.failures(ops, passes)] == [(0, 0)]


def test_stdout_must_repeat_across_passes(cdagger):
    op, code, out = cdagger
    ops = [dict(op, id=0)]
    assert workloads.failures(ops, [[(code, out, None)], [(code, out, None)]]) == []
    reformatted = json.dumps(json.loads(out))
    assert len(workloads.failures(ops, [[(code, out, None)], [(code, reformatted, None)]])) == 1


def replay_doc():
    claims = [{"id": f"claim{i}", "status": "pass", "documented": False} for i in range(19)]
    claims += [{"id": c, "status": "fail", "documented": True}
               for c in sorted(workloads.REPLAY_DOCUMENTED)]
    return {"claims": claims, "summary": {"clean": True}}


REPLAY_OP = {"kind": "replay", "argv": ["paper-replay"]}


def test_replay_oracle_accepts_the_expected_report():
    assert fail_count(REPLAY_OP, 0, json.dumps(replay_doc())) == 0


@pytest.mark.parametrize("edit", [
    lambda d: d["claims"].pop(),                                 # a claim missing
    lambda d: d["claims"][-1].__setitem__("documented", False),  # undocumented failure
    lambda d: d["claims"][0].__setitem__("status", "fail"),      # an extra failure
    lambda d: d["summary"].__setitem__("clean", False),
])
def test_replay_oracle_catches_planted_errors(edit):
    assert fail_count(REPLAY_OP, 0, planted(replay_doc(), edit)) == 1


def test_non_violating_tuple_fails(tmp_path):
    rand = workloads._int_msc(random.Random(7), 2, 3, 3)
    path = workloads._write(tmp_path, "rand", rand)
    op = {"kind": "assoc", "expect": False, "argv": ["assoc", "--input", path]}
    code, out = run_cli(op["argv"])
    assert code == 1 and fail_count(op, code, out) == 0
    # a totally associative algebra: no tuple violates
    unit = Msc(1, 2, Matrix(rg.QQ, [[rg.from_int(rg.QQ, 1)]]))
    path = workloads._write(tmp_path, "unit", generate_nary(unit, 3))
    op = {"kind": "assoc", "expect": False, "argv": ["assoc", "--input", path]}
    doc = json.loads(out)
    doc["violating_tuple"] = [1, 1, 1, 1, 1]
    assert fail_count(op, 1, json.dumps(doc)) == 1


def test_iso_all_list_must_contain_planted_g(tmp_path):
    ops = workloads._iso_ops(random.Random(3), tmp_path, "p", 2, 2, 5, True)
    for i, op in enumerate(ops):
        op["id"] = i
    ops[1]["expect"]["first_op"] = 0
    results = [run_cli(op["argv"]) + (None,) for op in ops]
    assert workloads.failures(ops, [results]) == []
    doc = json.loads(results[1][1])
    doc["witnesses"] = [w for w in doc["witnesses"] if w != ops[1]["expect"]["g"]]
    doc["witness_count"] = len(doc["witnesses"])
    bad = results[:1] + [(0, json.dumps(doc), None)]
    assert len(workloads.failures(ops, [bad])) == 1


def test_generate_matches_right_nested_expansion(tmp_path):
    M = workloads._int_msc(random.Random(5), 2, 2, 3)
    path = workloads._write(tmp_path, "m", M)
    op = {"kind": "generate", "expect": {"input": path},
          "argv": ["generate", "--input", path, "--arity", "4"]}
    code, out = run_cli(op["argv"])
    assert fail_count(op, code, out) == 0
    doc = json.loads(out)
    doc["entries"][0][0] = str(rg.parse_scalar(doc["entries"][0][0], rg.QQ) + rg.from_int(rg.QQ, 1))
    assert fail_count(op, code, json.dumps(doc)) == 1


def test_build_is_deterministic_and_records_the_seed(tmp_path):
    a = workloads.build("express", 11, tmp_path / "a")
    b = workloads.build("express", 11, tmp_path / "b")
    assert a["seed"] == 11
    strip = [[Path(x).name if "/" in x else x for x in op["argv"]] for op in a["ops"]]
    assert strip == [[Path(x).name if "/" in x else x for x in op["argv"]] for op in b["ops"]]
    for op_a, op_b in zip(a["ops"], b["ops"]):
        assert Path(op_a["argv"][-1]).read_text() == Path(op_b["argv"][-1]).read_text()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def span(i, name, parent, start, end, **extra):
    return dict(id=i, name=name, parent=parent, op=0, start=start, end=end, **extra)


SPANS = [
    span(0, "cli", None, 0.0, 10.0),
    span(1, "iso.search", 0, 1.0, 4.0, candidates=100, witnesses=2),
    span(2, "iso.verify", 1, 2.0, 3.0),
    span(3, "msc.kron", 0, 3.5, 6.0, entries=8),  # overlaps span 1
    span(4, "msc.kron", 3, 4.0, 5.0, entries=4),  # nested in a span of its name
]


def test_self_time_subtracts_the_union_of_children():
    selfs = tracing.self_times(SPANS)
    assert selfs == {0: 10.0 - 5.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0}


def test_layer_metrics_on_a_synthetic_tree():
    m = {k: v["value"] for k, v in tracing.layer_metrics(SPANS, 1, 1.0).items()}
    assert m["cli.self_s"] == 5.0
    assert m["msc.kron.calls"] == 2 and m["msc.kron.s"] == 2.5  # nested call counted once
    assert m["msc.kron.entries"] == 12
    assert m["iso.candidates"] == 100 and m["iso.witness_ratio"] == 0.02
    assert m["iso.candidates_per_s"] == 100 / 3.0
    assert m["trace.overhead_s"] == 1.0
    assert set(m) == {name for name, _ in tracing.PER_LAYER}


def test_traced_worker_rebinds_from_imports(tmp_path):
    ops = [{"id": 0, "kind": "x", "argv": ["table1-verify"]},
           {"id": 1, "kind": "x", "argv": ["express", "--name", "Cdagger"]}]
    (tmp_path / "manifest.json").write_text(json.dumps({"ops": ops}))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), "run",
                    str(BENCH.parent / "src"), str(tmp_path), "0", "1"],
                   check=True, timeout=120)
    result = json.loads((tmp_path / "result.json").read_text())
    assert [p["traced"] for p in result["passes"]] == [False, True]
    spans = json.loads((tmp_path / "spans.json").read_text())
    by_id = {s["id"]: s for s in spans}
    parents = {(by_id[s["parent"]]["name"] if s["parent"] is not None else None, s["name"])
               for s in spans}
    # catalog and cli call these through names bound by ``from ... import``
    assert ("catalog.table1_verify", "generate.generate_nary") in parents
    assert ("cli", "polysolve.certify") in parents
    assert ("polysolve.certify", "polysolve.sweep") in parents


def test_benchmark_json_names_every_metric_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    import run

    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        *tracing.PER_LAYER, run.DESIGN_SHARE]
    # iso stays runnable by hand but is not a listed workload (see README.md)
    assert [w["name"] for w in spec["workloads"]] == ["replay", "express", "tensor"]
    assert set(workloads.WORKLOADS) == {"replay", "express", "iso", "tensor"}
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb"]


def test_tail_needs_ten_samples_beyond_it():
    import run

    assert run._tail([3.0, 1.0, 2.0]) == (3.0, 100.0)  # too few: the largest
    samples = [float(i) for i in range(1, 21)]
    assert run._tail(samples) == (10.0, 50.0)  # ten samples lie beyond 10.0


def test_tail_sees_slowness_that_best_latencies_hide():
    import run

    fast = {"ops": [{"latency": 1.0}, {"latency": 1.0}]}
    slow = {"ops": [{"latency": 5.0}, {"latency": 5.0}]}
    result = {"passes": [fast] * 10 + [slow] * 6, "setup_probes": [0.2, 0.1, 0.3],
              "peak_rss_kb": 1024}
    m = {k: v["value"] for k, v in run._end_to_end(result).items()}
    assert m["setup_s"] == 0.1
    assert m["wall_s"] == 2.0 and m["op_p50_s"] == 1.0
    assert m["op_tail_s"] == 5.0  # 12 slow executions of 32: the tail is slow
