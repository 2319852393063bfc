"""The benchmark's own tests: seeded inputs and traced counts repeat exactly.

Uses small stand-ins for each workload's round (same op shapes, fewer and
cheaper ops) so the traced runs take a few seconds.
"""
import json
from pathlib import Path

import pytest

import run

workloads = run.load_package()
from spans import Tracer  # noqa: E402  (after load_package puts src on the path)

SMALL = {
    "cluster-dense": (12, 13, 14),
    "oracle-numeric": (("w", 5), ("cluster", 5), ("adaptive", 4)),
    "sweep-cli": ("w", "mid"),
}


def small(name, seed, workdir):
    cls = workloads.WORKLOADS[name]
    return type(cls.__name__, (cls,), {"COMPOSITION": SMALL[name]})(seed, workdir, run.ROOT)


def snapshot(ops):
    """Everything an op hands the program, with config files read back."""
    out = []
    for op in ops:
        args = {k: (Path(v).read_text() if isinstance(v, str) and v.endswith(".json") else v)
                for k, v in op.args.items() if k != "output"}
        out.append((op.shape, op.n, op.points, repr(args)))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_in_seed(name, tmp_path):
    def generate(seed, sub):
        (tmp_path / sub).mkdir()
        w = workloads.WORKLOADS[name](seed, tmp_path / sub, run.ROOT)
        return snapshot(w.round(0) + w.round(1) + [w.warmup()])

    first, again, other = generate(7, "a"), generate(7, "b"), generate(8, "c")
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly(name, tmp_path):
    def counts(sub):
        (tmp_path / sub).mkdir()
        result = run.traced_round(small(name, 11, tmp_path / sub), 0.0, min_passes=1)
        assert all(p.ok or p.known for p in result["points"]), [p.reason for p in result["points"]]
        tracer = result["tracer"]
        return ({k: (s.calls, s.errors) for k, s in tracer.stats.items()},
                dict(tracer.counters), len(tracer.span_id))

    first = counts("a")
    assert first == counts("b")
    assert sum(calls for calls, _ in first[0].values()) > 0


def test_every_declared_layer_metric_is_traced():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    original = workloads.protocols.run_cluster
    with Tracer() as tracer:
        assert workloads.protocols.run_cluster is not original
        for metric in spec["per_layer"]:
            run.layer_metric(metric["name"], tracer, 0.0, 0.0)
    assert workloads.protocols.run_cluster is original


def test_measure_pairs_every_op_with_a_kernel_time(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "setup_probe", lambda name, seed: 0.5)
    ops, points, setup = run.measure(small("cluster-dense", 5, tmp_path), 0.0)
    assert len(ops) >= run.MIN_OPS and len(setup) == run.SETUP_PROBES
    assert all(p.ok for p in points)
    assert all(k > 0 for *_, k in ops) and all(t == 0.5 and k > 0 for t, k in setup)
