"""Tests for the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import copy

import pytest

import run
import spans
import workloads


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 60] > b [20, 50]; root > c [70, 90]
    spans_ = [["root", 0, 100, -1, 0], ["a", 10, 60, 0, 0],
              ["b", 20, 50, 1, 0], ["c", 70, 90, 0, 0]]
    assert spans.self_times(spans_) == [100 - 50 - 20, 50 - 30, 30, 20]


def test_layer_metrics_from_nested_spans():
    tracer = spans.Tracer()
    tracer.spans = [["calibrate.ko_calibrate", 0, 10_000_000, -1, 0],
                    ["rkhs.loo_cv_phi", 1_000_000, 4_000_000, 0, 0],
                    ["numpy.linalg.eigh", 2_000_000, 3_000_000, 1, 0],
                    ["numpy.linalg.eigh", 4_000_000, 5_000_000, 0, 0],
                    ["scipy.optimize.minimize", 5_000_000, 9_000_000, 0, 0]]
    m = spans.layer_metrics(tracer, ops=1)
    assert m["rkhs.eigh.calls"] == (1.0, "count")  # the KO eigh is not under rkhs
    assert m["rkhs.self_ms"][0] == pytest.approx(2.0)
    assert m["calibrate.ko_calibrate.grid_ms"][0] == pytest.approx(2.0)
    assert m["calibrate.ko_calibrate.self_ms"][0] == pytest.approx(6.0)
    assert m["calibrate.ko_calibrate.nm_ms"][0] == pytest.approx(4.0)


def test_p90_needs_ten_samples_beyond_it():
    assert run.percentile(list(range(99)), 0.9) is None
    assert run.percentile(list(range(100)), 0.9) == 89
    assert run.percentile(list(range(5)), 0.5, min_beyond=2) == 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_golden_check_flags_a_perturbed_theta(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    golden = workloads.load_golden(workload)["datasets"]
    output = workload.call(workload.inputs(workloads.GOLDEN_SEED, tmp_path), 0)
    assert workloads.check(workload, output, 0, golden) == {}
    method = workload.methods[-1]
    for shift, flagged in ((0.5 * workloads.TOLERANCE, False),
                           (2.0 * workloads.TOLERANCE, True)):
        moved = copy.deepcopy(golden)
        moved[0][method]["theta"] += shift
        assert set(workloads.check(workload, output, 0, moved)) == ({method} if flagged else set())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    from l2calib import cli
    workload = workloads.WORKLOADS[name]
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    first = workload.inputs(5, a)
    assert len(first) == workload.datasets
    if isinstance(workload, workloads.Calibrate):
        workload.inputs(5, b)
        workload.inputs(6, c)
        for k in range(workload.datasets):
            data = (a / f"data{k}.csv").read_bytes()
            assert data == (b / f"data{k}.csv").read_bytes()
            assert data != (c / f"data{k}.csv").read_bytes()
        pts, y = cli.read_data_csv(a / "data0.csv")  # plain floats parse back
        assert pts.shape == (workload.n, 1) and y.shape == (workload.n,)
    else:
        assert first == workload.inputs(5, a)
        assert {cfg.seed for cfg in first}.isdisjoint(cfg.seed for cfg in workload.inputs(6, a))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_theta_is_bit_identical_to_untraced(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(0, tmp_path)
    plain = workload.call(inputs, 1)
    tracer = spans.Tracer()
    tracer.call = 1
    with spans.installed(tracer):
        traced = workload.call(inputs, 1)
    assert traced == plain
    assert [e[1] for e in tracer.estimates] == list(workload.methods)
    assert workloads.check_traced(workload, [(1, plain)], [(1, traced)],
                                  tracer.estimates, None) == []
    rows = workload.parse(plain)
    assert all(rows[m]["theta"] == theta for _, m, theta, _ in tracer.estimates)
    assert workloads.check(workload, plain, 1, workloads.load_golden(workload)["datasets"]) == {}


def test_installed_restores_the_originals():
    from l2calib import cli, kernels
    import numpy
    before = (kernels.gram, numpy.linalg.eigh, cli.simulate, cli.l2_calibrate)
    with spans.installed(spans.Tracer()):
        assert kernels.gram is not before[0]
    assert (kernels.gram, numpy.linalg.eigh, cli.simulate, cli.l2_calibrate) == before
