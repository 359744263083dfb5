import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import avg_hamming_top_k, hamming, load_history, near_opt_probability
from ucqaoa.dispatch import NearOptimalSet, near_optimal_set
from ucqaoa.errors import ValidationError
from ucqaoa.hybrid import HistoryRecord, HybridConfig, run_hybrid
from ucqaoa.instance import bits_to_index
from ucqaoa.baseline import random_instance
from ucqaoa.metrics import compute_snapshot, export_history, top_k


def _nos(n, members, optimal=100.0, cutoff=105.0):
    idx = np.array(sorted(bits_to_index(bits) for bits in members), dtype=np.int64)
    return NearOptimalSet(members=idx, optimal_cost=optimal, cutoff=cutoff, n=n)


# ---------------------------------------------------------------------------
# hamming distance


def test_hamming_basic_cases():
    assert hamming("0000", "0000") == 0
    assert hamming("1011", "0011") == 1
    assert hamming("1111", "0000") == 4
    assert hamming((1, 0, 1), (0, 0, 1)) == 1


def test_hamming_length_mismatch():
    with pytest.raises(ValidationError):
        hamming("01", "011")


@given(st.integers(1, 8), st.data())
def test_hamming_is_a_metric(n, data):
    bits = st.tuples(*[st.integers(0, 1)] * n)
    a, b, c = data.draw(bits), data.draw(bits), data.draw(bits)
    assert hamming(a, b) == hamming(b, a)
    assert hamming(a, a) == 0
    assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


# ---------------------------------------------------------------------------
# near-optimal probability


def test_uniform_mass_is_member_fraction():
    nos = _nos(3, {(0, 0, 0), (1, 1, 0), (0, 1, 1)})
    assert near_opt_probability(np.full(8, 1 / 8), nos) == pytest.approx(3 / 8)


def test_point_mass_on_member_is_one():
    nos = _nos(2, {(1, 1)})
    probs = np.zeros(4)
    probs[3] = 1.0  # index 3 = bits (1, 1)
    assert near_opt_probability(probs, nos) == 1.0


def test_disjoint_support_is_zero():
    nos = _nos(2, {(1, 1)})
    probs = np.array([0.5, 0.5, 0.0, 0.0])
    assert near_opt_probability(probs, nos) == 0.0


def test_dimension_mismatch_rejected():
    nos = _nos(3, {(0, 0, 0)})
    with pytest.raises(ValidationError):
        near_opt_probability(np.full(4, 0.25), nos)
    with pytest.raises(ValidationError):
        avg_hamming_top_k(np.full(4, 0.25), nos)


@given(st.integers(1, 6), st.data())
@settings(max_examples=30)
def test_probability_equals_manual_sum(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    probs = rng.dirichlet(np.ones(1 << n))
    k = data.draw(st.integers(1, 1 << n))
    idx = rng.choice(1 << n, size=k, replace=False)
    from ucqaoa.instance import index_to_bits

    nos = _nos(n, {index_to_bits(int(i), n) for i in idx})
    assert near_opt_probability(probs, nos) == pytest.approx(
        float(probs[np.sort(idx)].sum()), rel=1e-12)


# ---------------------------------------------------------------------------
# top-k and hamming average


def test_top_k_ordering_and_ties():
    probs = np.array([0.1, 0.4, 0.1, 0.4])
    assert list(top_k(probs, 4)) == [1, 3, 0, 2]
    assert list(top_k(probs, 2)) == [1, 3]


def test_top_k_truncates_to_table():
    assert len(top_k(np.full(4, 0.25), 50)) == 4
    with pytest.raises(ValidationError):
        top_k(np.full(4, 0.25), 0)


def test_hand_average_two_qubits():
    # members={11}: d(00)=2, d(01)=1, d(10)=1, d(11)=0 -> mean 1.0
    nos = _nos(2, {(1, 1)})
    assert avg_hamming_top_k(np.full(4, 0.25), nos, k=4) == pytest.approx(1.0)


def test_average_zero_when_top_k_all_members():
    nos = _nos(3, {(0, 0, 0), (1, 0, 0)})
    probs = np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0], dtype=float)
    assert avg_hamming_top_k(probs, nos, k=2) == 0.0


def test_empty_member_set_rejected():
    nos = _nos(2, set())
    with pytest.raises(ValidationError):
        avg_hamming_top_k(np.full(4, 0.25), nos)


@given(st.integers(1, 6), st.data())
@settings(max_examples=30)
def test_average_matches_slow_reference(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    probs = rng.dirichlet(np.ones(1 << n))
    m = data.draw(st.integers(1, 1 << n))
    members_idx = rng.choice(1 << n, size=m, replace=False)
    from ucqaoa.instance import index_to_bits, index_to_string

    members = {index_to_bits(int(i), n) for i in members_idx}
    nos = _nos(n, members)
    k = data.draw(st.integers(1, 1 << n))
    got = avg_hamming_top_k(probs, nos, k=k)
    member_strings = [index_to_string(int(i), n) for i in members_idx]
    dists = []
    for idx in top_k(probs, k):
        s = index_to_string(int(idx), n)
        dists.append(min(hamming(s, ms) for ms in member_strings))
    assert got == pytest.approx(float(np.mean(dists)), rel=1e-12)
    assert 0.0 <= got <= n


def test_snapshot_fields_consistent():
    nos = _nos(2, {(1, 1)})
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    snap = compute_snapshot(probs, nos, k=3)
    assert snap.near_opt_prob == pytest.approx(0.4)
    assert list(top_k(probs, 3)) == [3, 2, 1]  # "11", "01", "10" unit-0-first
    assert snap.avg_hamming_top50 == pytest.approx((0 + 1 + 1) / 3)


@given(st.integers(1, 6), st.data())
@settings(max_examples=30)
def test_snapshot_equals_the_two_metrics(n, data):
    # compute_snapshot checks its distribution once and computes both
    # metrics inline; the oracles check it once each
    from ucqaoa.instance import index_to_bits

    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    probs = rng.dirichlet(np.ones(1 << n))
    members_idx = rng.choice(1 << n, size=data.draw(st.integers(1, 1 << n)), replace=False)
    nos = _nos(n, {index_to_bits(int(i), n) for i in members_idx})
    k = data.draw(st.integers(1, 1 << n))
    snap = compute_snapshot(probs, nos, k)
    assert (snap.near_opt_prob, snap.avg_hamming_top50) == (
        near_opt_probability(probs, nos), avg_hamming_top_k(probs, nos, k))


@pytest.mark.parametrize("probs, nos, k", [
    (np.full(4, 0.25), _nos(2, set()), 50),
    (np.full(4, 0.25), _nos(2, set()), 0),
    (np.full(4, 0.25), _nos(2, {(1, 1)}), 0),
], ids=["empty-set", "empty-set-and-k", "k"])
def test_snapshot_refuses_what_the_two_metrics_refuse(probs, nos, k):
    # each bad probs is compared in test_arguments.py
    with pytest.raises(ValidationError) as want:
        near_opt_probability(probs, nos)
        avg_hamming_top_k(probs, nos, k)
    with pytest.raises(ValidationError) as got:
        compute_snapshot(probs, nos, k)
    assert str(got.value) == str(want.value)


def test_snapshot_validates_ranges():
    from ucqaoa.metrics import MetricSnapshot

    with pytest.raises(ValidationError):
        MetricSnapshot(near_opt_prob=1.5, avg_hamming_top50=0.0)
    with pytest.raises(ValidationError):
        MetricSnapshot(near_opt_prob=0.5, avg_hamming_top50=-1.0)


# ---------------------------------------------------------------------------
# history export / import


def _sample_records():
    return [
        HistoryRecord(iter=0, objective=12.5, near_opt_prob=0.125,
                      avg_hamming_top50=1.75, best_bitstring="0101",
                      elapsed_ms=0.0),
        HistoryRecord(iter=10, objective=10.03125, near_opt_prob=0.5,
                      avg_hamming_top50=0.5, best_bitstring="1100",
                      elapsed_ms=3.5),
    ]


@pytest.mark.parametrize("fmt,ext", [("csv", ".csv"), ("json", ".json")])
def test_history_round_trip(tmp_path, fmt, ext):
    path = str(tmp_path / f"history{ext}")
    records = _sample_records()
    export_history(records, fmt, path)
    loaded = load_history(path)
    assert len(loaded) == 2
    for rec, row in zip(records, loaded):
        assert row["iter"] == rec.iter
        assert row["objective"] == rec.objective  # exact via repr round-trip
        assert row["near_opt_prob"] == rec.near_opt_prob
        assert row["avg_hamming_top50"] == rec.avg_hamming_top50
        assert row["best_bitstring"] == rec.best_bitstring
        assert row["elapsed_ms"] == rec.elapsed_ms


def test_csv_header_matches_contract(tmp_path):
    path = str(tmp_path / "h.csv")
    export_history(_sample_records(), "csv", path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "iter,objective,near_opt_prob,avg_hamming_top50,best_bitstring,elapsed_ms"


def test_export_accepts_run_history(tmp_path):
    inst = random_instance(3, rng=0)
    hist = run_hybrid(inst, HybridConfig(max_iterations=10, metric_cadence=5))
    path = str(tmp_path / "run.json")
    export_history(hist, "json", path)
    loaded = load_history(path)
    assert [r["iter"] for r in loaded] == [r.iter for r in hist.records]


def test_export_unknown_format(tmp_path):
    with pytest.raises(ValidationError):
        export_history(_sample_records(), "yaml", str(tmp_path / "h.yaml"))
    with pytest.raises(ValidationError):
        load_history(str(tmp_path / "h.yaml"))


_CSV_HEADER = "iter,objective,near_opt_prob,avg_hamming_top50,best_bitstring,elapsed_ms\n"
_JSON_ROW = {"iter": 0, "objective": 12.5, "near_opt_prob": 0.125,
             "avg_hamming_top50": 1.75, "best_bitstring": "0101", "elapsed_ms": 0.0}


@pytest.mark.parametrize("name,text,message", [
    ("h.csv", "iter,objective,avg_hamming_top50,best_bitstring,elapsed_ms\n0,12.5,1.75,0101,0.0\n",
     "row 0 has no near_opt_prob"),
    ("h.csv", _CSV_HEADER + "0,12.5,0.125,1.75,0101,0.0\n1.5,10.0,0.5,0.5,1100,3.5\n",
     "row 1 iter: '1.5' is not of type int"),
    ("h.json", json.dumps(_JSON_ROW), "expected a JSON array"),
    ("h.json", json.dumps([_JSON_ROW, {"iter": 10}]), "row 1 has no objective"),
    ("h.json", json.dumps([None]), "row 0 is not an object"),
    ("h.json", json.dumps([{**_JSON_ROW, "iter": 1.5}]), "row 0 iter: 1.5 is not of type int"),
], ids=["csv-missing-column", "csv-non-integer-iter", "json-object", "json-row-missing-fields",
        "json-null-row", "json-fractional-iter"])
def test_load_history_rejects_malformed_file(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValidationError, match=message) as exc:
        load_history(str(path))
    assert str(path) in str(exc.value)


def test_export_byte_identical_reruns(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    export_history(_sample_records(), "csv", p1)
    export_history(_sample_records(), "csv", p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


# ---------------------------------------------------------------------------
# convergence wiring (metrics against a real run)


def test_run_metrics_against_real_near_optimal_set():
    inst = random_instance(4, rng=3)
    nos = near_optimal_set(inst, 0.05)
    hist = run_hybrid(inst, HybridConfig(max_iterations=20, metric_cadence=10))
    for rec in hist.records:
        assert 0.0 <= rec.near_opt_prob <= 1.0
        assert 0.0 <= rec.avg_hamming_top50 <= inst.n
    assert near_opt_probability(hist.final_distribution, nos) == pytest.approx(
        hist.records[-1].near_opt_prob, abs=1e-12)
