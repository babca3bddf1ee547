"""Tests of the benchmark's own logic; the smoke runs stay at d <= 4.

    python3 -m pytest perfbench/tests
"""


import json

import pytest

from campaign import MIN_SETUPS, ROOT, Campaign, Outcome, canonical, check, end_to_end, import_hrlab, per_layer, percentile
from spans import COUNT_SPAN, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, aug2, bounded_partitions, check_report, verify_hr

# (name, start, end, parent, instance)
TREE = [
    ("cli.main", 0.0, 10.0, -1, "x"),
    ("symfunc.schur", 1.0, 4.0, 0, "x"),
    ("exterior.wedge", 1.5, 2.5, 1, "x"),
    ("bilinear.gram", 5.0, 9.0, 0, "x"),
    ("exterior.wedge", 6.0, 7.0, 3, "x"),
    ("exterior.wedge", 6.5, 7.5, 3, "x"),  # overlaps its sibling
    ("exterior.wedge", 8.5, 9.5, 3, "x"),  # runs past its parent's end
    ("sampling.random_positive_form", 20.0, 21.0, -1, "setup"),
    ("cli.main", 30.0, 31.0, -1, "warmup"),
]


def test_self_time_is_duration_minus_child_coverage():
    selfs = self_times(TREE)
    assert selfs[0] == pytest.approx(10 - 3 - 4)
    assert selfs[1] == pytest.approx(3 - 1)
    # gram covers [6, 7.5] once and [8.5, 9] clipped to its own interval
    assert selfs[3] == pytest.approx(4 - 1.5 - 0.5)
    assert selfs[2] == selfs[4] == selfs[7] == pytest.approx(1)


def test_layer_metrics_scope_wedges_and_skip_warmup():
    m = layer_metrics([("pad", 0, 0, -1, None)] + [(n, s, e, p + 1 if p >= 0 else -1, i) for n, s, e, p, i in TREE], 1, {"x"})
    assert m["exterior.wedge.schur_s"] == pytest.approx(1)
    assert m["exterior.wedge.gram_s"] == pytest.approx(3)
    assert m["exterior.wedge.self_s"] == pytest.approx(4)
    assert m["cli.main.self_s"] == pytest.approx(3)  # warm-up span left out
    assert m["sampling.random_positive_form.self_s"] == pytest.approx(1)
    assert m["layer.exterior.self_s"] == pytest.approx(4)
    assert m["augmentation.check_property.self_s"] == 0


@pytest.mark.parametrize(
    "n, rank, resolved",
    [(102, 92, True), (100, 90, True), (99, 90, False), (408, 368, True), (1, 1, False)],
)
def test_percentile_rank_and_tail_rule(n, rank, resolved):
    values = list(range(n, 0, -1))  # unsorted on purpose
    assert percentile(values, 0.9) == (rank, resolved)


def test_canonical_report_ignores_config_timing_and_key_order():
    a = {"results": [{"b": 1, "a": [1, 2]}], "config": {"forms": "x.json"}, "timing": {"t": 1.0}}
    b = {"timing": {"t": 2.0}, "results": [{"a": [1, 2], "b": 1}], "config": {"forms": "y.json"}}
    assert canonical(a) == canonical(b) == '{"results":[{"a":[1,2],"b":1}]}'
    assert canonical(a) != canonical({"results": [{"a": [1, 2], "b": 2}]})


def test_bounded_partitions_match_hrlab():
    modules, _ = import_hrlab()
    for b in range(6):
        for cap in range(1, 5):
            want = [p.parts for p in modules["symfunc"].partitions(b, cap)]
            assert bounded_partitions(b, cap) == want


def test_instance_lists():
    sizes = {"hr-grid": 102, "schur-deep": 6, "family-upgrade": 11}
    for name, w in WORKLOADS.items():
        full = w.build(False)
        assert len(full) == sizes[name]
        assert len({i.id for i in full}) == len(full)
        assert all(i.d <= 4 for i in w.build(True))


def test_check_report_names_what_theory_rules_out():
    inst = verify_hr(3, 1, (1,))
    good = {"results": [{"signature": [1, 8, 0], "pass": True}]}
    assert check_report(inst, 0, good) is None
    assert "expected [1, 8, 0]" in check_report(inst, 1 - 1, {"results": [{"signature": [2, 7, 0], "pass": False}]})
    assert check_report(inst, 1, good) == "exit code 1"
    fam = aug2(4, 2, (1, 1))
    assert check_report(fam, 0, {"results": [{"status": "PASS", "verdict": {"status": "CONSISTENT"}}]}) is None
    assert "NOT-APPLICABLE" in check_report(fam, 0, {"results": [{"status": "NOT-APPLICABLE", "verdict": {"status": "NOT-APPLICABLE"}}]})
    why, sha = check(Outcome(inst, 0.1, None, "", "boom"))
    assert why == "raised: boom" and sha is None


def test_install_rebinds_every_importer():
    modules, pkg = import_hrlab()
    tracer = Tracer()
    tracer.install(modules, rebind_in=[*modules.values(), pkg])
    wedge = modules["exterior"].wedge
    assert modules["bilinear"].wedge is wedge
    assert modules["augmentation"].wedge is wedge
    assert pkg.wedge is wedge
    assert modules["cli"].schur is modules["symfunc"].schur
    tracer.counting = True
    tracer.instance = "x"
    ex = modules["exterior"]
    omega = ex.identity_form(2)
    wedge(ex.Form.scalar(2, 1), omega)
    assert [s[0] for s in tracer.spans] == ["exterior.identity_form", "exterior.wedge", COUNT_SPAN]
    assert tracer.counts["exterior.wedge.pairs_tried"] == 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced(name, tmp_path):
    run = Campaign(name, 7, tmp_path, smoke=True).measure(0, traced=False)
    assert run.failures == []
    assert len(run.campaign_s) == 1 and len(run.setup_s) == MIN_SETUPS
    assert len(run.instance_s) == len(WORKLOADS[name].build(True))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_counts_repeat(name, tmp_path):
    runs = [Campaign(name, 7, tmp_path, smoke=True).measure(0, traced=True) for _ in range(2)]
    assert runs[0].failures == runs[1].failures == []
    assert runs[0].counts == runs[1].counts
    assert runs[0].span_count == runs[1].span_count
    counts = runs[0].counts
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(per_layer(runs[0])) == [m["name"] for m in declared["per_layer"]]
    assert list(end_to_end(runs[0])) == [m["name"] for m in declared["end_to_end"]]
    assert per_layer(runs[0])["sampling.random_positive_form.self_s"][0] > 0
    assert counts["exterior.wedge.calls"] > 0 and counts["bilinear.signature.calls"] > 0
    assert counts["gaussian.coeff_max_bits"] > 0
    if name == "family-upgrade":
        assert counts["augmentation.intersection_form.calls"] > counts["augmentation.intersection_form.distinct"] > 0
    else:
        assert counts["symfunc.schur.calls"] == len(WORKLOADS[name].build(True))
