"""tools/pairs.py: the summary of alternating benchmark pairs, on canned
result lines (no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def canned_run(p50, rss):
    """The stdout of one benchmark run: a report line, then the result line."""
    metrics = {"count-run-m100.job_s.p50": {"value": p50, "unit": "s"},
               "count-run-m100.peak_rss_mb": {"value": rss, "unit": "MiB"}}
    return ("count-run-m100   job_s.p50   0.01 s\nperfbench-report {}\n"
            + json.dumps({"correct": True, "attempted": 10, "failed": 0,
                          "metrics": metrics}) + "\n\n")


PARENT = [(0.0120, 24.0), (0.0110, 24.0), (0.0130, 24.0), (0.0125, 24.0), (0.0115, 24.0)]
CHANGE = [(0.0108, 24.0), (0.0101, 24.1), (0.0131, 23.9), (0.0112, 24.0), (0.0100, 24.0)]


def test_the_result_line_is_the_last_line_printed():
    out = pairs.result_object(canned_run(0.5, 20.0))
    assert out["correct"] and out["metrics"]["count-run-m100.job_s.p50"]["value"] == 0.5
    with pytest.raises(ValueError):
        pairs.result_object("\n \n")


def test_summary_gives_medians_quartiles_and_wins():
    runs = [(pairs.result_object(canned_run(*p)), pairs.result_object(canned_run(*c)))
            for p, c in zip(PARENT, CHANGE)]
    summary = pairs.summarize(runs)
    assert list(summary) == ["count-run-m100.job_s.p50", "count-run-m100.peak_rss_mb"]
    p50 = summary["count-run-m100.job_s.p50"]
    assert p50["parent_median"] == 0.0120 and p50["change_median"] == 0.0108
    assert (p50["parent_q1"], p50["parent_q3"]) == pytest.approx((0.0115, 0.0125))
    assert (p50["change_q1"], p50["change_q3"]) == pytest.approx((0.0101, 0.0112))
    assert (p50["change_better_pairs"], p50["pairs"]) == (4, 5)
    # a tie wins for neither side
    assert summary["count-run-m100.peak_rss_mb"]["change_better_pairs"] == 1
    table = pairs.format_summary(summary).splitlines()
    assert len(table) == 3
    assert table[1].split()[0] == "count-run-m100.job_s.p50"
    assert table[1].split()[-2:] == ["4/5", "-10.0%"]


def test_a_metric_missing_from_one_run_is_left_out():
    parent = pairs.result_object(canned_run(0.01, 24.0))
    change = pairs.result_object(canned_run(0.02, 24.0))
    del change["metrics"]["count-run-m100.peak_rss_mb"]
    summary = pairs.summarize([(parent, change)])
    assert list(summary) == ["count-run-m100.job_s.p50"]
    assert summary["count-run-m100.job_s.p50"]["parent_q1"] == 0.01


@pytest.mark.parametrize("count", ["0", "-1"])
def test_fewer_than_one_pair_is_a_usage_error(count, capsys):
    src = str(Path(pairs.ROOT) / "src")
    with pytest.raises(SystemExit) as exc:
        pairs.main([src, src, "--pairs", count])
    assert exc.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err


def test_an_end_to_end_metric_worse_beyond_its_bound_is_marked():
    bounds = pairs.end_to_end_bounds()
    assert bounds["job_s.p50"] == (0.25, "lower") and bounds["peak_rss_mb"][1] == "lower"
    # p50 is 30% worse (beyond 25%); RSS is 5% worse, inside its bound
    runs = [(pairs.result_object(canned_run(0.0100, 24.0)),
             pairs.result_object(canned_run(0.0130, 25.2)))]
    summary = pairs.summarize(runs, {"job_s.p50": (0.25, "lower"),
                                     "peak_rss_mb": (0.1, "lower")})
    p50, rss = summary["count-run-m100.job_s.p50"], summary["count-run-m100.peak_rss_mb"]
    assert (p50["bound"], p50["beyond_bound"]) == (0.25, True)
    assert (rss["bound"], rss["beyond_bound"]) == (0.1, False)
    rows = pairs.format_summary(summary).splitlines()[1:]
    assert [row.split()[-1] for row in rows] == ["WORSE", "ok"]
    # a metric the declaration gives no bound is not marked
    assert "bound" not in pairs.summarize(runs)["count-run-m100.job_s.p50"]


def test_a_one_workload_run_marks_its_unprefixed_metrics():
    # perfbench/run.py prefixes no metric with its workload when it runs one
    def unprefixed(p50, rss):
        run = pairs.result_object(canned_run(p50, rss))
        run["metrics"] = {name.partition(".")[2]: v for name, v in run["metrics"].items()}
        return run

    summary = pairs.summarize([(unprefixed(0.0100, 24.0), unprefixed(0.0130, 24.0))],
                              pairs.end_to_end_bounds())
    assert list(summary) == ["job_s.p50", "peak_rss_mb"]
    assert [summary[n]["beyond_bound"] for n in summary] == [True, False]
    rows = pairs.format_summary(summary).splitlines()[1:]
    assert [row.split()[-1] for row in rows] == ["WORSE", "ok"]


@pytest.mark.parametrize("parent, change, better, beyond", [
    (1.0, 1.25, "lower", False), (1.0, 1.26, "lower", True), (1.0, 0.5, "lower", False),
    (1.0, 0.75, "higher", False), (1.0, 0.74, "higher", True), (1.0, 2.0, "higher", False),
])
def test_the_bound_is_relative_to_the_parents_median(parent, change, better, beyond):
    assert pairs.beyond_bound(parent, change, 0.25, better) is beyond
