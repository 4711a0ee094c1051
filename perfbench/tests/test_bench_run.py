from pytest import approx

import run


def _pass(times, rss=50.0):
    return run.Pass(traced=False, times=times, articles=2, calls=10, failures=0, digests={},
                    http={}, size=(0, 0), rss_mb=rss, crawl_in_flight=1, termination="exhausted")


def test_end_to_end_sums_each_units_and_set_up_steps_fastest_run():
    a = _pass({"crawl/0": [0.30], "crawl/1": [0.20], "classify": [0.5, 0.4],
               "query/0": [0.002], "query/1": [0.010]})
    b = _pass({"crawl/0": [0.25], "crawl/1": [0.22], "classify": [0.45],
               "query/0": [0.003], "query/1": [0.008]}, rss=60.0)
    setups = [{"generate": 0.5, "graph": 0.4}, {"generate": 0.3, "graph": 0.6}]
    m = run.end_to_end(setups, [a, b])
    assert m["crawl_s"] == approx(0.25 + 0.20)
    assert m["classify_s"] == approx(0.4)
    assert m["query_s"] == approx(0.002 + 0.008)
    assert m["wall_s"] == approx(0.45 + 0.4 + 0.010)
    assert m["query_p50_ms"] == approx(2.0)
    assert m["query_p90_ms"] == approx(8.0)
    assert m["setup_s"] == approx(0.3 + 0.4)
    assert m["peak_rss_mb"] == 60.0
    assert m["articles_per_s"] == approx(2 / 0.45)
    assert m["backend_calls_per_s"] == approx(10 / 0.85)
    assert set(m) == set(run.declared_units("end_to_end"))


def test_first_runs_counts_each_unit_once():
    p = _pass({"classify": [0.5, 0.1, 0.1], "query/0": [0.2, 0.1]})
    assert p.first_runs_s() == approx(0.7)
