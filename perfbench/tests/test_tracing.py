import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from tracing import MAIN_SPAN, Span, Tracer, covered, self_times, uncovered_main_time


class FakeClock:
    """Clock the test advances by hand, so span times are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)
    assert covered(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0)]) == pytest.approx(1.5)


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):
        clock.now = 1.0
        with tracer.span("middle"):
            clock.now = 2.0
            with tracer.span("inner"):
                clock.now = 5.0
            clock.now = 6.0
        clock.now = 10.0
    own = dict(zip((s.name for s in tracer.spans), self_times(tracer.spans)))
    assert own == {"outer": 5.0, "middle": 2.0, "inner": 3.0}


def test_self_time_of_sibling_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("parent"):
        for start, end in ((1.0, 2.0), (4.0, 7.0)):
            clock.now = start
            with tracer.span("child"):
                clock.now = end
        clock.now = 8.0
    assert self_times(tracer.spans) == [4.0, 1.0, 3.0]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]


def test_pool_thread_span_never_parents_another_threads_span():
    tracer = Tracer()
    opened = threading.Barrier(2, timeout=10)

    def work(name):
        with tracer.span(f"{name}.outer"):
            opened.wait()  # both pool spans are open at once
            with tracer.span(f"{name}.inner"):
                pass
            opened.wait()

    with tracer.span("main"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(work, "a"), pool.submit(work, "b")]:
                future.result(timeout=10)
        with tracer.span("main.child"):
            pass

    spans = tracer.spans
    by_name = {s.name: i for i, s in enumerate(spans)}
    for i, span in enumerate(spans):
        if span.parent is not None:
            assert spans[span.parent].thread == span.thread
    assert spans[by_name["a.outer"]].parent is None
    assert spans[by_name["b.outer"]].parent is None
    assert spans[by_name["a.inner"]].parent == by_name["a.outer"]
    assert spans[by_name["b.inner"]].parent == by_name["b.outer"]
    assert spans[by_name["main.child"]].parent == by_name["main"]


def test_main_time_excludes_pool_thread_spans():
    spans = [
        Span(MAIN_SPAN, 1, 0.0, 10.0, None),
        Span("metrics.frechet_distance", 2, 1.0, 4.0, None),
        Span("metrics.dtw_distance", 3, 3.0, 6.0, None),
        Span("metrics.write_metrics_csv", 1, 8.0, 9.0, 0),
    ]
    # Covered: [1, 6] by the two pool threads and [8, 9] by main's child.
    assert uncovered_main_time(spans) == pytest.approx(4.0)
    assert self_times(spans)[0] == pytest.approx(9.0)


def test_installed_wrappers_record_each_call_once_and_restore():
    from poltrans import cli, gp, transport
    from poltrans.scenarios import make_surface_scenario

    from tracing import installed, layer_metrics

    originals = (cli.fit_transport, transport.predict_mean, gp.predict_mean, gp.minimize)
    kp = make_surface_scenario("sine", n_keypoints=6, seed=3).keypoints
    tracer = Tracer()
    with installed(tracer):
        assert cli.fit_transport is transport.fit_transport
        with tracer.span(MAIN_SPAN):
            tmap = cli.fit_transport(kp)
            cli.transport_points(tmap, kp.source.points)
    assert (cli.fit_transport, transport.predict_mean, gp.predict_mean, gp.minimize) == originals

    layers = layer_metrics(tracer)
    assert layers["transport.fit_transport.calls"] == 1
    assert layers["affine.fit_affine.calls"] == 1
    assert layers["gp.fit_gp.calls"] == layers["transport.fit_transport.gp_fits_per_map"] == 1
    assert layers["gp.fit_gp.objective_evals"] > 0
    # One mean query batch in the keypoint check, one in transport_points.
    assert layers["gp.predict_mean.calls"] >= 2
    assert layers["gp.predict_variance.queries"] == kp.n
    assert layers["metrics.frechet_distance.calls"] == 0
    assert 0.0 <= layers["cli.self_s"] <= tracer.spans[0].end - tracer.spans[0].start
