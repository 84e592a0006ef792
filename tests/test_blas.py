"""One BLAS thread around small products, the workers stopped after large
ones, and the RPN rule that uses both.

OpenBLAS keeps its extra threads spinning for ~0.1 s after every threaded
call.  On the oracle path, whose only threaded products are the RPN's ~14
MFLOP, a second thread doubled the process CPU time of ``detect`` and gained
no wall time.  A 256-channel RPN head gains from the second thread, so it
keeps the caller's count and the workers are stopped after its products.
"""
import dataclasses
import json
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import raildet
from raildet import blas, model
from raildet.model import extract_features, random_weights, rpn_forward
from raildet.oracle import build_oracle_weights, oracle_pipeline_config
from raildet.synth import synthesize_scene

MAX_CPU_PER_WALL = 1.25
# a 256-channel RPN still splits its own products over two threads
MAX_DENSE_CPU_PER_WALL = 1.4
needs_setter = pytest.mark.skipif(not blas.found(),
                                  reason="numpy's OpenBLAS thread-count setter not found")
needs_workers = pytest.mark.skipif(not blas.workers_found(),
                                reason="numpy's OpenBLAS worker start and shutdown not found")


class FakeBlas:
    def __init__(self, threads):
        self.threads = threads
        self.sets = []
        self.starts = 0
        self.stops = 0

    def get(self):
        return self.threads

    def set(self, n):
        self.sets.append(n)
        self.threads = n

    def start(self):
        self.starts += 1
        return 0

    def stop(self):
        self.stops += 1
        return 0


@pytest.fixture
def fake(monkeypatch):
    lib = FakeBlas(2)
    monkeypatch.setattr(blas, "_api", lambda: blas.Api(lib.get, lib.set, lib.start, lib.stop))
    return lib


class TestSingleThread:
    def test_restores_the_count_on_exit(self, fake):
        with blas.single_thread():
            assert fake.threads == 1
        assert fake.threads == 2
        assert fake.sets == [1, 2]

    def test_restores_the_count_on_an_exception(self, fake):
        with pytest.raises(KeyError):
            with blas.single_thread():
                assert fake.threads == 1
                raise KeyError("x")
        assert fake.threads == 2

    def test_nests(self, fake):
        with blas.single_thread():
            with blas.single_thread():
                assert fake.threads == 1
            assert fake.threads == 1
        assert fake.threads == 2
        assert fake.sets == [1, 2]

    def test_never_raises_a_count_of_one(self, fake):
        fake.threads = 1
        with blas.single_thread():
            assert fake.threads == 1
        assert fake.threads == 1
        assert fake.sets == []

    def test_does_nothing_without_a_setter(self, monkeypatch):
        monkeypatch.setattr(blas, "_api", lambda: None)
        assert not blas.found()
        with blas.single_thread():
            pass

    @needs_setter
    def test_numpys_openblas(self):
        get = blas._api().get
        before = get()
        with blas.single_thread():
            assert get() == 1
        assert get() == before


class TestStopWorkersAfter:
    def test_stops_once_when_the_last_block_exits(self, fake):
        with blas.stop_workers_after():
            with blas.stop_workers_after():
                assert fake.threads == 2
            assert fake.stops == 0
        assert fake.stops == 1
        assert fake.sets == []

    def test_starts_the_workers_on_entry(self, fake):
        with blas.stop_workers_after():
            assert (fake.starts, fake.stops) == (1, 0)
        with blas.stop_workers_after():
            assert (fake.starts, fake.stops) == (2, 1)

    def test_stops_on_an_exception(self, fake):
        with pytest.raises(KeyError):
            with blas.stop_workers_after():
                raise KeyError("x")
        assert fake.stops == 1

    def test_stops_when_the_last_of_overlapping_threads_exits(self, fake):
        entered, release = threading.Event(), threading.Event()

        def other():
            with blas.stop_workers_after():
                entered.set()
                release.wait()

        t = threading.Thread(target=other)
        t.start()
        entered.wait()
        with blas.stop_workers_after():
            release.set()
            t.join()
            assert fake.stops == 0
        assert fake.stops == 1

    def test_never_stops_inside_single_thread(self, fake):
        with blas.single_thread():
            with blas.stop_workers_after():
                pass
            assert fake.stops == 0
        assert (fake.starts, fake.stops) == (0, 0)

    def test_never_stops_while_another_thread_holds_single_thread(self, fake):
        entered, release = threading.Event(), threading.Event()

        def other():
            with blas.single_thread():
                entered.set()
                release.wait()

        t = threading.Thread(target=other)
        t.start()
        entered.wait()
        fake.threads = 2  # so that only the holder, not a count of 1, keeps the stop off
        try:
            with blas.stop_workers_after():
                pass
            assert (fake.starts, fake.stops) == (0, 0)
        finally:
            release.set()
            t.join()

    def test_never_stops_at_a_count_of_one(self, fake):
        fake.threads = 1
        with blas.stop_workers_after():
            pass
        assert (fake.starts, fake.stops) == (0, 0)

    def test_does_nothing_without_the_symbols(self, fake, monkeypatch):
        monkeypatch.setattr(blas, "_api", lambda: blas.Api(fake.get, fake.set, None, None))
        assert blas.found() and not blas.workers_found()
        with blas.stop_workers_after():
            pass
        assert (fake.starts, fake.stops) == (0, 0) and fake.sets == []

    @needs_workers
    def test_a_threaded_product_after_a_stop(self):
        get = blas._api().get
        before = get()
        a = np.random.default_rng(0).standard_normal((384, 384))
        expected = a @ a
        with blas.stop_workers_after():
            assert np.array_equal(a @ a, expected)
        assert np.array_equal(a @ a, expected)
        assert get() == before

    @needs_workers
    @pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="no /proc/self/status")
    def test_the_workers_exit_at_the_stop(self):
        if blas._api().get() == 1:
            pytest.skip("one BLAS thread: no workers")

        def os_threads():
            status = Path("/proc/self/status").read_text()
            return int(status.split("Threads:")[1].split()[0])

        with blas.stop_workers_after():
            inside = os_threads()
        assert os_threads() < inside


def _heads(stride):
    config = oracle_pipeline_config()
    config = dataclasses.replace(config, anchors=dataclasses.replace(config.anchors, stride=stride))
    return {"oracle": build_oracle_weights(config).rpn,
            **{f"random:{s}": random_weights(s, k=config.anchors.k).rpn for s in (0, 1)}}


@pytest.mark.parametrize("stride", model.BACKBONE_STRIDES)
def test_rpn_forward_is_the_same_without_a_setter(stride, monkeypatch):
    heads = _heads(stride)
    for seed in range(3):
        fm = extract_features(synthesize_scene(seed)[0], stride)
        found = {name: rpn_forward(fm, head) for name, head in heads.items()}
        with monkeypatch.context() as m:
            m.setattr(blas, "_api", lambda: None)
            for name, head in heads.items():
                for a, b in zip(found[name], rpn_forward(fm, head)):
                    assert np.array_equal(a, b), (name, seed)


@needs_workers
@pytest.mark.parametrize("stride", model.BACKBONE_STRIDES)
def test_rpn_forward_is_the_same_without_the_stop(stride, monkeypatch):
    heads = {name: head for name, head in _heads(stride).items() if name != "oracle"}
    api = blas._api()
    for seed in range(3):
        fm = extract_features(synthesize_scene(seed)[0], stride)
        for name, head in heads.items():
            stopped = rpn_forward(fm, head)
            with monkeypatch.context() as m:
                m.setattr(blas, "_api", lambda: api._replace(start=None, stop=None))
                kept = rpn_forward(fm, head)
            for a, b in zip(stopped, kept):
                assert np.array_equal(a, b), (name, seed)


@pytest.mark.parametrize("stride", model.BACKBONE_STRIDES)
def test_only_small_rpn_products_run_on_one_thread(stride, monkeypatch):
    # a 256-channel head's bits depend on the BLAS thread count, so it must
    # keep the caller's count, and the workers are stopped after it; the
    # oracle head keeps 19 live channels
    entered = []

    def recording(name):
        @contextmanager
        def context():
            entered.append(name)
            yield
        return context

    monkeypatch.setattr(blas, "single_thread", recording("single_thread"))
    monkeypatch.setattr(blas, "stop_workers_after", recording("stop_workers_after"))
    fm = extract_features(synthesize_scene(0)[0], stride)
    for name, head in _heads(stride).items():
        entered.clear()
        rpn_forward(fm, head)
        assert entered == (["single_thread"] if name == "oracle" else ["stop_workers_after"]), name


LOOP = """
import json, time
from raildet.model import random_weights
from raildet.oracle import build_oracle_weights, oracle_pipeline_config
from raildet.pipeline import detect
from raildet.synth import synthesize_scene

images = [synthesize_scene(seed)[0] for seed in range(10)]
config = oracle_pipeline_config()
weights = {WEIGHTS}
for image in images:  # warm: lazy set-up and the BLAS threads
    detect(image, weights, config)
wall, cpu = time.perf_counter(), time.process_time()
for _ in range(3):
    for image in images:
        detect(image, weights, config)
print(json.dumps([time.perf_counter() - wall, time.process_time() - cpu]))
"""


def _loop_seconds(weights):
    """(wall, process CPU) seconds of 30 warm ``detect`` calls in a fresh
    interpreter, whose BLAS threads' state is its own."""
    src = str(Path(raildet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", LOOP.replace("{WEIGHTS}", weights)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


@needs_setter
def test_oracle_detect_uses_one_core():
    wall, cpu = _loop_seconds("build_oracle_weights(config)")
    assert cpu <= MAX_CPU_PER_WALL * wall, (cpu, wall)


@needs_workers
def test_dense_detect_leaves_the_second_core_idle_between_rpns():
    # the workers spin only through the RPN's own products
    wall, cpu = _loop_seconds("random_weights(0, k=config.anchors.k, bins=config.roi_bins)")
    assert cpu <= MAX_DENSE_CPU_PER_WALL * wall, (cpu, wall)
