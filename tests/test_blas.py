"""One BLAS thread around small products, and the RPN rule that uses it.

OpenBLAS keeps its extra threads spinning between calls, so on the oracle
path, whose only threaded products are the RPN's ~14 MFLOP, a second thread
doubled the process CPU time of ``detect`` and gained no wall time.
"""
import dataclasses
import json
import os
import subprocess
import sys
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


class FakeBlas:
    def __init__(self, threads):
        self.threads = threads
        self.sets = []

    def get(self):
        return self.threads

    def set(self, n):
        self.sets.append(n)
        self.threads = n


@pytest.fixture
def fake(monkeypatch):
    lib = FakeBlas(2)
    monkeypatch.setattr(blas, "_api", lambda: (lib.get, lib.set))
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

    @pytest.mark.skipif(not blas.found(), reason="numpy's OpenBLAS thread-count setter not found")
    def test_numpys_openblas(self):
        get, _ = blas._api()
        before = get()
        with blas.single_thread():
            assert get() == 1
        assert get() == before


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


@pytest.mark.parametrize("stride", model.BACKBONE_STRIDES)
def test_only_small_rpn_products_run_on_one_thread(stride, monkeypatch):
    # a 256-channel head's bits depend on the BLAS thread count, so it must
    # keep the caller's count; the oracle head keeps 19 live channels
    entered = []

    @contextmanager
    def recording():
        entered.append(True)
        yield

    monkeypatch.setattr(blas, "single_thread", recording)
    fm = extract_features(synthesize_scene(0)[0], stride)
    for name, head in _heads(stride).items():
        entered.clear()
        rpn_forward(fm, head)
        assert entered == ([True] if name == "oracle" else []), name


LOOP = """
import json, time
from raildet.oracle import build_oracle_weights, oracle_pipeline_config
from raildet.pipeline import detect
from raildet.synth import synthesize_scene

images = [synthesize_scene(seed)[0] for seed in range(10)]
config = oracle_pipeline_config()
weights = build_oracle_weights(config)
for image in images:  # warm: lazy set-up and the BLAS threads
    detect(image, weights, config)
wall, cpu = time.perf_counter(), time.process_time()
for _ in range(3):
    for image in images:
        detect(image, weights, config)
print(json.dumps([time.perf_counter() - wall, time.process_time() - cpu]))
"""


@pytest.mark.skipif(not blas.found(), reason="numpy's OpenBLAS thread-count setter not found")
def test_oracle_detect_uses_one_core():
    # a fresh interpreter: the BLAS threads' state is the process's own
    src = str(Path(raildet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", LOOP], capture_output=True, text=True,
                          env=env, check=True)
    wall, cpu = json.loads(proc.stdout)
    assert cpu <= MAX_CPU_PER_WALL * wall, (cpu, wall)
