"""The ridge's embedding and scoring blocks, run on the caller and one worker thread.

``RandomFeatureRidge.embed`` and ``_scores`` split their rows into blocks of
``classifiers.SCORE_BLOCK`` bytes and hand them to ``blocks._share_blocks``,
which runs them on the calling thread and on the process's worker thread. A
block's rows and operations are fixed by its index, so every output must be
byte-identical whichever thread ran a block and whether a worker exists.
``RandomFeatureRidge.embed`` takes several parts of rows as if stacked. The
shared path is forced on, or off, by patching the CPU count the worker
checks.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import selftrain
from selftrain import bench, blocks, classifiers
from selftrain.blocks import _share_blocks
from selftrain.classifiers import RandomFeatureRidge, SoftmaxSGD, _block_rows


def cpus(monkeypatch, count):
    """Force the shared path (``count`` 2) or the inline one (1). The worker
    starts without rest and never rests, however little CPU a call gets."""
    monkeypatch.setattr(blocks, "_usable_cpus", lambda: count)
    monkeypatch.setattr(blocks, "MIN_CPU_SHARE", 0.0)
    worker = blocks._block_worker()
    if worker is not None:
        monkeypatch.setattr(worker, "rest", 0)
        monkeypatch.setattr(worker, "next_rest", blocks.REST_CALLS)


def fitted(width, class_count, n, seed=0):
    """A fitted ridge of ``width`` features, ``n`` random 3-D rows and their
    embedding."""
    rng = np.random.default_rng(seed)
    model = RandomFeatureRidge(class_count, 3, hidden_width=width, seed=seed)
    model.fit(rng.normal(size=(40, 3)) * 2.0, rng.integers(0, class_count, 40))
    X = rng.normal(size=(n, 3)) * 2.0
    return model, X, model.embed(X)


@pytest.mark.parametrize("input_dim", [2, 7, 50])
@pytest.mark.parametrize("width", [2, 50, 64, 512, 784])
def test_embed_equals_one_product(width, input_dim):
    rng = np.random.default_rng(width)
    model = RandomFeatureRidge(3, input_dim, hidden_width=width, seed=width)
    step = _block_rows(width)
    for n in (0, 1, step - 1, step, step + 1, 2 * step - 1, 3 * step + 5):
        X = rng.normal(size=(n, input_dim))
        H = model.embed(X)
        assert H.shape == (n, width) and H.flags.c_contiguous
        assert H.tobytes() == np.tanh(X @ model.projection + model.bias).tobytes()


@pytest.mark.parametrize("class_count", [2, 4, 10])
@pytest.mark.parametrize("width", [2, 50, 64, 512, 784])
@pytest.mark.parametrize("case", ["0", "1", "b-1", "b", "b+1", "10b+7"])
def test_shared_path_equals_inline_path(monkeypatch, width, class_count, case):
    step = _block_rows(width)
    n = {"0": 0, "1": 1, "b-1": step - 1, "b": step, "b+1": step + 1,
         "10b+7": 10 * step + 7}[case]
    model, X, H = fitted(width, class_count, n, seed=width + class_count)
    rng = np.random.default_rng(n)
    chosen = [None]
    if n:
        members = np.sort(rng.choice(n, max(1, n // 2), replace=False))
        repeated = rng.integers(0, n, size=n + step // 2)
        chosen += [members, rng.permutation(members), repeated]

    outputs = {}
    for count in (1, 2):
        cpus(monkeypatch, count)
        outputs[count] = [model.embed(X)]
        for rows in chosen:
            outputs[count] += [model._scores(H, rows), model.predict_proba_embedded(H, rows)]
    for inline, shared in zip(outputs[1], outputs[2]):
        assert inline.shape == shared.shape
        assert inline.tobytes() == shared.tobytes()


def both_threads_run_blocks():
    """Whether the caller and the worker each run a block of one call."""
    threads, other = set(), threading.Event()
    caller = threading.get_ident()

    def block(i):
        threads.add(threading.get_ident())
        if threading.get_ident() != caller:
            other.set()
        elif i == 0:
            # hold the caller until the worker has taken a block of its own
            other.wait(10)

    _share_blocks(8, lambda: block)
    return len(threads) == 2


def test_two_threads_run_blocks_on_two_cpus(monkeypatch):
    cpus(monkeypatch, 2)
    assert both_threads_run_blocks()


def test_a_starved_caller_rests_the_worker(monkeypatch):
    """A caller that was on a CPU for less than ``MIN_CPU_SHARE`` of its
    blocks' wall time runs the next ``REST_CALLS`` calls alone."""
    cpus(monkeypatch, 2)
    monkeypatch.setattr(blocks, "MIN_CPU_SHARE", 0.75)
    worker, caller = blocks._block_worker(), threading.get_ident()
    _share_blocks(8, lambda: lambda i: time.sleep(0.002))  # sleeping takes no CPU
    assert worker.rest == blocks.REST_CALLS
    for _ in range(blocks.REST_CALLS):
        threads = set()
        _share_blocks(8, lambda: lambda i: threads.add(threading.get_ident()))
        assert threads == {caller}
    assert worker.rest == 0
    assert both_threads_run_blocks()


def test_the_rest_doubles_while_calls_keep_starving(monkeypatch):
    """Each starved call that ends a rest starts one twice as long; a call that
    is not starved brings the next rest back to ``REST_CALLS``."""
    cpus(monkeypatch, 2)
    monkeypatch.setattr(blocks, "MIN_CPU_SHARE", 0.75)
    worker = blocks._block_worker()

    def starved():
        _share_blocks(8, lambda: lambda i: time.sleep(0.002))  # sleeping takes no CPU

    for rest in (1, 2, 4):
        starved()
        assert worker.rest == rest * blocks.REST_CALLS
        for _ in range(worker.rest):
            _share_blocks(8, lambda: lambda i: None)
        assert worker.rest == 0
    monkeypatch.setattr(blocks, "MIN_CPU_SHARE", 0.0)
    starved()  # judged, and not starved at a share of 0
    assert worker.rest == 0 and worker.next_rest == blocks.REST_CALLS
    monkeypatch.setattr(blocks, "MIN_CPU_SHARE", 0.75)
    starved()
    assert worker.rest == blocks.REST_CALLS


def test_one_cpu_runs_every_block_on_the_caller(monkeypatch):
    cpus(monkeypatch, 1)
    threads = []
    _share_blocks(50, lambda: lambda i: threads.append(threading.get_ident()))
    assert threads == [threading.get_ident()] * 50


@pytest.mark.parametrize("count", [1, 2])
def test_every_block_runs_once_under_contention(monkeypatch, count):
    """Six callers on one worker, switching threads as often as the interpreter
    allows: a block claimed twice, or lost, breaks the counts."""
    cpus(monkeypatch, count)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [[0] * 100 for _ in range(6)]

        def share(counts):
            def block(i):
                counts[i] += 1
            for _ in range(5):
                _share_blocks(100, lambda: block)

        callers = [threading.Thread(target=share, args=(counts,)) for counts in runs]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
        assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(interval)
    assert runs == [[5] * 100] * 6


@pytest.mark.parametrize("count", [1, 2])
def test_a_failing_block_reaches_the_caller(monkeypatch, count):
    cpus(monkeypatch, count)
    model, X, H = fitted(64, 4, 10 * _block_rows(64) + 7, seed=3)
    want_H, want_scores = model.embed(X), model._scores(H)
    gather = model._block

    def failing(H, rows, start, stop, buf):
        if start == 3 * _block_rows(64):
            raise FloatingPointError("block 3")
        return gather(H, rows, start, stop, buf)

    with monkeypatch.context() as mp:
        mp.setattr(model, "_block", failing)
        with pytest.raises(FloatingPointError, match="block 3"):
            model._scores(H)
        with pytest.raises(FloatingPointError, match="block 3"):
            model.predict_proba_embedded(H, np.arange(len(H))[::-1])
    with monkeypatch.context() as mp:
        real_tanh = np.tanh

        def tanh(x, out=None):
            if len(x) > _block_rows(64):  # the last block, which takes the rest
                raise MemoryError("last block")
            return real_tanh(x, out=out)

        mp.setattr(classifiers.np, "tanh", tanh)
        with pytest.raises(MemoryError, match="last block"):
            model.embed(X)
    # the next calls run every block again
    assert model.embed(X).tobytes() == want_H.tobytes()
    assert model._scores(H).tobytes() == want_scores.tobytes()


def test_an_exception_on_the_worker_reaches_the_caller(monkeypatch):
    cpus(monkeypatch, 2)
    caller = threading.get_ident()
    failed, ran = threading.Event(), []

    def block(i):
        if threading.get_ident() != caller:
            failed.set()
            raise KeyError("worker")
        # hold the caller until the worker has failed
        assert failed.wait(10)
        ran.append(i)

    with pytest.raises(KeyError, match="worker"):
        _share_blocks(20, lambda: block)
    assert len(ran) <= 1  # the failure stopped the claiming


def test_a_worker_of_another_process_is_replaced(monkeypatch):
    """A forked process inherits the parent's executor without its thread."""
    cpus(monkeypatch, 2)
    dead = blocks.concurrent.futures.ThreadPoolExecutor(1)
    dead.shutdown()
    stale = blocks._Worker()
    stale.pid, stale.executor = os.getpid() + 1, dead
    monkeypatch.setattr(blocks, "_worker", stale)
    ran = []
    _share_blocks(10, lambda: ran.append)
    assert sorted(ran) == list(range(10))
    assert blocks._worker.pid == os.getpid()


def stacked_cases(step):
    """(n_l, n_u) pairs around the block boundaries of ``step``-row blocks."""
    sizes = (0, 1, step - 1, step, step + 1, 3 * step + 5)
    return [(n_l, n_u) for n_l in sizes for n_u in (0, 1, step, 3 * step + 5)]


@pytest.mark.parametrize("width", [64, 512])
def test_embedding_from_parts_equals_the_stacked_embedding(monkeypatch, width):
    rng = np.random.default_rng(width)
    model = RandomFeatureRidge(10, 50, hidden_width=width, seed=width)
    step = _block_rows(width)
    for count in (1, 2):
        cpus(monkeypatch, count)
        for n_l, n_u in stacked_cases(step):
            X_l, X_u = rng.normal(size=(n_l, 50)), rng.normal(size=(n_u, 50))
            want = model.embed(np.vstack([X_l, X_u]))
            H = model.embed(X_l, X_u)
            assert H.shape == want.shape and H.tobytes() == want.tobytes(), (n_l, n_u)
        # three parts, one block spanning all three
        parts = [rng.normal(size=(n, 50)) for n in (step - 2, 3, 2 * step)]
        H = model.embed(*parts)
        assert H.tobytes() == model.embed(np.vstack(parts)).tobytes()


def test_embedding_from_parts_checks_every_part():
    model = RandomFeatureRidge(3, 4, hidden_width=8)
    with pytest.raises(ValueError, match="expected 4 input features, got 3"):
        model.embed(np.zeros((5, 4)), np.zeros((5, 3)))


def test_the_default_embedding_stacks_the_parts():
    """Backbones without their own ``embed`` embed the stacked rows as float64."""
    model = SoftmaxSGD(3, 4)
    parts = [np.arange(8).reshape(2, 4), np.ones((3, 4))]
    H = model.embed(*parts)
    assert H.dtype == np.float64 and H.tobytes() == np.vstack(parts).astype(float).tobytes()
    X = np.ones((3, 4))
    assert model.embed(X) is X  # one float64 part is not copied


POOL_AFTER_WORKER = """
import json, sys
from selftrain import bench, blocks
blocks._usable_cpus = lambda: 2
config = bench.validate_config(bench.preset_config("blobs-small", sys.argv[1]))
bench.execute_task(config, 1, "st")
assert blocks._worker is not None, "the block worker did not start"
code, doc = bench.run(config, workers=2, out_dir=sys.argv[1])
print(json.dumps(bench.report_deterministic_view(doc)))
"""


def test_process_pool_after_the_worker_started(tmp_path):
    """Pool processes forked after the block worker started still run their
    cells, and report what an in-process run does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(selftrain.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", POOL_AFTER_WORKER, str(tmp_path / "pool")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    pooled = json.loads(done.stdout.splitlines()[-1])
    config = bench.validate_config(bench.preset_config("blobs-small", str(tmp_path / "one")))
    _, doc = bench.run(config, workers=1, out_dir=str(tmp_path / "one"))
    inline = json.loads(json.dumps(bench.report_deterministic_view(doc)))
    for key in ("cells", "aggregates"):
        assert pooled[key] == inline[key]
