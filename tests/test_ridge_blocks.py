"""Property tests: the ridge fit and scores formed over row blocks against one GEMM.

``RandomFeatureRidge.fit_embedded`` sums the gram ``H'(H*w)`` and target
``(H*w)'Y`` block by block, and a refit on the same embedded matrix updates
the sums of the previous fit by the rows that changed. The reference gathers
every chosen row and forms both with a single product. Row counts straddle
the block size ``B``. Scoring runs over blocks of its own size, set by
``classifiers.SCORE_BLOCK`` bytes; the fit's blocks stay ``block_rows`` rows.
A fit on fewer rows than ``hidden_width`` solves the n x n dual system
instead, sums no gram and holds nothing; its weights are checked against the
same primal reference.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selftrain import classifiers
from selftrain.classifiers import RandomFeatureRidge, one_hot
from selftrain.data import make_blobs, split_ssl
from selftrain.training import SelfTrainConfig, st_train

DEFAULT_BLOCK = RandomFeatureRidge.block_rows


def reference_normal_equations(H, y, w, rows, class_count, ridge_lambda):
    Hs = H[rows]
    Hw = Hs * w[:, None]
    gram = Hs.T @ Hw + ridge_lambda * np.eye(H.shape[1])
    return gram, Hw.T @ one_hot(y, class_count)


@st.composite
def blocked_fits(draw):
    block = draw(st.sampled_from([1, 3, 8, 64, DEFAULT_BLOCK]))
    pseudo = draw(st.sampled_from([0, block - 1, block, block + 1, 3 * block + 7]))
    return {
        "block": block,
        "pseudo": pseudo,
        "labeled": draw(st.integers(0, 12)),
        "pool": draw(st.integers(1, 3 * block + 20)),
        "repeats": draw(st.booleans()),
        "width": draw(st.integers(1, 16)),
        "class_count": draw(st.integers(2, 5)),
        "input_dim": draw(st.integers(1, 6)),
        # the weights comparison measures summation order, not conditioning
        "ridge_lambda": draw(st.sampled_from([0.1, 1.0, 10.0])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(blocked_fits())
def test_blocked_fit_matches_single_gemm(case):
    rng = np.random.default_rng(case["seed"])
    model = RandomFeatureRidge(case["class_count"], case["input_dim"],
                               hidden_width=case["width"],
                               ridge_lambda=case["ridge_lambda"], seed=case["seed"] % 1000)
    model.block_rows = case["block"]
    n = case["pool"] + case["labeled"]
    H = model.embed(rng.normal(size=(n, case["input_dim"])) * 2.0)

    # labeled rows first, then pseudo rows: shuffled, repeated when asked
    labeled = np.arange(case["labeled"])
    if case["repeats"]:
        pseudo = rng.integers(0, n, case["pseudo"])
    else:
        pseudo = rng.permutation(np.resize(np.arange(case["labeled"], n), case["pseudo"]))
    rows = np.concatenate([labeled, pseudo])
    y = rng.integers(0, case["class_count"], len(rows))
    w = np.concatenate([np.ones(len(labeled)), rng.uniform(0.01, 1.0, len(pseudo))])

    gram, target = model._normal_equations(H, y, w, rows)
    ref_gram, ref_target = reference_normal_equations(
        H, y, w, rows, case["class_count"], case["ridge_lambda"])
    assert np.linalg.norm(gram - ref_gram) <= 1e-12 * np.linalg.norm(ref_gram)
    assert np.linalg.norm(target - ref_target) <= 1e-12 * max(np.linalg.norm(ref_target),
                                                              1e-300)

    model.fit_embedded(H, y, w, rows)
    ref_weights = np.linalg.solve(ref_gram, ref_target)
    assert np.abs(model.weights - ref_weights).max() <= 1e-10 * np.abs(ref_weights).max()
    residual = np.linalg.norm(ref_gram @ model.weights - ref_target)
    assert residual <= 1e-6 * np.linalg.norm(ref_target)


STEPS = ("add", "drop", "relabel", "reweight", "repeat", "empty", "new_matrix", "raw_fit")


@st.composite
def fit_sequences(draw):
    block = draw(st.sampled_from([1, 3, 8, 64, DEFAULT_BLOCK]))
    return {
        "block": block,
        "labeled": draw(st.integers(0, 12)),
        "pool": draw(st.integers(1, min(3 * block + 20, 400))),
        "steps": draw(st.lists(st.tuples(st.sampled_from(STEPS), st.floats(0.0, 1.0)),
                               min_size=1, max_size=15)),
        "width": draw(st.integers(1, 16)),
        "class_count": draw(st.integers(2, 5)),
        "input_dim": draw(st.integers(1, 6)),
        "ridge_lambda": draw(st.sampled_from([0.1, 1.0, 10.0])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def assert_matches_reference(model, H, y, w, rows, case):
    ref_gram, ref_target = reference_normal_equations(
        H, y, w, rows, case["class_count"], case["ridge_lambda"])
    ref_weights = np.linalg.solve(ref_gram, ref_target)
    assert np.abs(model.weights - ref_weights).max() <= \
        1e-10 * max(np.abs(ref_weights).max(), 1e-300)
    # a repeat call changes no row, so it returns the sums the fit solved
    gram, target = model._normal_equations(H, y, w, rows)
    assert np.linalg.norm(gram - ref_gram) <= 1e-12 * np.linalg.norm(ref_gram)
    assert np.linalg.norm(target - ref_target) <= 1e-12 * max(np.linalg.norm(ref_target),
                                                              1e-300)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fit_sequences())
def test_refits_on_one_matrix_match_single_gemm(case):
    rng = np.random.default_rng(case["seed"])
    C, n_l = case["class_count"], case["labeled"]
    n = n_l + case["pool"]
    model = RandomFeatureRidge(C, case["input_dim"], hidden_width=case["width"],
                               ridge_lambda=case["ridge_lambda"], seed=case["seed"] % 1000)
    model.block_rows = case["block"]
    summed = []
    accumulate = model._accumulate

    def counted(gram, target, H, y, w, rows):
        summed.append(len(H) if rows is None else len(rows))
        return accumulate(gram, target, H, y, w, rows)

    model._accumulate = counted

    def features():
        return rng.normal(size=(n, case["input_dim"])) * 2.0

    H = model.embed(features())
    labeled_y = rng.integers(0, C, n_l)
    pseudo = {}  # pseudo row -> (label, weight): the set the next call fits
    fitted = None  # the (row, label, weight) set of the last fit on H, if held
    for step, share in case["steps"]:
        absent = np.setdiff1d(np.arange(n_l, n), list(pseudo))
        present = np.array(sorted(pseudo), dtype=np.int64)
        k_in, k_out = round(share * len(absent)), max(1, round(share * len(present)))
        if step == "add":
            for r in rng.choice(absent, k_in, replace=False):
                pseudo[int(r)] = (int(rng.integers(C)), float(rng.uniform(0.01, 1.0)))
        elif step == "drop" and len(present):
            for r in rng.choice(present, k_out, replace=False):
                del pseudo[int(r)]
        elif step in ("relabel", "reweight") and len(present):
            for r in rng.choice(present, k_out, replace=False):
                label, weight = pseudo[int(r)]
                pseudo[int(r)] = ((label + 1 + int(rng.integers(C - 1))) % C, weight) \
                    if step == "relabel" else (label, float(rng.uniform(0.01, 1.0)))
        elif step == "empty":
            pseudo = {}
        elif step == "new_matrix":
            H = model.embed(features())
            fitted = None
        elif step == "raw_fit":
            X = features()[:1 + int(share * (n - 1))]
            y = rng.integers(0, C, len(X))
            w = rng.uniform(0.01, 1.0, len(X))
            model.fit(X, y, w)
            Hx = model.embed(X)
            assert_matches_reference(model, Hx, y, w, np.arange(len(X)), case)
            fitted = None
            continue

        order = rng.permutation(sorted(pseudo))
        rows = np.concatenate([np.arange(n_l), order]).astype(np.int64)
        y = np.concatenate([labeled_y, [pseudo[r][0] for r in order]]).astype(np.int64)
        w = np.concatenate([np.ones(n_l), [pseudo[r][1] for r in order]])
        if step == "repeat" and len(rows):
            extra = rng.choice(rows, 1 + int(share * len(rows)))
            rows = np.concatenate([rows, extra])
            y = np.concatenate([y, rng.integers(0, C, len(extra))])
            w = np.concatenate([w, rng.uniform(0.01, 1.0, len(extra))])

        now = {int(r): (int(a), float(b)) for r, a, b in zip(rows, y, w)}
        repeated = len(now) < len(rows)
        dual = len(rows) < case["width"]
        expected = 0 if dual else len(rows)  # a dual fit sums no gram
        if fitted is not None and not repeated and not dual:
            # an update subtracts the rows that left or changed and adds the
            # rows that entered or changed, when that is fewer than a fresh sum
            change = sum(fitted[r] != now.get(r) for r in fitted) + \
                sum(now[r] != fitted.get(r) for r in now)
            expected = min(change, expected)
        del summed[:]
        model.fit_embedded(H, y, w, rows)
        assert sum(summed) == expected
        assert (model._held is None) == (dual or repeated)
        # after a dual fit, the reference check's own call holds this set's sums
        fitted = None if repeated else now
        assert_matches_reference(model, H, y, w, rows, case)


def counting_accumulate(model):
    """Record the rows of every ``_accumulate`` call of ``model``."""
    summed = []
    accumulate = model._accumulate
    model._accumulate = lambda *args: (summed.append(list(args[-1])), accumulate(*args))
    return summed


def test_refit_sums_afresh_once_the_change_is_as_large_as_the_set():
    # every fit has at least hidden_width rows, so every fit is primal
    model = RandomFeatureRidge(2, 3, hidden_width=2, seed=0)
    H = model.embed(np.random.default_rng(0).normal(size=(8, 3)))
    summed = counting_accumulate(model)

    def rows_summed(rows):
        del summed[:]
        model.fit_embedded(H, np.zeros(len(rows), np.int64), np.ones(len(rows)),
                           np.array(rows))
        return summed

    assert rows_summed([0, 1]) == [[0, 1]]
    # 1 left and 2 entered are no fewer than 3 chosen: summed afresh
    assert rows_summed([0, 2, 3]) == [[0, 2, 3]]
    assert rows_summed([0, 2, 3, 4]) == [[], [4]]  # subtract none, add one
    assert rows_summed([4, 3, 2, 0]) == [[], []]  # the same set, in another order
    assert rows_summed([4, 3, 1, 0]) == [[2], [1]]


@st.composite
def dual_fits(draw):
    width = draw(st.integers(2, 64))
    return {
        "width": width,
        "rows": draw(st.integers(1, width - 1)),
        "n": draw(st.integers(1, 80)),
        "repeats": draw(st.booleans()),
        "class_count": draw(st.integers(2, 5)),
        "input_dim": draw(st.integers(1, 6)),
        "ridge_lambda": draw(st.sampled_from([0.1, 1.0, 10.0])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dual_fits())
def test_dual_fit_matches_the_primal_solve(case):
    rng = np.random.default_rng(case["seed"])
    C, k = case["class_count"], case["rows"]
    model = RandomFeatureRidge(C, case["input_dim"], hidden_width=case["width"],
                               ridge_lambda=case["ridge_lambda"], seed=case["seed"] % 1000)
    H = model.embed(rng.normal(size=(case["n"], case["input_dim"])) * 2.0)
    if case["repeats"]:
        rows = rng.integers(0, case["n"], k)
    else:
        rows = rng.permutation(np.resize(np.arange(case["n"]), k))
    y = rng.integers(0, C, k)
    w = rng.uniform(0.01, 1.0, k)
    model._accumulate = None  # a dual fit sums no gram
    model.fit_embedded(H, y, w, rows)
    assert model._held is None
    ref_gram, ref_target = reference_normal_equations(H, y, w, rows, C, case["ridge_lambda"])
    ref_weights = np.linalg.solve(ref_gram, ref_target)
    assert np.abs(model.weights - ref_weights).max() <= 1e-10 * np.abs(ref_weights).max()
    residual = np.linalg.norm(ref_gram @ model.weights - ref_target)
    assert residual <= 1e-6 * np.linalg.norm(ref_target)


def test_unit_weight_dual_fit_is_the_plain_dual_solve():
    width, lam = 32, 0.01
    model = RandomFeatureRidge(4, 3, hidden_width=width, ridge_lambda=lam, seed=2)
    rng = np.random.default_rng(2)
    H = model.embed(rng.normal(size=(50, 3)))
    for rows in (None, rng.integers(0, 50, 31), np.arange(0, 50, 2)):
        Hs = H[:31] if rows is None else H[rows]
        y = rng.integers(0, 4, len(Hs))
        alpha = np.linalg.solve(Hs @ Hs.T + lam * np.eye(len(Hs)), one_hot(y, 4))
        expected = Hs.T @ alpha
        for w in (None, np.ones(len(Hs))):
            if rows is None:
                model.fit_embedded(Hs, y, w)
            else:
                model.fit_embedded(H, y, w, rows)
            assert np.array_equal(model.weights, expected)


def test_fits_below_hidden_width_rows_are_dual():
    width = 6
    model = RandomFeatureRidge(3, 2, hidden_width=width, seed=4)
    H = model.embed(np.random.default_rng(4).normal(size=(20, 2)))
    summed = counting_accumulate(model)
    y = np.arange(20) % 3
    model.fit_embedded(H, y[:width], rows=np.arange(width))
    assert summed == [list(range(width))] and model._held is not None
    del summed[:]
    model.fit_embedded(H, y[:width - 1], rows=np.arange(width - 1))
    assert summed == [] and model._held is None
    # repeats count: width rows over fewer distinct ones are primal, held by none
    model.fit_embedded(H, y[:width], rows=np.zeros(width, dtype=np.intp))
    assert summed == [[0] * width] and model._held is None
    del summed[:]
    model.fit_embedded(H[:width - 1], y[:width - 1])
    assert summed == [] and model._held is None


def test_primal_fit_after_a_dual_fit_sums_afresh_then_updates():
    model = RandomFeatureRidge(2, 3, hidden_width=4, seed=0)
    H = model.embed(np.random.default_rng(0).normal(size=(12, 3)))
    summed = counting_accumulate(model)

    def rows_summed(rows):
        del summed[:]
        model.fit_embedded(H, np.arange(len(rows)) % 2, np.ones(len(rows)), np.array(rows))
        return summed

    assert rows_summed([0, 1, 2, 3, 4, 5]) == [[0, 1, 2, 3, 4, 5]]
    assert rows_summed([0, 1, 2]) == []  # dual
    # the dual fit dropped the sums held for these six rows: summed afresh
    assert rows_summed([0, 1, 2, 3, 4, 5]) == [[0, 1, 2, 3, 4, 5]]
    assert rows_summed([0, 1, 2, 3, 4, 5, 6]) == [[], [6]]  # subtract none, add one
    ref_gram, ref_target = reference_normal_equations(
        H, np.arange(7) % 2, np.ones(7), np.arange(7), 2, model.ridge_lambda)
    ref_weights = np.linalg.solve(ref_gram, ref_target)
    assert np.abs(model.weights - ref_weights).max() <= 1e-10 * np.abs(ref_weights).max()


def test_fitted_model_does_not_keep_the_run_embedding_alive():
    embedded = []

    class Ridge(RandomFeatureRidge):
        def embed(self, *parts):
            H = super().embed(*parts)
            embedded.append(weakref.ref(H))
            return H

    labeled, unlabeled, test = split_ssl(make_blobs(4, 60, 2, 0.5, 3), 4, 0.25, 3)
    model, _ = st_train(labeled, unlabeled, test, Ridge(4, 2, hidden_width=16, seed=3),
                        SelfTrainConfig(mode="st", rounds=4, seed=3))
    gc.collect()
    assert model._held is not None  # the last fit's sums, ready for a refit
    assert len(embedded) == 3  # training, test and round 0's labeled rows
    assert all(ref() is None for ref in embedded)


def score_rows(width):
    """Rows per scoring block at ``width`` embedded features."""
    return max(1, classifiers.SCORE_BLOCK // (8 * width))


@st.composite
def scored_pools(draw):
    width = draw(st.integers(1, 16))
    block = draw(st.sampled_from([1, 3, 8, 64, score_rows(width)]))
    return {
        "width": width,
        "block": block,
        "n": draw(st.sampled_from([1, block - 1, block, block + 1, 3 * block + 7]).filter(
            lambda n: n >= 1)),
        "share": draw(st.sampled_from([0.0, 0.2, 0.6, 1.0])),
        "shuffled": draw(st.booleans()),
        "class_count": draw(st.integers(2, 12)),
        "input_dim": draw(st.integers(1, 6)),
        "temperature": draw(st.sampled_from([0.05, 0.2, 1.0])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scored_pools())
def test_blocked_scores_match_single_gemm(case):
    rng = np.random.default_rng(case["seed"])
    C, width, n = case["class_count"], case["width"], case["n"]
    model = RandomFeatureRidge(C, case["input_dim"], hidden_width=width,
                               temperature=case["temperature"], seed=case["seed"] % 1000)
    H = model.embed(rng.normal(size=(n, case["input_dim"])) * 2.0)
    model.fit_embedded(H, rng.integers(0, C, n))
    members = np.sort(rng.choice(n, max(1, round(case["share"] * n)), replace=False))
    if case["shuffled"]:
        members = rng.permutation(members)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifiers, "SCORE_BLOCK", case["block"] * 8 * width)
        for rows in (None, members):  # the whole matrix, then gathered rows
            Hs = H if rows is None else H[rows]
            ref = Hs @ model.weights / model.temperature
            classifiers._softmax_into(ref.T)  # over the classes of each row
            got = model.predict_proba_embedded(H, rows)
            assert got.shape == ref.shape
            assert (np.abs(got - ref) <= 1e-12 * ref.max(axis=1, keepdims=True)).all()
            # block by block, each score is the product of its block's rows
            B = case["block"]
            blocked = np.concatenate([Hs[i:i + B] @ model.weights for i in range(0, len(Hs), B)])
            assert np.array_equal(model._scores(H, rows), blocked)


def test_fit_sums_over_block_rows_and_scoring_over_score_block():
    width, fit_rows = 64, RandomFeatureRidge.block_rows
    step = score_rows(width)
    assert step == 1024  # half a megabyte of 64-wide rows
    model = RandomFeatureRidge(3, 4, hidden_width=width, seed=5)
    rng = np.random.default_rng(5)
    n = 2 * fit_rows + 100
    H = model.embed(rng.normal(size=(n, 4)))
    y, w = rng.integers(0, 3, n), rng.uniform(0.1, 1.0, n)
    blocks = []
    make_block = model._block

    def spy(H, rows, start, stop, buf):
        blocks.append(stop - start)
        return make_block(H, rows, start, stop, buf)

    model._block = spy
    model.fit_embedded(H, y, w)
    assert blocks == [fit_rows, fit_rows, 100]
    # the sums of those blocks, in order, solve to the same bits
    gram, target = np.zeros((width, width)), np.zeros((width, 3))
    for start in range(0, n, fit_rows):
        Hb = H[start:start + fit_rows]
        Hw = Hb * w[start:start + fit_rows, None]
        gram += Hb.T @ Hw
        target += Hw.T @ one_hot(y[start:start + fit_rows], 3)
    weights = np.linalg.solve(gram + model.ridge_lambda * np.eye(width), target)
    assert np.array_equal(model.weights, weights)

    for rows in (None, np.arange(0, n, 2)):
        del blocks[:]
        model.predict_proba_embedded(H, rows)
        m = n if rows is None else len(rows)
        # scoring blocks may run on two threads, so they may finish in any order
        assert sorted(blocks) == sorted([step] * (m // step) + ([m % step] if m % step else []))
