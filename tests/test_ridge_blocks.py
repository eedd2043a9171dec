"""Property tests: the ridge fit accumulated over row blocks against one GEMM.

``RandomFeatureRidge.fit_embedded`` sums the gram ``H'(H*w)`` and target
``(H*w)'Y`` block by block, and a refit on the same embedded matrix updates
the sums of the previous fit by the rows that changed. The reference gathers
every chosen row and forms both with a single product. Row counts straddle
the block size ``B``.
"""

import gc
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
        expected = len(rows)
        if fitted is not None and not repeated:
            # an update subtracts the rows that left or changed and adds the
            # rows that entered or changed, when that is fewer than a fresh sum
            change = sum(fitted[r] != now.get(r) for r in fitted) + \
                sum(now[r] != fitted.get(r) for r in now)
            expected = min(change, expected)
        del summed[:]
        model.fit_embedded(H, y, w, rows)
        assert sum(summed) == expected
        fitted = None if repeated else now
        assert_matches_reference(model, H, y, w, rows, case)


def test_refit_sums_afresh_once_the_change_is_as_large_as_the_set():
    model = RandomFeatureRidge(2, 3, hidden_width=4, seed=0)
    H = model.embed(np.random.default_rng(0).normal(size=(8, 3)))
    summed = []
    accumulate = model._accumulate
    model._accumulate = lambda *args: (summed.append(list(args[-1])), accumulate(*args))

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


def test_fitted_model_does_not_keep_the_run_embedding_alive():
    embedded = []

    class Ridge(RandomFeatureRidge):
        def embed(self, X):
            H = super().embed(X)
            embedded.append(weakref.ref(H))
            return H

    labeled, unlabeled, test = split_ssl(make_blobs(4, 60, 2, 0.5, 3), 4, 0.25, 3)
    model, _ = st_train(labeled, unlabeled, test, Ridge(4, 2, hidden_width=16, seed=3),
                        SelfTrainConfig(mode="st", rounds=4, seed=3))
    gc.collect()
    assert model._held is not None  # the last fit's sums, ready for a refit
    assert len(embedded) == 3  # training, test and round 0's labeled rows
    assert all(ref() is None for ref in embedded)
