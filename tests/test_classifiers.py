import pickle
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selftrain.classifiers import (RandomFeatureRidge, SoftmaxSGD, _softmax_into, one_hot,
                                   softmax_loss_and_grad, top_class)
from selftrain.data import UnlabeledSet
from selftrain.training import PseudoPool, pseudo_label_pool


def central_difference_grads(loss_fn, params, eps=1e-6):
    """Finite-difference gradient of loss_fn over a list of arrays."""
    grads = []
    for arr in params:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gf = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn()
            flat[i] = orig - eps
            down = loss_fn()
            flat[i] = orig
            gf[i] = (up - down) / (2 * eps)
        grads.append(g)
    return grads


def softmax(logits):
    """Row-wise softmax of a copy of ``logits``, by the class-major kernel
    on its transpose."""
    z = np.array(logits, dtype=np.float64)
    _softmax_into(z.T)
    return z


def predict(model, X):
    return top_class(model.predict_proba(X))[1]


class TestSoftmaxFunction:
    def test_hand_ratio(self):
        probs = softmax(np.array([[1.0, 1.0 + np.log(2.0)]]))
        np.testing.assert_allclose(probs[0], [1 / 3, 2 / 3], atol=1e-12)

    def test_rows_sum_to_one_on_extreme_logits(self):
        rng = np.random.default_rng(0)
        logits = rng.uniform(-500, 500, size=(50, 6))
        probs = softmax(logits)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def reference_softmax_top(s):
    """Row-wise numpy softmax, its row sum a left fold from +0.0 over the
    classes, then each row's max and first argmax."""
    z = s - s.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= reduce(np.add, z.T, 0.0)[:, None]
    return z, z.max(axis=1), z.argmax(axis=1)


@st.composite
def class_score_matrices(draw):
    """Score matrices with exact column ties, one-ulp neighbours and extreme scales.

    Class counts run past 8, where numpy's own row sum would turn pairwise. Row
    scales run from 1e-300 (exp rounds to 1 on every entry) to 800 (exp
    underflows to 0 away from the row max).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, c = draw(st.integers(1, 60)), draw(st.integers(2, 33))
    lo = draw(st.floats(-300, 2.9))
    hi = draw(st.floats(lo, 2.9))
    s = rng.standard_normal((n, c)) * 10.0 ** rng.uniform(lo, hi, (n, 1))
    for _ in range(draw(st.integers(0, 4))):
        i, j = rng.choice(c, 2, replace=False)
        picked = rng.random(n) < 0.5
        s[picked, j] = s[picked, i]  # an exact tie
        if draw(st.booleans()):
            # and one ulp above or below another column
            k = rng.integers(c)
            s[~picked, k] = np.nextafter(s[~picked, j],
                                         np.inf if draw(st.booleans()) else -np.inf)
    return s


def bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


class TestClassColumnPasses:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(class_score_matrices())
    def test_softmax_and_top_class_match_row_wise_numpy(self, s):
        proba, conf, label = reference_softmax_top(s)
        got = softmax(s)
        assert got.dtype == np.float64 and np.array_equal(bits(got), bits(proba))
        got_conf, got_label = top_class(got)
        assert np.array_equal(bits(got_conf), bits(conf))
        assert np.array_equal(got_label, label)
        raw_conf, raw_label = top_class(s)
        assert np.array_equal(bits(raw_conf), bits(s.max(axis=1)))
        assert np.array_equal(raw_label, s.argmax(axis=1))

    def test_ties_go_to_the_lowest_class(self):
        conf, label = top_class(np.array([[0.25, 0.25, 0.25, 0.25],
                                          [0.1, 0.45, 0.45, 0.0],
                                          [0.2, 0.2, 0.1, 0.5]]))
        assert label.tolist() == [0, 1, 3]
        assert conf.tolist() == [0.25, 0.45, 0.5]

    @pytest.mark.parametrize("model", [RandomFeatureRidge(10, 3, hidden_width=16, seed=2),
                                       SoftmaxSGD(10, 3, epochs=2, seed=2)])
    def test_predict_is_the_first_argmax(self, model):
        X = np.random.default_rng(2).normal(size=(200, 3))
        model.fit(X, np.arange(200) % 10)
        assert np.array_equal(predict(model, X), model.predict_proba(X).argmax(axis=1))


class TestRandomFeatureRidge:
    def test_pickled_copy_predicts_the_same_and_refits_afresh(self):
        model = RandomFeatureRidge(3, 2, hidden_width=8, seed=1)
        X = np.random.default_rng(1).normal(size=(30, 2))
        H = model.embed(X)
        y = np.arange(30) % 3
        model.fit_embedded(H, y[:20], rows=np.arange(20))
        copy = pickle.loads(pickle.dumps(model))
        np.testing.assert_array_equal(copy.predict_proba(X), model.predict_proba(X))
        copy.fit_embedded(H, y)
        model.fit_embedded(H, y)
        np.testing.assert_allclose(copy.weights, model.weights, rtol=1e-10, atol=1e-12)

    def test_labels_outside_the_classes_rejected(self):
        model = RandomFeatureRidge(3, 2, hidden_width=8)
        X = np.zeros((4, 2))
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="labels must lie in"):
                model.fit(X, np.array([0, 1, 2, bad]))

    def test_hidden_width_must_be_positive(self):
        with pytest.raises(ValueError, match="hidden_width"):
            RandomFeatureRidge(2, 3, hidden_width=0)

    def test_huge_lambda_shrinks_to_uniform(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 4, 30)
        model = RandomFeatureRidge(4, 3, hidden_width=32, ridge_lambda=1e12, seed=0)
        model.fit(X, y)
        probs = model.predict_proba(X)
        np.testing.assert_allclose(probs, 0.25, atol=1e-6)

    def test_separable_classes_fit_perfectly(self):
        X = np.concatenate([np.linspace(-2, -1, 20), np.linspace(1, 2, 20)])[:, None]
        y = np.array([0] * 20 + [1] * 20)
        model = RandomFeatureRidge(2, 1, hidden_width=8, seed=0)
        model.fit(X, y)
        assert np.mean(predict(model, X) == y) == 1.0

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            X = rng.normal(size=(50, 5))
            y = rng.integers(0, 3, 50)
            w = rng.uniform(0.2, 1.0, 50)
            model = RandomFeatureRidge(3, 5, hidden_width=24, seed=trial)
            model.fit(X, y, w)
            H = np.tanh(X @ model.projection + model.bias)
            Hw = H * w[:, None]
            lhs = (H.T @ Hw + model.ridge_lambda * np.eye(24)) @ model.weights
            rhs = Hw.T @ one_hot(y, 3)
            residual = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
            assert residual <= 1e-6

    def test_fit_is_the_objective_minimum(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        y = rng.integers(0, 3, 40)
        w = rng.uniform(0.5, 1.5, 40)
        model = RandomFeatureRidge(3, 4, hidden_width=16, seed=1)
        model.fit(X, y, w)
        H = np.tanh(X @ model.projection + model.bias)
        Y = one_hot(y, 3)

        def objective(B):
            return float((w * ((H @ B - Y) ** 2).sum(axis=1)).sum()
                         + model.ridge_lambda * (B ** 2).sum())

        base = objective(model.weights)
        for _ in range(10):
            bump = rng.normal(size=model.weights.shape)
            bump *= 1e-3 / np.linalg.norm(bump)
            assert objective(model.weights + bump) > base

    def test_projection_frozen_across_refits(self):
        rng = np.random.default_rng(4)
        model = RandomFeatureRidge(2, 3, hidden_width=8, seed=5)
        proj = model.projection.copy()
        for _ in range(3):
            model.fit(rng.normal(size=(20, 3)), rng.integers(0, 2, 20))
        assert np.array_equal(model.projection, proj)

    def test_refit_is_from_scratch(self):
        rng = np.random.default_rng(5)
        X1, y1 = rng.normal(size=(25, 2)), rng.integers(0, 2, 25)
        X2, y2 = rng.normal(size=(30, 2)), rng.integers(0, 2, 30)
        a = RandomFeatureRidge(2, 2, hidden_width=8, seed=6)
        a.fit(X1, y1)
        a.fit(X2, y2)
        b = RandomFeatureRidge(2, 2, hidden_width=8, seed=6)
        b.fit(X2, y2)
        assert np.array_equal(a.weights, b.weights)

    def test_unfitted_prediction_rejected(self):
        model = RandomFeatureRidge(2, 2, seed=0)
        with pytest.raises(ValueError, match="not fitted"):
            model.predict_proba(np.zeros((1, 2)))


def reference_sgd_fit(model, X, y, w):
    """SoftmaxSGD's epoch loop as it was when its loss check also took the full
    gradient; returns the epoch whose loss was not finite, or None."""
    lr = model.learning_rate
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(model.epochs):
            order = model._rng.permutation(len(X))
            for start in range(0, len(X), model.batch_size):
                sel = order[start:start + model.batch_size]
                _, g_w, g_b = softmax_loss_and_grad(model.weights, model.bias,
                                                    X[sel], y[sel], w[sel])
                model.weights -= lr * g_w
                model.bias -= lr * g_b
            loss, _, _ = softmax_loss_and_grad(model.weights, model.bias, X, y, w)
            if not np.isfinite(loss):
                return epoch
    return None


class TestSoftmaxSGD:
    def test_labels_outside_the_classes_rejected(self):
        model = SoftmaxSGD(2, 2, epochs=2)
        X = np.zeros((4, 2))
        for bad in (-1, 2):
            with pytest.raises(ValueError, match="labels must lie in"):
                model.fit(X, np.array([0, 1, 0, bad]))

    def test_zero_weights_uniform_and_tie_to_class_zero(self):
        model = SoftmaxSGD(2, 3, seed=0)
        X = np.random.default_rng(0).normal(size=(10, 3))
        probs = model.predict_proba(X)
        np.testing.assert_array_equal(probs, np.full((10, 2), 0.5))
        assert predict(model, X).tolist() == [0] * 10
        np.testing.assert_array_equal(model.predict_proba(X).max(axis=1), np.full(10, 0.5))

    def test_linear_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            X = rng.normal(size=(6, 4))
            y = rng.integers(0, 3, 6)
            w = rng.uniform(0.2, 1.0, 6)
            W = rng.normal(size=(4, 3))
            b = rng.normal(size=3)
            loss, g_w, g_b = softmax_loss_and_grad(W, b, X, y, w)
            num_w, num_b = central_difference_grads(
                lambda: softmax_loss_and_grad(W, b, X, y, w)[0], [W, b])
            assert np.linalg.norm(g_w - num_w) / max(np.linalg.norm(num_w), 1e-12) <= 1e-4
            assert np.linalg.norm(g_b - num_b) / max(np.linalg.norm(num_b), 1e-12) <= 1e-4

    def test_zero_epochs_is_identity(self):
        rng = np.random.default_rng(3)
        model = SoftmaxSGD(3, 2, epochs=0, seed=1)
        before = model.weights.copy()
        model.fit(rng.normal(size=(10, 2)), rng.integers(0, 3, 10))
        assert np.array_equal(model.weights, before)

    def test_half_weight_duplicates_match_original(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 3))
        y = rng.integers(0, 2, 12)
        full = SoftmaxSGD(2, 3, batch_size=1000, epochs=5, seed=2)
        full.fit(X, y, np.ones(12))
        halved = SoftmaxSGD(2, 3, batch_size=1000, epochs=5, seed=2)
        halved.fit(np.vstack([X, X]), np.concatenate([y, y]), np.full(24, 0.5))
        np.testing.assert_allclose(halved.weights, full.weights, atol=1e-12)

    def test_warm_start_pass_through(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 2))
        y = rng.integers(0, 3, 30)
        direct = SoftmaxSGD(3, 2, epochs=8, seed=3)
        direct.fit(X, y)
        staged = SoftmaxSGD(3, 2, epochs=0, seed=3)
        staged.fit(X, y)
        staged.epochs = 8
        staged.fit(X, y)
        assert np.array_equal(staged.weights, direct.weights)
        assert np.array_equal(staged.bias, direct.bias)

    def test_warm_start_continues_from_previous_weights(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 2))
        y = rng.integers(0, 2, 30)
        model = SoftmaxSGD(2, 2, epochs=3, seed=4)
        model.fit(X, y)
        w_after_first = model.weights.copy()
        model.fit(X, y)
        assert not np.array_equal(model.weights, w_after_first)

    def test_divergence_error_mentions_learning_rate(self):
        # a step size at the float ceiling overflows the weights immediately
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 2)) * 50
        y = rng.integers(0, 2, 20)
        model = SoftmaxSGD(2, 2, learning_rate=1e308, epochs=5, seed=5)
        with pytest.raises(ValueError, match="learning_rate"):
            model.fit(X, y)

    def test_weights_match_the_full_gradient_loss_check_loop(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(300, 20))
        y = rng.integers(0, 4, 300)
        w = rng.uniform(0.1, 1.0, 300)
        model = SoftmaxSGD(4, 20, batch_size=32, epochs=3, seed=7)
        ref = SoftmaxSGD(4, 20, batch_size=32, epochs=3, seed=7)
        for _ in range(2):  # the second fit continues from the first
            model.fit(X, y, w)
            assert reference_sgd_fit(ref, X, y, w) is None
            assert model.weights.tobytes() == ref.weights.tobytes()
            assert model.bias.tobytes() == ref.bias.tobytes()

    def test_divergence_fires_at_the_reference_epoch(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 2)) * 50
        y = rng.integers(0, 2, 20)
        build = lambda: SoftmaxSGD(2, 2, learning_rate=1e304, batch_size=4, epochs=8, seed=5)
        epoch = reference_sgd_fit(build(), X, y, np.ones(20))
        assert epoch == 2  # a later epoch than the first, so the epoch count is tested
        with pytest.raises(ValueError, match=f"diverged at epoch {epoch} "):
            build().fit(X, y)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, 40)
        a = SoftmaxSGD(3, 3, epochs=4, seed=6)
        a.fit(X, y)
        b = SoftmaxSGD(3, 3, epochs=4, seed=6)
        b.fit(X, y)
        assert np.array_equal(a.weights, b.weights)

    def test_training_actually_learns(self):
        X = np.vstack([np.random.default_rng(0).normal(-2, 0.3, size=(40, 2)),
                       np.random.default_rng(1).normal(2, 0.3, size=(40, 2))])
        y = np.array([0] * 40 + [1] * 40)
        model = SoftmaxSGD(2, 2, epochs=50, seed=0)
        model.fit(X, y)
        assert np.mean(predict(model, X) == y) == 1.0


BAD_WEIGHTS = {"nan": [1.0, np.nan, 1.0, 1.0], "inf": [1.0, 1.0, np.inf, 1.0],
               "negative": [1.0, -0.5, 1.0, 1.0]}


class TestSampleWeightsChecked:
    @pytest.mark.parametrize("bad", sorted(BAD_WEIGHTS))
    @pytest.mark.parametrize("width", [2, 8])  # the primal, then the dual fit
    def test_ridge_rejects_non_finite_or_negative_weights(self, bad, width):
        model = RandomFeatureRidge(2, 2, hidden_width=width, seed=0)
        X = np.random.default_rng(0).normal(size=(4, 2))
        with pytest.raises(ValueError, match="sample_weight"):
            model.fit(X, np.array([0, 1, 0, 1]), np.array(BAD_WEIGHTS[bad]))
        assert model.weights is None

    @pytest.mark.parametrize("bad", sorted(BAD_WEIGHTS))
    def test_sgd_rejects_non_finite_or_negative_weights(self, bad):
        model = SoftmaxSGD(2, 2, seed=0)
        X = np.random.default_rng(0).normal(size=(4, 2))
        with pytest.raises(ValueError, match="sample_weight"):
            model.fit(X, np.array([0, 1, 0, 1]), np.array(BAD_WEIGHTS[bad]))
        assert not model.weights.any()

    def test_sgd_rejects_a_zero_weight_total(self):
        model = SoftmaxSGD(2, 2, seed=0)
        X = np.random.default_rng(0).normal(size=(4, 2))
        with pytest.raises(ValueError, match="sample_weight must have a positive total"):
            model.fit(X, np.array([0, 1, 0, 1]), np.zeros(4))

    def test_ridge_fits_zero_weights_to_zero(self):
        model = RandomFeatureRidge(2, 2, hidden_width=8, seed=0)
        model.fit(np.ones((4, 2)), np.array([0, 1, 0, 1]), np.zeros(4))
        assert not model.weights.any()


class TestProbabilityRows:
    def test_rows_stochastic_for_both_backbones(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(50, 4)) * 10
        y = rng.integers(0, 5, 50)
        ridge = RandomFeatureRidge(5, 4, hidden_width=16, seed=0).fit(X, y)
        sgd = SoftmaxSGD(5, 4, epochs=3, seed=0).fit(X, y)
        for model in (ridge, sgd):
            probs = model.predict_proba(rng.normal(size=(30, 4)) * 100)
            assert np.all(probs >= 0)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_confidence_is_row_max(self):
        """The pseudo-label pool's confidence is the row max of ``predict_proba``."""
        rng = np.random.default_rng(12)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 3, 20)
        for model in (RandomFeatureRidge(3, 3, hidden_width=16, seed=1).fit(X, y),
                      SoftmaxSGD(3, 3, epochs=2, seed=1).fit(X, y)):
            unlabeled = UnlabeledSet(X, np.arange(20))
            pool = PseudoPool(unlabeled.n_u)
            pool.admit(np.arange(unlabeled.n_u), 0)
            pseudo_label_pool(model, pool, unlabeled, 0.0)
            np.testing.assert_array_equal(pool.confidence,
                                          model.predict_proba(X).max(axis=1))


def _backbone_pair(kind):
    """Two identically built backbones, so stateful fits can be compared."""
    if kind == "ridge":
        return [RandomFeatureRidge(3, 4, hidden_width=16, seed=2) for _ in range(2)]
    return [SoftmaxSGD(3, 4, epochs=3, seed=2) for _ in range(2)]


class TestEmbeddedContract:
    @pytest.mark.parametrize("kind", ["ridge", "sgd"])
    def test_raw_entry_points_equal_embedded_ones(self, kind):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 4))
        y = rng.integers(0, 3, 40)
        w = rng.uniform(0.2, 1.0, 40)
        raw, cached = _backbone_pair(kind)
        raw.fit(X, y, w)
        cached.fit_embedded(cached.embed(X), y, w)
        assert np.array_equal(raw.weights, cached.weights)
        assert np.array_equal(raw.predict_proba(X),
                              cached.predict_proba_embedded(cached.embed(X)))

    @pytest.mark.parametrize("kind", ["ridge", "sgd"])
    def test_rows_equal_gathered_rows(self, kind):
        rng = np.random.default_rng(12)
        by_rows, gathered = _backbone_pair(kind)
        H = by_rows.embed(rng.normal(size=(30, 4)))
        rows = rng.integers(0, 30, 45)
        y = rng.integers(0, 3, 45)
        w = rng.uniform(0.2, 1.0, 45)
        by_rows.fit_embedded(H, y, w, rows)
        gathered.fit_embedded(H[rows], y, w)
        assert np.array_equal(by_rows.weights, gathered.weights)
        assert np.array_equal(by_rows.predict_proba_embedded(H, rows),
                              gathered.predict_proba_embedded(H[rows]))

    def test_ridge_embed_is_the_tanh_map(self):
        model = RandomFeatureRidge(2, 3, hidden_width=8, seed=4)
        X = np.random.default_rng(13).normal(size=(10, 3))
        assert np.array_equal(model.embed(X), np.tanh(X @ model.projection + model.bias))

    @pytest.mark.parametrize("kind", ["ridge", "sgd"])
    def test_wrong_embedded_width_rejected(self, kind):
        model = _backbone_pair(kind)[0]
        width = model.hidden_width if kind == "ridge" else model.input_dim
        good = model.embed(np.zeros((5, 4)))
        model.fit_embedded(good, np.array([0, 1, 2, 0, 1]))
        for bad in (np.zeros((5, width + 1)), np.zeros((5, width - 1))):
            with pytest.raises(ValueError, match="features"):
                model.fit_embedded(bad, np.array([0, 1, 2, 0, 1]))
            with pytest.raises(ValueError, match="features"):
                model.predict_proba_embedded(bad, np.array([0, 2]))

    def test_ridge_rows_out_of_range_rejected(self):
        model = RandomFeatureRidge(2, 3, hidden_width=8, seed=4)
        H = model.embed(np.zeros((4, 3)))
        for rows in ([0, 4], [-1, 0]):
            with pytest.raises(IndexError):
                model.fit_embedded(H, [0, 1], None, np.array(rows))
