"""Base-learner backbones: a closed-form random-feature ridge classifier and
a warm-startable mini-batch softmax classifier.

Both accept per-sample weights (the hook used to down-weight pseudo-labels)
and emit row-stochastic probability matrices. Argmax ties resolve to the
lowest class index.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def one_hot(y: np.ndarray, class_count: int) -> np.ndarray:
    out = np.zeros((len(y), class_count), dtype=np.float64)
    out[np.arange(len(y)), y] = 1.0
    return out


class ClassifierModel(ABC):
    """Contract every backbone satisfies: weighted fit + probability prediction.

    ``fit(X, y, w)`` and ``predict_proba(X)`` take raw feature rows. Training
    loops instead embed their rows once per run and then work on the cached
    matrix through three methods:

    - ``embed(X)``: the backbone's frozen per-row features. The default is
      the identity (as float64).
    - ``fit_embedded(H, y, w, rows)``: fit on rows ``rows`` of an embedded
      matrix (all rows when ``rows`` is None). The default gathers
      ``H[rows]`` and calls ``fit``.
    - ``predict_proba_embedded(H, rows)``: probabilities for those rows. The
      default gathers ``H[rows]`` and calls ``predict_proba``.

    ``fit_embedded(embed(X), ...)`` is ``fit(X, ...)`` and
    ``predict_proba_embedded(embed(X))`` is ``predict_proba(X)``.
    """

    backbone: str
    class_count: int

    @abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray,
            sample_weight: np.ndarray | None = None) -> "ClassifierModel":
        ...

    @abstractmethod
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        ...

    def embed(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64)

    def fit_embedded(self, H: np.ndarray, y: np.ndarray,
                     sample_weight: np.ndarray | None = None,
                     rows: np.ndarray | None = None) -> "ClassifierModel":
        return self.fit(H if rows is None else H[rows], y, sample_weight)

    def predict_proba_embedded(self, H: np.ndarray,
                               rows: np.ndarray | None = None) -> np.ndarray:
        return self.predict_proba(H if rows is None else H[rows])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


@dataclass
class _HeldSums:
    """A ridge fit's unregularised gram and target, and the rows they cover.

    ``label`` and ``weight`` hold one entry per row of the embedded matrix:
    the label and weight that row was fitted with, or -1 and 0 when it was
    not fitted. The matrix itself is held weakly, so a model never keeps a
    run's cache alive.
    """

    source: weakref.ref
    shape: tuple
    label: np.ndarray
    weight: np.ndarray
    gram: np.ndarray
    target: np.ndarray


class RandomFeatureRidge(ClassifierModel):
    """Ridge regression on a frozen random tanh feature map, solved in closed form.

    ``embed`` is the map ``tanh(X @ projection + bias)``; it never changes
    after construction, so callers embed their rows once and refit on the
    cached features. The fit accumulates the gram and target over blocks of
    ``block_rows`` rows, so it never holds a weighted copy of all rows, and
    keeps both for the next fit. A refit on the same embedded matrix (the same
    object, not modified in place) adds the rows that entered or changed label
    or weight and subtracts the rows that left or changed, then re-solves.
    It sums every chosen row afresh instead when the matrix is another one,
    when ``rows`` repeats a row, or when the changed rows are at least as
    many as the chosen ones. Scores pass through a temperature-scaled softmax
    to produce calibrated-enough probabilities for confidence thresholding.
    """

    backbone = "noniterative"
    block_rows = 4096

    def __init__(self, class_count: int, input_dim: int, hidden_width: int = 512,
                 ridge_lambda: float = 1e-2, temperature: float = 0.2, seed: int = 0):
        if class_count < 2:
            raise ValueError("class_count must be >= 2")
        if hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")
        if ridge_lambda <= 0:
            raise ValueError("ridge_lambda must be > 0")
        if temperature <= 0:
            raise ValueError("temperature must be > 0")
        self.class_count = class_count
        self.input_dim = input_dim
        self.hidden_width = hidden_width
        self.ridge_lambda = ridge_lambda
        self.temperature = temperature
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.projection = rng.standard_normal((input_dim, hidden_width)) / np.sqrt(input_dim)
        self.bias = rng.uniform(-1.0, 1.0, hidden_width)
        self.weights: np.ndarray | None = None
        self._held: _HeldSums | None = None

    def __getstate__(self):
        # the held sums belong to one matrix in this process; a copy refits afresh
        return {**self.__dict__, "_held": None}

    def embed(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} input features, got "
                             f"{X.shape[1] if X.ndim == 2 else '?'}")
        H = X @ self.projection
        H += self.bias
        return np.tanh(H, out=H)

    def _checked(self, H: np.ndarray, rows: np.ndarray | None):
        """``H`` as float64 and ``rows`` as indices, after checking both."""
        H = np.asarray(H, dtype=np.float64)
        if H.ndim != 2 or H.shape[1] != self.hidden_width:
            raise ValueError(f"expected {self.hidden_width} embedded features, got "
                             f"{H.shape[1] if H.ndim == 2 else '?'}")
        if rows is not None:
            rows = np.asarray(rows, dtype=np.intp)
            if len(rows) and (rows.min() < 0 or rows.max() >= len(H)):
                raise IndexError(f"row index out of range for {len(H)} embedded rows")
        return H, rows

    def _blocks(self, H: np.ndarray, rows: np.ndarray | None):
        """Yield ``(start, stop, H_block)`` over the chosen rows of a checked ``H``.

        Without ``rows`` the blocks are views; otherwise they are gathered
        into one reused block-sized buffer, valid until the next block.
        """
        n = len(H) if rows is None else len(rows)
        step = self.block_rows
        buf = None if rows is None else np.empty((min(step, n), self.hidden_width))
        for start in range(0, n, step):
            stop = min(start + step, n)
            if rows is None:
                yield start, stop, H[start:stop]
            else:
                # mode="clip" writes straight into buf; "raise" would buffer a copy
                out = buf[:stop - start]
                np.take(H, rows[start:stop], axis=0, out=out, mode="clip")
                yield start, stop, out

    def fit(self, X, y, sample_weight=None):
        return self.fit_embedded(self.embed(X), y, sample_weight)

    def fit_embedded(self, H, y, sample_weight=None, rows=None):
        self.weights = np.linalg.solve(*self._normal_equations(H, y, sample_weight, rows))
        return self

    def _normal_equations(self, H, y, sample_weight, rows):
        """The ridge gram ``H'WH + lambda*I`` and target ``H'WY`` over the chosen rows.

        Updates the sums held from the previous call where that costs fewer
        rows than summing the chosen ones afresh, and holds the result.
        """
        H, rows = self._checked(H, rows)
        n = len(H) if rows is None else len(rows)
        y = np.asarray(y, dtype=np.int64)
        if len(y) != n:
            raise ValueError("label length does not match row count")
        if n and (y.min() < 0 or y.max() >= self.class_count):
            raise ValueError(f"labels must lie in [0, {self.class_count})")
        w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
        if len(w) != n:
            raise ValueError("sample_weight length does not match row count")

        label = np.full(len(H), -1, dtype=np.int64)
        weight = np.zeros(len(H))
        chosen = slice(None) if rows is None else rows
        label[chosen] = y
        weight[chosen] = w
        # a repeated row cannot be held: the per-row record has one entry each
        distinct = np.count_nonzero(label >= 0) == n
        held, self._held = self._held, None
        gram = target = None
        if distinct and held is not None and held.source() is H and held.shape == H.shape:
            changed = (label != held.label) | (weight != held.weight)
            leave = np.flatnonzero(changed & (held.label >= 0))
            enter = np.flatnonzero(changed & (label >= 0))
            if len(leave) + len(enter) < n:
                gram, target = held.gram, held.target
                self._accumulate(gram, target, H, held.label[leave], -held.weight[leave], leave)
                self._accumulate(gram, target, H, label[enter], weight[enter], enter)
        if gram is None:
            gram = np.zeros((self.hidden_width, self.hidden_width))
            target = np.zeros((self.hidden_width, self.class_count))
            self._accumulate(gram, target, H, y, w, rows)
        if distinct:
            self._held = _HeldSums(weakref.ref(H), H.shape, label, weight, gram, target)
        return gram + self.ridge_lambda * np.eye(self.hidden_width), target.copy()

    def _accumulate(self, gram, target, H, y, w, rows):
        """Add the chosen rows' ``H'WH`` to ``gram`` and ``H'WY`` to ``target``."""
        n = len(H) if rows is None else len(rows)
        weighted = np.empty((min(self.block_rows, n), self.hidden_width))
        for start, stop, Hb in self._blocks(H, rows):
            Hw = np.multiply(Hb, w[start:stop, None], out=weighted[:stop - start])
            gram += Hb.T @ Hw
            target += Hw.T @ one_hot(y[start:stop], self.class_count)

    def _scores(self, H, rows=None) -> np.ndarray:
        if self.weights is None:
            raise ValueError("model is not fitted")
        H, rows = self._checked(H, rows)
        scores = np.empty((len(H) if rows is None else len(rows), self.class_count))
        for start, stop, Hb in self._blocks(H, rows):
            np.matmul(Hb, self.weights, out=scores[start:stop])
        return scores

    def predict_proba(self, X):
        return self.predict_proba_embedded(self.embed(X))

    def predict_proba_embedded(self, H, rows=None):
        scores = self._scores(H, rows)
        scores /= self.temperature
        return softmax(scores)


def softmax_loss_and_grad(W: np.ndarray, b: np.ndarray, X: np.ndarray, y: np.ndarray,
                          sample_weight: np.ndarray):
    """Weighted-mean cross-entropy of a linear softmax and its exact gradient."""
    logits = X @ W + b
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    w_total = sample_weight.sum()
    loss = float(-(sample_weight * log_probs[np.arange(len(y)), y]).sum() / w_total)
    delta = (np.exp(log_probs) - one_hot(y, W.shape[1])) * sample_weight[:, None] / w_total
    return loss, X.T @ delta, delta.sum(axis=0)


def mlp_loss_and_grad(W1, b1, W2, b2, X, y, sample_weight):
    """Weighted-mean cross-entropy of a one-hidden-layer tanh softmax, with gradients."""
    hidden = np.tanh(X @ W1 + b1)
    logits = hidden @ W2 + b2
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    w_total = sample_weight.sum()
    loss = float(-(sample_weight * log_probs[np.arange(len(y)), y]).sum() / w_total)
    delta = (np.exp(log_probs) - one_hot(y, W2.shape[1])) * sample_weight[:, None] / w_total
    g_w2 = hidden.T @ delta
    g_b2 = delta.sum(axis=0)
    back = (delta @ W2.T) * (1.0 - hidden * hidden)
    return loss, X.T @ back, back.sum(axis=0), g_w2, g_b2


class SoftmaxSGD(ClassifierModel):
    """Mini-batch gradient-descent softmax classifier, optionally warm-started.

    With ``hidden_width`` set, a tanh hidden layer of that width is trained by
    backprop; otherwise the model is linear. Batch order is drawn from the
    model's own generator, so identical fit sequences reproduce exactly.
    """

    backbone = "iterative"

    def __init__(self, class_count: int, input_dim: int, learning_rate: float = 0.03,
                 batch_size: int = 64, epochs: int = 20, warm_start: bool = True,
                 hidden_width: int | None = None, seed: int = 0):
        if class_count < 2:
            raise ValueError("class_count must be >= 2")
        if learning_rate <= 0 or batch_size < 1 or epochs < 0:
            raise ValueError("invalid learning_rate / batch_size / epochs")
        if hidden_width is not None and hidden_width < 1:
            raise ValueError("hidden_width must be >= 1 when given")
        self.class_count = class_count
        self.input_dim = input_dim
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.epochs = epochs
        self.warm_start = warm_start
        self.hidden_width = hidden_width
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._init_params()

    def _init_params(self):
        if self.hidden_width is None:
            self.weights = np.zeros((self.input_dim, self.class_count))
            self.bias = np.zeros(self.class_count)
        else:
            init_rng = np.random.default_rng(self.seed + 1)
            self.w1 = init_rng.standard_normal((self.input_dim, self.hidden_width)) \
                / np.sqrt(self.input_dim)
            self.b1 = np.zeros(self.hidden_width)
            self.weights = np.zeros((self.hidden_width, self.class_count))
            self.bias = np.zeros(self.class_count)

    def _check(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} input features, got "
                             f"{X.shape[1] if X.ndim == 2 else '?'}")
        return X

    def fit(self, X, y, sample_weight=None):
        X = self._check(X)
        y = np.asarray(y, dtype=np.int64)
        n = len(X)
        w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
        if len(y) != n or len(w) != n:
            raise ValueError("label / weight length does not match row count")
        if self.epochs == 0:
            return self
        if not self.warm_start:
            self._init_params()

        lr = self.learning_rate
        # divergence surfaces as a non-finite epoch loss, so float overflow
        # along the way is expected rather than worth warning about
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(self.epochs):
                order = self._rng.permutation(n)
                for start in range(0, n, self.batch_size):
                    sel = order[start:start + self.batch_size]
                    if self.hidden_width is None:
                        _, g_w, g_b = softmax_loss_and_grad(self.weights, self.bias,
                                                            X[sel], y[sel], w[sel])
                        self.weights -= lr * g_w
                        self.bias -= lr * g_b
                    else:
                        _, g_w1, g_b1, g_w2, g_b2 = mlp_loss_and_grad(
                            self.w1, self.b1, self.weights, self.bias,
                            X[sel], y[sel], w[sel])
                        self.w1 -= lr * g_w1
                        self.b1 -= lr * g_b1
                        self.weights -= lr * g_w2
                        self.bias -= lr * g_b2
                if self.hidden_width is None:
                    loss, _, _ = softmax_loss_and_grad(self.weights, self.bias, X, y, w)
                else:
                    loss = mlp_loss_and_grad(self.w1, self.b1, self.weights,
                                             self.bias, X, y, w)[0]
                if not np.isfinite(loss):
                    raise ValueError(
                        f"training diverged at epoch {epoch} (non-finite loss); "
                        f"reduce learning_rate below {lr}"
                    )
        return self

    def predict_proba(self, X):
        X = self._check(X)
        if self.hidden_width is None:
            return softmax(X @ self.weights + self.bias)
        return softmax(np.tanh(X @ self.w1 + self.b1) @ self.weights + self.bias)
