"""Base-learner backbones: a closed-form random-feature ridge classifier and
a warm-started linear mini-batch softmax classifier.

Both accept per-sample weights, finite and non-negative, and emit
row-stochastic probability matrices. Argmax ties resolve to the lowest class
index. The ridge solves its fit in the dual, an n x n system, when it has
fewer rows n than features, and in the primal from there up.

Work along the class axis (the max and sum of the softmax, the top class of
a probability row) is done as whole-array passes over the classes, one or a
few per class, rather than as a reduction per row: rows are many and classes
few. The max and the top class give the row-wise reduction's result bit
for bit; the sum is a left fold over the classes (``clustering._column_sum``).
The ridge scores into a class-major buffer, one contiguous row per class, so
these passes read contiguous memory, and returns the (rows, classes)
transpose of that buffer, whose columns are contiguous.

The ridge embeds and scores rows in blocks of ``SCORE_BLOCK`` bytes of
embedded rows, and runs those blocks on the calling thread and on the
process's one worker thread (``blocks._share_blocks``), each thread taking
the next block left. A block's rows go through the same operations whichever
thread runs it, and each block writes its own rows of the output, so no
output depends on which thread ran a block or on whether a worker exists.
Each thread that takes part in a scoring call has its own buffer of one
block's scores and, on gathered rows, its own 512 KB gather buffer; the
embedding's blocks write straight into H. A process on one CPU, or started
by a process pool, runs every block on the calling thread, and so does a
caller that the worker cost more than it gave, for a while after a call in
which it got too little time on a CPU (``blocks.MIN_CPU_SHARE``).
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .blocks import _share_blocks
from .clustering import _column_sum

# Bytes of embedded rows one scoring product reads or one embedding product
# writes, which fit in a core's L2 cache: 128 rows at width 512, 1,024 at
# width 64. Products this small stay under OpenBLAS's small-matrix size, which
# skips packing, and take up to about half the time of 4096-row ones.
SCORE_BLOCK = 1 << 19


def _block_rows(width: int) -> int:
    """Rows of ``width`` float64 features in one ``SCORE_BLOCK``."""
    return max(1, SCORE_BLOCK // (8 * width))


def _softmax_into(z: np.ndarray) -> np.ndarray:
    """Softmax over the classes of float64 ``z``, which holds one class per row,
    computed in ``z`` itself.

    The row-wise softmax of ``z.T``: ``z.T - z.T.max(1)``, ``exp``, and a
    division by the sum over the classes. The max is a fold of
    ``np.maximum`` over the class rows and the sum ``_column_sum``'s left
    fold, so every step is a pass over whole class rows, contiguous when
    ``z`` is.
    """
    top = z[0].copy()
    for j in range(1, len(z)):
        np.maximum(top, z[j], out=top)
    z -= top
    np.exp(z, out=z)
    z /= _column_sum(z)
    return z


def top_class(proba: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's largest entry and the first column holding it.

    Equals ``(proba.max(axis=1), proba.argmax(axis=1))`` on rows without NaN,
    ties going to the lowest class index, but takes both by column passes,
    which read contiguous memory on the ridge's class-major probabilities.
    """
    conf = proba[:, 0].copy()
    label = np.zeros(len(proba), dtype=np.intp)
    for j in range(1, proba.shape[1]):
        # label < j, so the maximum sets it to j exactly where column j is
        # strictly greater: an equal later column never takes the label
        np.maximum(label, j * (proba[:, j] > conf), out=label)
        np.maximum(conf, proba[:, j], out=conf)
    return conf, label


def one_hot(y: np.ndarray, class_count: int) -> np.ndarray:
    out = np.zeros((len(y), class_count), dtype=np.float64)
    out[np.arange(len(y)), y] = 1.0
    return out


def _labels_and_weights(y, sample_weight, n: int, class_count: int):
    """A fit's labels as int64 and weights as float64 (ones when
    ``sample_weight`` is None), after checking both against ``n`` rows."""
    y = np.asarray(y, dtype=np.int64)
    if len(y) != n:
        raise ValueError("label length does not match row count")
    if n and (y.min() < 0 or y.max() >= class_count):
        raise ValueError(f"labels must lie in [0, {class_count})")
    if sample_weight is None:
        return y, np.ones(n)
    w = np.asarray(sample_weight, dtype=np.float64)
    if len(w) != n:
        raise ValueError("sample_weight length does not match row count")
    if n and not (np.isfinite(w).all() and w.min() >= 0):
        raise ValueError("sample_weight entries must be finite and non-negative")
    return y, w


class ClassifierModel(ABC):
    """Contract every backbone satisfies: weighted fit + probability prediction.

    ``fit(X, y, w)`` and ``predict_proba(X)`` take raw feature rows. Training
    loops instead embed their rows once per run and then work on the cached
    matrix through three methods:

    - ``embed(*parts)``: the backbone's frozen per-row features of the rows
      of ``parts`` stacked. The default is the stacked rows themselves (as
      float64).
    - ``fit_embedded(H, y, w, rows)``: fit on rows ``rows`` of an embedded
      matrix (all rows when ``rows`` is None). The default gathers
      ``H[rows]`` and calls ``fit``.
    - ``predict_proba_embedded(H, rows)``: probabilities for those rows. The
      default gathers ``H[rows]`` and calls ``predict_proba``.

    ``fit_embedded(embed(X), ...)`` is ``fit(X, ...)`` and
    ``predict_proba_embedded(embed(X))`` is ``predict_proba(X)``.
    """

    class_count: int

    @abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray,
            sample_weight: np.ndarray | None = None) -> "ClassifierModel":
        ...

    @abstractmethod
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        ...

    def embed(self, *parts: np.ndarray) -> np.ndarray:
        return np.asarray(parts[0] if len(parts) == 1 else np.vstack(parts),
                          dtype=np.float64)

    def fit_embedded(self, H: np.ndarray, y: np.ndarray,
                     sample_weight: np.ndarray | None = None,
                     rows: np.ndarray | None = None) -> "ClassifierModel":
        return self.fit(H if rows is None else H[rows], y, sample_weight)

    def predict_proba_embedded(self, H: np.ndarray,
                               rows: np.ndarray | None = None) -> np.ndarray:
        return self.predict_proba(H if rows is None else H[rows])


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
    cached features. It computes the map block by block, ``SCORE_BLOCK``
    bytes of output rows at a time, the last block taking the rest, and takes
    the same blocks over several parts of rows as if they were stacked. The
    result equals one product over all rows bit for bit wherever measured
    (OpenBLAS 0.3.31, input widths 2-784, one and two BLAS threads). A short
    block after long ones would not: OpenBLAS gives a short product, a
    one-row product above all, another kernel than the same rows inside a
    longer one.

    A fit on fewer rows than ``hidden_width`` (counting repeats) solves the
    ridge's n x n dual system over the gathered rows (Saunders, Gammerman &
    Vovk 1998) and holds no sums. From ``hidden_width`` rows up, the fit
    solves the width x width primal system: it accumulates the gram and
    target over blocks of ``block_rows`` rows, so it never holds a weighted
    copy of all rows, and keeps both for the next fit. A primal refit on the
    same embedded matrix (the same object, not modified in place) adds the
    rows that entered or changed label or weight and subtracts the rows that
    left or changed, then re-solves. It sums every chosen row afresh instead
    after a dual fit, when the matrix is another one, when ``rows`` repeats a
    row, or when the changed rows are at least as many as the chosen ones.
    Sample weights must be finite and non-negative. The fit's blocks run in
    order on the calling thread, since its sums depend on their order.

    Scoring multiplies the weights by blocks of ``SCORE_BLOCK`` bytes of
    embedded rows, far fewer rows than the fit's blocks, each a view of ``H``
    or gathered into a block-sized buffer; a score can depend in its last
    bits on its block's row count. Each block's scores are copied,
    transposed, into one class-major buffer. Embedding and scoring blocks run
    on the calling thread and the process's worker thread (see the module
    docstring), each thread with its own product and gather buffers; a
    block's rows, and so its bits, are fixed by its index alone. Scores pass
    through a temperature-scaled softmax, one pass per class row, to produce
    calibrated-enough probabilities for confidence thresholding;
    ``predict_proba`` returns them as the (rows, classes) transpose of that
    buffer.
    """

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

    def embed(self, *parts):
        """The map of the rows of ``parts`` stacked.

        The blocks are those of the stacked rows, the last taking the rest,
        and a block's rows are a view of one part; only a block that spans
        two parts is gathered, so the stacked rows are never copied.
        """
        parts = [np.ascontiguousarray(X, dtype=np.float64) for X in parts]
        for X in parts:
            if X.ndim != 2 or X.shape[1] != self.input_dim:
                raise ValueError(f"expected {self.input_dim} input features, got "
                                 f"{X.shape[1] if X.ndim == 2 else '?'}")
        starts = np.cumsum([0] + [len(X) for X in parts]).tolist()
        n = starts[-1]
        H = np.empty((n, self.hidden_width))
        step = _block_rows(self.hidden_width)
        count = max(1, n // step)

        def embed_block(i):
            # the last block takes the rest, so no product is shorter than a block
            lo, hi = i * step, n if i == count - 1 else (i + 1) * step
            pieces = [X[max(lo - s, 0):hi - s] for X, s in zip(parts, starts)
                      if s < hi and lo < s + len(X)]
            # a view of one part, unless the block spans parts or has no rows
            Xb = (pieces[0] if len(pieces) == 1
                  else np.concatenate([np.empty((0, self.input_dim))] + pieces))
            Hb = H[lo:hi]
            np.matmul(Xb, self.projection, out=Hb)
            Hb += self.bias
            np.tanh(Hb, out=Hb)

        _share_blocks(count, lambda: embed_block)
        return H

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

    def _blocks(self, H: np.ndarray, rows: np.ndarray | None, step: int):
        """Yield ``(start, stop, H_block)`` over the chosen rows of a checked ``H``,
        ``step`` rows at a time.

        Without ``rows`` the blocks are views; otherwise they are gathered
        into one reused block-sized buffer, valid until the next block.
        """
        n = len(H) if rows is None else len(rows)
        buf = None if rows is None else np.empty((min(step, n), self.hidden_width))
        for start in range(0, n, step):
            stop = min(start + step, n)
            yield start, stop, self._block(H, rows, start, stop, buf)

    def _block(self, H, rows, start: int, stop: int, buf) -> np.ndarray:
        """Chosen rows ``start:stop`` of a checked ``H``: a view without ``rows``,
        otherwise gathered into ``buf``, of at least ``stop - start`` rows."""
        if rows is None:
            return H[start:stop]
        # mode="clip" writes straight into buf; "raise" would buffer a copy
        out = buf[:stop - start]
        np.take(H, rows[start:stop], axis=0, out=out, mode="clip")
        return out

    def fit(self, X, y, sample_weight=None):
        return self.fit_embedded(self.embed(X), y, sample_weight)

    def fit_embedded(self, H, y, sample_weight=None, rows=None):
        H, rows = self._checked(H, rows)
        n = len(H) if rows is None else len(rows)
        y, w = _labels_and_weights(y, sample_weight, n, self.class_count)
        if n < self.hidden_width:
            # the next primal fit sums afresh
            self._held = None
            self.weights = self._dual_weights(H, y, w, rows)
        else:
            self.weights = np.linalg.solve(*self._normal_equations(H, y, w, rows))
        return self

    def _dual_weights(self, H, y, w, rows):
        """``H_s'a`` where ``(w*K + lambda*I) a = w*Y`` and ``K = H_s H_s'``, over
        the chosen rows ``H_s``.

        The primal system's minimiser, by an n x n solve. Scaling by unit
        weights is exact, so then ``a`` is ``solve(K + lambda*I, Y)`` bit for
        bit.
        """
        Hs = H if rows is None else H[rows]
        K = Hs @ Hs.T
        K *= w[:, None]
        K.flat[::len(K) + 1] += self.ridge_lambda
        alpha = np.linalg.solve(K, one_hot(y, self.class_count) * w[:, None])
        return Hs.T @ alpha

    def _normal_equations(self, H, y, w, rows):
        """The ridge gram ``H'WH + lambda*I`` and target ``H'WY`` over the chosen
        rows, from arguments checked as ``fit_embedded`` checks them.

        Updates the sums held from the previous call where that costs fewer
        rows than summing the chosen ones afresh, and holds the result.
        """
        n = len(H) if rows is None else len(rows)
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
        for start, stop, Hb in self._blocks(H, rows, self.block_rows):
            Hw = np.multiply(Hb, w[start:stop, None], out=weighted[:stop - start])
            gram += Hb.T @ Hw
            target += Hw.T @ one_hot(y[start:stop], self.class_count)

    def _scores(self, H, rows=None) -> np.ndarray:
        """The chosen rows' (rows, classes) scores, as the transpose of a
        contiguous class-major array."""
        if self.weights is None:
            raise ValueError("model is not fitted")
        H, rows = self._checked(H, rows)
        n = len(H) if rows is None else len(rows)
        scores = np.empty((self.class_count, n))
        step = _block_rows(self.hidden_width)

        def runner():
            product = np.empty((min(step, n), self.class_count))
            buf = None if rows is None else np.empty((min(step, n), self.hidden_width))

            def score_block(i):
                start, stop = i * step, min((i + 1) * step, n)
                Hb = self._block(H, rows, start, stop, buf)
                scores[:, start:stop] = np.matmul(Hb, self.weights,
                                                  out=product[:stop - start]).T
            return score_block

        _share_blocks(-(-n // step), runner)
        return scores.T

    def predict_proba(self, X):
        return self.predict_proba_embedded(self.embed(X))

    def predict_proba_embedded(self, H, rows=None):
        z = self._scores(H, rows).T
        z /= self.temperature
        return _softmax_into(z).T


def _softmax_loss(W: np.ndarray, b: np.ndarray, X: np.ndarray, y: np.ndarray,
                  sample_weight: np.ndarray) -> tuple[float, np.ndarray]:
    """Weighted-mean cross-entropy of a linear softmax, and its log-probabilities."""
    logits = X @ W + b
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    w_total = sample_weight.sum()
    return float(-(sample_weight * log_probs[np.arange(len(y)), y]).sum() / w_total), log_probs


def softmax_loss_and_grad(W: np.ndarray, b: np.ndarray, X: np.ndarray, y: np.ndarray,
                          sample_weight: np.ndarray):
    """Weighted-mean cross-entropy of a linear softmax and its exact gradient."""
    loss, log_probs = _softmax_loss(W, b, X, y, sample_weight)
    w_total = sample_weight.sum()
    delta = (np.exp(log_probs) - one_hot(y, W.shape[1])) * sample_weight[:, None] / w_total
    return loss, X.T @ delta, delta.sum(axis=0)


class SoftmaxSGD(ClassifierModel):
    """Linear mini-batch gradient-descent softmax classifier; each fit continues from the last.

    Batch order is drawn from the model's own generator, so identical fit
    sequences reproduce exactly.
    """

    def __init__(self, class_count: int, input_dim: int, learning_rate: float = 0.03,
                 batch_size: int = 64, epochs: int = 20, seed: int = 0):
        if class_count < 2:
            raise ValueError("class_count must be >= 2")
        if learning_rate <= 0 or batch_size < 1 or epochs < 0:
            raise ValueError("invalid learning_rate / batch_size / epochs")
        self.class_count = class_count
        self.input_dim = input_dim
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.epochs = epochs
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.weights = np.zeros((input_dim, class_count))
        self.bias = np.zeros(class_count)

    def _check(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} input features, got "
                             f"{X.shape[1] if X.ndim == 2 else '?'}")
        return X

    def fit(self, X, y, sample_weight=None):
        X = self._check(X)
        n = len(X)
        y, w = _labels_and_weights(y, sample_weight, n, self.class_count)
        # the loss is a weighted mean
        if not w.sum() > 0:
            raise ValueError("sample_weight must have a positive total")
        if self.epochs == 0:
            return self

        lr = self.learning_rate
        # divergence surfaces as a non-finite epoch loss, so float overflow
        # along the way is expected rather than worth warning about
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(self.epochs):
                order = self._rng.permutation(n)
                for start in range(0, n, self.batch_size):
                    sel = order[start:start + self.batch_size]
                    _, g_w, g_b = softmax_loss_and_grad(self.weights, self.bias,
                                                        X[sel], y[sel], w[sel])
                    self.weights -= lr * g_w
                    self.bias -= lr * g_b
                loss, _ = _softmax_loss(self.weights, self.bias, X, y, w)
                if not np.isfinite(loss):
                    raise ValueError(
                        f"training diverged at epoch {epoch} (non-finite loss); "
                        f"reduce learning_rate below {lr}"
                    )
        return self

    def predict_proba(self, X):
        X = self._check(X)
        z = X @ self.weights + self.bias
        _softmax_into(z.T)
        return z
