"""Property tests: the ridge fit accumulated over row blocks against one GEMM.

``RandomFeatureRidge.fit_embedded`` sums the gram ``H'(H*w)`` and target
``(H*w)'Y`` block by block. The reference gathers every chosen row and forms
both with a single product. Row counts straddle the block size ``B``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from selftrain.classifiers import RandomFeatureRidge, one_hot

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

