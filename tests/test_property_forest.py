"""Stacked-forest prediction equals the per-tree sequential mean (hypothesis).

A forest routes all of its trees through one level-synchronous traversal of
their concatenated node arrays.  Every test here compares it, under exact
``np.array_equal``, with the sum of the trees' leaf distributions taken node
by node in tree order and divided by the tree count — the arithmetic of the
per-tree loop the stack replaces.
"""

import pickle
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.ml.tree as tree_module
from repro.errors import DimensionMismatchError
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import TreeNode


def leaf_proba(node: TreeNode, x: np.ndarray) -> np.ndarray:
    """Node-by-node traversal of one sample (independent of the flat arrays)."""
    while not node.is_leaf:
        if node.categories_left is not None:
            go_left = float(x[node.feature]) in node.categories_left
        else:
            go_left = x[node.feature] <= node.threshold
        node = node.left if go_left else node.right
    return node.proba


def sequential_mean(forest: RandomForestClassifier, X: np.ndarray) -> np.ndarray:
    total = np.zeros((X.shape[0], forest.n_classes_), dtype=np.float64)
    for tree in forest.trees_:
        total += np.array(
            [leaf_proba(tree.root_, x) for x in X]
        ).reshape(X.shape[0], forest.n_classes_)
    return total / len(forest.trees_)


def mixed_data(rng, n_rows, n_codes, codes=None):
    """Two categorical columns (0, 1) and two numeric ones (2, 3)."""
    if codes is None:
        cat = lambda: rng.integers(0, n_codes, size=n_rows).astype(float)  # noqa: E731
    else:
        cat = lambda: rng.choice(codes, size=n_rows)  # noqa: E731
    X = np.column_stack([cat(), cat(), rng.normal(size=n_rows),
                         rng.normal(size=n_rows)])
    y = ((X[:, 0] % 3 < 1) ^ (X[:, 2] > 0) ^ (rng.random(n_rows) < 0.15))
    return X, y.astype(int)


def unseen_rows(rng, n_rows, n_codes):
    """Test rows whose category codes include unseen and negative ones."""
    return np.column_stack([
        rng.integers(-3, n_codes + 4, size=n_rows).astype(float),
        rng.integers(-3, n_codes + 4, size=n_rows).astype(float),
        rng.normal(size=n_rows), rng.normal(size=n_rows),
    ])


def fit_forest(X, y, n_trees, depth, seed):
    return RandomForestClassifier(
        n_estimators=n_trees, max_depth=depth, random_state=seed,
        categorical_features={0, 1},
    ).fit(X, y)


@given(
    seed=st.integers(0, 10_000),
    n_trees=st.integers(1, 6),
    depth=st.integers(1, 8),
    n_codes=st.integers(2, 25),
    n_test=st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_stack_matches_sequential_mean_with_unseen_codes(
        seed, n_trees, depth, n_codes, n_test):
    rng = np.random.default_rng(seed)
    X, y = mixed_data(rng, 120, n_codes)
    forest = fit_forest(X, y, n_trees, depth, seed)
    X_test = unseen_rows(rng, n_test, n_codes)
    assert np.array_equal(forest.predict_proba(X_test),
                          sequential_mean(forest, X_test))


@given(seed=st.integers(0, 10_000), n_trees=st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_stack_matches_sequential_mean_on_non_integer_codes(seed, n_trees):
    """Non-integer category codes take the ``fallback_nodes`` path."""
    rng = np.random.default_rng(seed)
    codes = np.array([0.5, 1.5, 2.5, 3.5, 4.25])
    X, y = mixed_data(rng, 150, 0, codes=codes)
    forest = fit_forest(X, y, n_trees, 6, seed)
    assert forest._stack.fallback_nodes  # the path under test is present
    X_test = np.column_stack([
        rng.choice(np.append(codes, [-0.5, 9.5, 2.0]), size=(60, 2)),
        rng.normal(size=(60, 2)),
    ])
    assert np.array_equal(forest.predict_proba(X_test),
                          sequential_mean(forest, X_test))


@given(
    seed=st.integers(0, 10_000),
    n_trees=st.integers(1, 6),
    cap=st.integers(1, 64),
    n_test=st.integers(1, 50),
)
@settings(max_examples=40, deadline=None)
def test_batches_crossing_the_block_cap_match(seed, n_trees, cap, n_test):
    rng = np.random.default_rng(seed)
    X, y = mixed_data(rng, 120, 10)
    forest = fit_forest(X, y, n_trees, 6, seed)
    X_test = unseen_rows(rng, n_test, 10)
    with mock.patch.object(tree_module, "_BLOCK_POSITIONS", cap):
        blocked = forest.predict_proba(X_test)
    assert np.array_equal(blocked, sequential_mean(forest, X_test))


def test_batch_over_the_real_block_cap_equals_row_by_row_blocks():
    rng = np.random.default_rng(5)
    X, y = mixed_data(rng, 300, 12)
    forest = fit_forest(X, y, 3, 8, 5)
    X_test = unseen_rows(rng, tree_module._BLOCK_POSITIONS // 3 + 500, 12)
    whole = forest.predict_proba(X_test)
    pieces = np.concatenate([forest.predict_proba(X_test[i : i + 1000])
                             for i in range(0, X_test.shape[0], 1000)])
    assert np.array_equal(whole, pieces)


def test_zero_rows_and_one_tree_forest():
    rng = np.random.default_rng(3)
    X, y = mixed_data(rng, 100, 8)
    forest = fit_forest(X, y, 1, 6, 3)
    # The public API rejects an empty X; the traversal itself returns an
    # empty distribution rather than failing.
    with pytest.raises(DimensionMismatchError):
        forest.predict_proba(np.empty((0, 4)))
    empty = forest._stack.predict_proba(np.empty((0, 4)))
    assert empty.shape == (0, 2) and empty.dtype == np.float64
    X_test = unseen_rows(rng, 30, 8)
    single = forest.predict_proba(X_test)
    assert np.array_equal(single, sequential_mean(forest, X_test))
    assert np.array_equal(single, forest.trees_[0].predict_proba(X_test))


def test_pickle_round_trip_drops_and_rebuilds_the_stack():
    rng = np.random.default_rng(4)
    X, y = mixed_data(rng, 150, 9)
    forest = fit_forest(X, y, 4, 7, 4)
    X_test = unseen_rows(rng, 40, 9)
    expected = forest.predict_proba(X_test)
    restored = pickle.loads(pickle.dumps(forest))
    assert restored._stack is None
    assert all(tree._flat is None for tree in restored.trees_)
    assert np.array_equal(restored.predict_proba(X_test), expected)
    assert restored._stack is not None


def test_refit_predicts_from_the_new_trees():
    rng = np.random.default_rng(6)
    X_a, y_a = mixed_data(rng, 150, 9)
    X_b, y_b = mixed_data(rng, 150, 9)
    forest = fit_forest(X_a, y_a, 4, 7, 6)
    X_test = unseen_rows(rng, 50, 9)
    before = forest.predict_proba(X_test)
    forest.fit(X_b, 1 - y_b)
    after = forest.predict_proba(X_test)
    assert not np.array_equal(before, after)
    assert np.array_equal(after, sequential_mean(forest, X_test))
