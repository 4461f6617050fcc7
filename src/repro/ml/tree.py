"""CART decision tree classifier (numpy, vectorized split search).

The building block of :class:`repro.ml.forest.RandomForestClassifier`.
Implements binary splits on numeric features with Gini or entropy impurity,
depth / minimum-sample stopping rules, and per-leaf class probability
estimates.  Split search is vectorized: features are sorted once per node
and impurities for every candidate threshold are computed from cumulative
class counts, so training 50 trees of depth 30 on tens of thousands of rows
(the paper's Table 3 configuration) is feasible in pure numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.base import BaseClassifier, check_Xy

__all__ = ["DecisionTreeClassifier", "TreeNode"]


@dataclass
class TreeNode:
    """One node of a fitted tree.

    Internal nodes carry ``feature`` plus either a numeric ``threshold``
    (``x <= threshold`` goes left) or, for categorical splits, a
    ``categories_left`` set (membership goes left); leaves carry only
    ``proba`` (class distribution of their training samples).
    """

    proba: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    categories_left: frozenset[float] | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    # Routing accelerators for categorical splits (built on node creation):
    # an integer lookup table when all codes are non-negative integers,
    # otherwise a sorted array for np.isin.
    _category_table: np.ndarray | None = None
    _category_array: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def prepare_categories(self) -> None:
        """Precompute fast-membership structures for ``categories_left``."""
        if self.categories_left is None:
            return
        codes = np.array(sorted(self.categories_left), dtype=np.float64)
        as_int = codes.astype(np.int64)
        if codes.size and (codes == as_int).all() and as_int.min() >= 0:
            table = np.zeros(int(as_int.max()) + 1, dtype=bool)
            table[as_int] = True
            self._category_table = table
        else:
            self._category_array = codes

    def membership_mask(self, values: np.ndarray) -> np.ndarray:
        """Which of ``values`` belong to the left (member) branch."""
        if self._category_table is not None:
            codes = values.astype(np.int64)
            in_range = (
                (codes >= 0)
                & (codes < self._category_table.size)
                & (values == codes)
            )
            mask = np.zeros(values.shape[0], dtype=bool)
            mask[in_range] = self._category_table[codes[in_range]]
            return mask
        if self._category_array is not None:
            positions = np.searchsorted(self._category_array, values)
            positions = np.clip(positions, 0, self._category_array.size - 1)
            return self._category_array[positions] == values
        return np.isin(values, list(self.categories_left or ()))


def _impurity_from_counts(counts: np.ndarray, totals: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity per candidate split side from class-count rows.

    ``counts``: (n_candidates, n_classes); ``totals``: (n_candidates,).
    Rows with zero total get impurity 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        proportions = counts / totals[:, None]
        proportions = np.nan_to_num(proportions)
        if criterion == "gini":
            return 1.0 - np.sum(proportions**2, axis=1)
        logs = np.where(proportions > 0, np.log2(proportions), 0.0)
        return -np.sum(proportions * logs, axis=1)


#: Most (tree, row) positions routed at once.  A stacked forest walks every
#: row through every tree together, so its temporaries grow with
#: rows x trees; larger batches are cut into row blocks of at most this many
#: positions, which keeps memory flat and the working set in cache.
_BLOCK_POSITIONS = 65_536


class _FlatTree:
    """Array representation of fitted trees for vectorized routing.

    Per node: split feature, threshold, child ids, leaf flag, leaf
    distribution, and — for categorical splits — a row in a shared boolean
    membership matrix indexed by integer category code.  One instance holds
    a *stack* of trees: their node arrays are concatenated with node
    offsets and ``roots`` lists each tree's root id.  A single tree is a
    stack of one.
    """

    def __init__(self, feature: np.ndarray, threshold: np.ndarray,
                 left: np.ndarray, right: np.ndarray, is_leaf: np.ndarray,
                 proba: np.ndarray, cat_row: np.ndarray,
                 cat_matrix: np.ndarray | None,
                 fallback_nodes: dict[int, TreeNode],
                 roots: np.ndarray):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.is_leaf = is_leaf
        self.proba = proba
        self.cat_row = cat_row          # -1: numeric; -2: non-integer cats
        # (n_cat_nodes, max_code + 2) bools: the last column is all False,
        # and every code that is no valid column (negative, unseen,
        # non-integer) is pointed at it.
        self.cat_matrix = cat_matrix
        self.fallback_nodes = fallback_nodes  # non-integer categorical nodes
        self.roots = roots              # root node id of each stacked tree
        # Routing accelerators: both child ids of node i at 2i (right) and
        # 2i + 1 (left), so a step is one gather indexed by the comparison;
        # the membership matrix raveled, and each categorical node's first
        # cell in it (-1 elsewhere).
        self._children = np.stack([right, left], axis=1).ravel()
        if cat_matrix is not None:
            self._cat_flat = cat_matrix.ravel()
            self._cat_base = np.where(cat_row >= 0, cat_row * cat_matrix.shape[1], -1)

    @staticmethod
    def from_root(root: TreeNode, n_classes: int) -> "_FlatTree":
        nodes: list[TreeNode] = []

        def collect(node: TreeNode) -> int:
            index = len(nodes)
            nodes.append(node)
            if not node.is_leaf:
                collect(node.left)   # children appended depth-first
                collect(node.right)
            return index

        collect(root)
        # Re-walk to record child indexes (depth-first layout).
        child_index: dict[int, tuple[int, int]] = {}

        def assign(node: TreeNode, index: int) -> int:
            """Returns the next free index after this subtree."""
            if node.is_leaf:
                return index + 1
            left_index = index + 1
            right_index = assign(node.left, left_index)
            end = assign(node.right, right_index)
            child_index[index] = (left_index, right_index)
            return end

        assign(root, 0)

        count = len(nodes)
        feature = np.full(count, -1, dtype=np.int64)
        threshold = np.zeros(count, dtype=np.float64)
        left = np.zeros(count, dtype=np.int64)
        right = np.zeros(count, dtype=np.int64)
        is_leaf = np.zeros(count, dtype=bool)
        proba = np.zeros((count, n_classes), dtype=np.float64)
        cat_row = np.full(count, -1, dtype=np.int64)
        cat_tables: list[np.ndarray] = []
        fallback: dict[int, TreeNode] = {}
        max_code = 0

        for i, node in enumerate(nodes):
            proba[i] = node.proba
            if node.is_leaf:
                is_leaf[i] = True
                continue
            feature[i] = node.feature
            threshold[i] = node.threshold
            left[i], right[i] = child_index[i]
            if node.categories_left is not None:
                if node._category_table is not None:
                    cat_row[i] = len(cat_tables)
                    cat_tables.append(node._category_table)
                    max_code = max(max_code, node._category_table.size)
                else:
                    cat_row[i] = -2
                    fallback[i] = node

        if cat_tables:
            cat_matrix = np.zeros((len(cat_tables), max_code + 1), dtype=bool)
            for row, table in enumerate(cat_tables):
                cat_matrix[row, : table.size] = table
        else:
            cat_matrix = None
        return _FlatTree(feature, threshold, left, right, is_leaf, proba,
                         cat_row, cat_matrix, fallback,
                         np.zeros(1, dtype=np.int64))

    @staticmethod
    def stack(trees: "list[_FlatTree]") -> "_FlatTree":
        """Concatenate ``trees`` into one stack, in order."""
        sizes = [tree.feature.size for tree in trees]
        offsets = np.cumsum([0] + sizes[:-1])
        cat_sizes = [
            0 if tree.cat_matrix is None else tree.cat_matrix.shape[0]
            for tree in trees
        ]
        cat_offsets = np.cumsum([0] + cat_sizes[:-1])
        cat_row = np.concatenate([
            np.where(tree.cat_row >= 0, tree.cat_row + cat_offset, tree.cat_row)
            for tree, cat_offset in zip(trees, cat_offsets)
        ])
        tables = [tree.cat_matrix for tree in trees if tree.cat_matrix is not None]
        cat_matrix = None
        if tables:
            cat_matrix = np.zeros(
                (sum(cat_sizes), max(table.shape[1] for table in tables)),
                dtype=bool,
            )
            start = 0
            for table in tables:
                cat_matrix[start : start + table.shape[0], : table.shape[1]] = table
                start += table.shape[0]
        fallback = {
            int(offset) + node_id: node
            for tree, offset in zip(trees, offsets)
            for node_id, node in tree.fallback_nodes.items()
        }
        return _FlatTree(
            np.concatenate([tree.feature for tree in trees]),
            np.concatenate([tree.threshold for tree in trees]),
            np.concatenate([tree.left + o for tree, o in zip(trees, offsets)]),
            np.concatenate([tree.right + o for tree, o in zip(trees, offsets)]),
            np.concatenate([tree.is_leaf for tree in trees]),
            np.concatenate([tree.proba for tree in trees]),
            cat_row, cat_matrix, fallback,
            np.concatenate([tree.roots + o for tree, o in zip(trees, offsets)]),
        )

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean over the stacked trees of each row's leaf distribution.

        Leaf rows are summed in tree order and divided by the tree count,
        so the result is bit-identical to averaging per-tree predictions.
        """
        n_trees = self.roots.size
        out = np.zeros((X.shape[0], self.proba.shape[1]), dtype=np.float64)
        block = max(1, _BLOCK_POSITIONS // n_trees)
        for start in range(0, X.shape[0], block):
            total = out[start : start + block]
            for leaves in self._route(X[start : start + block]):
                total += self.proba[leaves]
        out /= n_trees
        return out

    def _route(self, X: np.ndarray) -> np.ndarray:
        """Leaf id of every (tree, row): shape ``(n_trees, n_rows)``.

        Level-synchronous: one gather + compare per depth level for all
        positions of all trees, dropping positions as they reach a leaf.
        """
        n_rows, n_features = X.shape
        values_flat = np.ascontiguousarray(X).ravel()
        if self.cat_matrix is not None:
            # Each cell's column in the membership matrix, computed once
            # per call rather than once per level.
            false_column = self.cat_matrix.shape[1] - 1
            with np.errstate(invalid="ignore"):
                codes = values_flat.astype(np.int64)
            valid = (codes >= 0) & (codes < false_column) & (values_flat == codes)
            codes = np.where(valid, codes, false_column)
        position = np.repeat(self.roots, n_rows)
        active = np.flatnonzero(~self.is_leaf[position])
        rows = active % n_rows
        while active.size:
            node_ids = position[active]
            cells = rows * n_features + self.feature[node_ids]
            values = values_flat[cells]
            go_left = values <= self.threshold[node_ids]
            if self.cat_matrix is not None:
                base = self._cat_base[node_ids]
                categorical = base >= 0
                if np.count_nonzero(categorical):
                    go_left[categorical] = self._cat_flat[
                        base[categorical] + codes[cells[categorical]]
                    ]
            if self.fallback_nodes:
                for offset in np.flatnonzero(self.cat_row[node_ids] == -2):
                    node = self.fallback_nodes[int(node_ids[offset])]
                    go_left[offset] = bool(
                        node.membership_mask(values[offset : offset + 1])[0]
                    )
            following = self._children[2 * node_ids + go_left]
            position[active] = following
            inner = ~self.is_leaf[following]
            active = active[inner]
            rows = rows[inner]
        return position.reshape(self.roots.size, n_rows)


class DecisionTreeClassifier(BaseClassifier):
    """CART tree with Gini/entropy impurity and vectorized split search.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (paper Table 3 uses 30).
    min_samples_split / min_samples_leaf:
        Minimum node/leaf sizes.
    max_features:
        Features examined per split: None (all), ``"sqrt"``, or an int.
        Random forests pass ``"sqrt"``.
    criterion:
        ``"gini"`` (default) or ``"entropy"``.
    random_state:
        Seed for the feature-subset sampler.
    categorical_features:
        Column indexes whose values are category codes rather than ordered
        numbers.  These columns use CART's exact categorical split for
        binary targets (categories ordered by positive rate, best prefix
        taken), which is also what Spark ML's trees do — and is essential
        for high-cardinality features like the alarm location.  With more
        than two classes the column falls back to threshold splits.
    """

    def __init__(self, max_depth: int = 30, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features: int | str | None = None,
                 criterion: str = "gini", random_state: int | None = None,
                 categorical_features: set[int] | frozenset[int] | None = None) -> None:
        if max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise ConfigurationError(
                f"min_samples_split must be >= 2, got {min_samples_split}"
            )
        if min_samples_leaf < 1:
            raise ConfigurationError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}"
            )
        if criterion not in ("gini", "entropy"):
            raise ConfigurationError(f"criterion must be gini|entropy, got {criterion!r}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.random_state = random_state
        self.categorical_features = (
            frozenset(categorical_features) if categorical_features else frozenset()
        )
        self.root_: TreeNode | None = None
        self.n_classes_: int | None = None
        self.n_features_: int | None = None
        self.n_nodes_: int = 0
        self.feature_importances_: np.ndarray | None = None
        self._flat: _FlatTree | None = None

    # -- training ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int | None = None) -> "DecisionTreeClassifier":
        """Grow the tree on ``(X, y)``.

        ``n_classes`` can widen the probability vectors beyond the labels
        present (needed when a forest's bootstrap sample misses a class).
        """
        X, y = check_Xy(X, y)
        self.n_classes_ = n_classes if n_classes is not None else int(y.max()) + 1
        self.n_features_ = X.shape[1]
        self.n_nodes_ = 0
        self._rng = np.random.default_rng(self.random_state)
        self._importance_acc = np.zeros(self.n_features_, dtype=np.float64)
        self.root_ = self._grow(X, y, depth=0)
        total = self._importance_acc.sum()
        self.feature_importances_ = (
            self._importance_acc / total if total > 0
            else np.zeros(self.n_features_, dtype=np.float64)
        )
        self._flat = _FlatTree.from_root(self.root_, self.n_classes_)
        return self

    def _n_split_features(self) -> int:
        assert self.n_features_ is not None
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if isinstance(self.max_features, int) and self.max_features >= 1:
            return min(self.max_features, self.n_features_)
        raise ConfigurationError(f"invalid max_features {self.max_features!r}")

    def _leaf(self, y: np.ndarray) -> TreeNode:
        counts = np.bincount(y, minlength=self.n_classes_).astype(np.float64)
        self.n_nodes_ += 1
        return TreeNode(proba=counts / counts.sum())

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> TreeNode:
        n_samples = X.shape[0]
        if (depth >= self.max_depth or n_samples < self.min_samples_split
                or np.all(y == y[0])):
            return self._leaf(y)

        split = self._best_split(X, y)
        if split is None:
            return self._leaf(y)
        feature, threshold, categories_left, gain = split
        self._importance_acc[feature] += gain * n_samples

        node = self._leaf(y)  # carries this node's distribution for pruning/inspection
        node.feature = feature
        node.threshold = threshold
        node.categories_left = categories_left
        node.prepare_categories()
        if categories_left is not None:
            mask = node.membership_mask(X[:, feature])
        else:
            mask = X[:, feature] <= threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[int, float, frozenset[float] | None, float] | None:
        """Best (feature, threshold, categories_left, gain) over a feature subset."""
        n_samples = X.shape[0]
        features = self._rng.permutation(self.n_features_)[: self._n_split_features()]
        parent_counts = np.bincount(y, minlength=self.n_classes_).astype(np.float64)
        parent_impurity = _impurity_from_counts(
            parent_counts[None, :], np.array([float(n_samples)]), self.criterion
        )[0]

        best: tuple[int, float, frozenset[float] | None, float] | None = None
        best_score = parent_impurity - 1e-12  # must strictly improve
        for feature in features:
            column = X[:, feature]
            use_categorical = (
                int(feature) in self.categorical_features and self.n_classes_ == 2
            )
            if use_categorical:
                candidate = self._best_categorical_split(
                    column, y, parent_counts, n_samples
                )
                if candidate is not None and candidate[1] < best_score:
                    categories_left, score = candidate
                    best_score = score
                    best = (
                        int(feature), 0.0, categories_left, parent_impurity - score
                    )
                continue
            order = np.argsort(column, kind="mergesort")
            sorted_vals = column[order]
            sorted_labels = y[order]
            # Candidate boundaries: positions where the value changes.
            change = np.nonzero(sorted_vals[1:] != sorted_vals[:-1])[0]
            if change.size == 0:
                continue
            onehot = np.zeros((n_samples, self.n_classes_), dtype=np.float64)
            onehot[np.arange(n_samples), sorted_labels] = 1.0
            cumulative = np.cumsum(onehot, axis=0)
            left_counts = cumulative[change]
            left_totals = (change + 1).astype(np.float64)
            right_counts = parent_counts[None, :] - left_counts
            right_totals = n_samples - left_totals
            valid = (left_totals >= self.min_samples_leaf) & (
                right_totals >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            left_impurity = _impurity_from_counts(left_counts, left_totals, self.criterion)
            right_impurity = _impurity_from_counts(right_counts, right_totals, self.criterion)
            weighted = (left_totals * left_impurity + right_totals * right_impurity) / n_samples
            weighted[~valid] = np.inf
            best_idx = int(np.argmin(weighted))
            if weighted[best_idx] < best_score:
                boundary = change[best_idx]
                threshold = float(
                    (sorted_vals[boundary] + sorted_vals[boundary + 1]) / 2.0
                )
                best_score = float(weighted[best_idx])
                best = (int(feature), threshold, None, parent_impurity - best_score)
        return best

    def _best_categorical_split(
        self, column: np.ndarray, y: np.ndarray,
        parent_counts: np.ndarray, n_samples: int,
    ) -> tuple[frozenset[float], float] | None:
        """Exact binary-target categorical split (Breiman's ordering trick).

        Categories sorted by their positive rate reduce the exponential
        subset search to a linear prefix scan without losing optimality.
        """
        categories, inverse = np.unique(column, return_inverse=True)
        if categories.size < 2:
            return None
        positives = np.bincount(inverse, weights=(y == 1).astype(np.float64))
        totals = np.bincount(inverse).astype(np.float64)
        rates = positives / totals
        order = np.argsort(rates, kind="mergesort")
        # Prefix sums along the rate ordering give every candidate split.
        sorted_positives = positives[order]
        sorted_totals = totals[order]
        left_pos = np.cumsum(sorted_positives)[:-1]
        left_tot = np.cumsum(sorted_totals)[:-1]
        right_pos = parent_counts[1] - left_pos
        right_tot = n_samples - left_tot
        left_counts = np.column_stack([left_tot - left_pos, left_pos])
        right_counts = np.column_stack([right_tot - right_pos, right_pos])
        valid = (left_tot >= self.min_samples_leaf) & (right_tot >= self.min_samples_leaf)
        if not valid.any():
            return None
        left_impurity = _impurity_from_counts(left_counts, left_tot, self.criterion)
        right_impurity = _impurity_from_counts(right_counts, right_tot, self.criterion)
        weighted = (left_tot * left_impurity + right_tot * right_impurity) / n_samples
        weighted[~valid] = np.inf
        best_idx = int(np.argmin(weighted))
        if not np.isfinite(weighted[best_idx]):
            return None
        categories_left = frozenset(
            float(c) for c in categories[order[: best_idx + 1]]
        )
        return categories_left, float(weighted[best_idx])

    # -- prediction ----------------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class distribution of the leaf each row lands in.

        The tree is routed as a stack of one through the same
        level-synchronous traversal a forest uses for all its trees (one
        gather + compare per depth level for *all* rows), which keeps
        prediction vectorized even for deep trees.
        """
        X = self._check_predict_input(X)
        return self._flattened().predict_proba(X)

    def _flattened(self) -> _FlatTree:
        """The flat arrays of the fitted tree, rebuilt if unpickled."""
        assert self.root_ is not None and self.n_classes_ is not None
        if getattr(self, "_flat", None) is None:
            self._flat = _FlatTree.from_root(self.root_, self.n_classes_)
        return self._flat

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_flat"] = None  # rebuilt lazily after unpickling
        return state

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        def walk(node: TreeNode | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))
        return walk(self.root_)
