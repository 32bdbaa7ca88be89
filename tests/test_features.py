from fractions import Fraction

import numpy as np
import pytest

from ididiv import (
    BehaviorMatrix,
    BehaviorSequence,
    SelectionConfig,
    build_matrix,
    builtin_domain,
    constant_tree,
    extract_features,
    generate_known_models,
    matrix_to_csv,
    pivot_decompose,
    project_level0,
    save_candidate_set,
    select_topk,
)
from ididiv.cli import main
from conftest import node, random_tree_set


def _dummy_columns(n):
    return tuple(BehaviorSequence(("c%d" % k,), ()) for k in range(n))


def _reconstruct(piv, shape):
    """F x U in exact rational arithmetic."""
    out = [[Fraction(0)] * shape[1] for _ in range(shape[0])]
    for i in range(shape[0]):
        for k in range(piv.rank):
            f = int(piv.f_matrix[i, k])
            if f:
                for c in range(shape[1]):
                    out[i][c] += f * piv.u_matrix[k][c]
    return out


class TestBuildMatrix:
    def test_first_appearance_order(self):
        ta = constant_tree("A", ("o1", "o2"), 2)
        tb = node("A", node("A"), node("B"))
        m = build_matrix([ta, tb])
        assert [c.compact() for c in m.columns] == ["A/o1/A", "A/o2/A", "A/o2/B"]
        assert m.entries.tolist() == [[1, 1, 0], [1, 0, 1]]

    def test_row_ids_default(self, fig_trees):
        m = build_matrix(fig_trees)
        assert m.row_ids == ("tree1", "tree2", "tree3", "tree4")

    def test_fixture_dimensions(self, fig_trees):
        m = build_matrix(fig_trees)
        # 12 distinct full sequences across the four trees, 4 per tree.
        assert m.entries.shape == (4, 12)
        assert m.entries.sum(axis=1).tolist() == [4, 4, 4, 4]

    def test_column_set_matches_sequences(self, fig_trees):
        m = build_matrix(fig_trees)
        union = set()
        for t in fig_trees:
            union |= set(build_matrix([t]).columns)
        assert set(m.columns) == union

    def test_mixed_depth_rejected(self):
        with pytest.raises(ValueError):
            build_matrix([constant_tree("A", ("o",), 1), constant_tree("A", ("o",), 2)])

    def test_bad_row_ids(self, fig_trees):
        with pytest.raises(ValueError):
            BehaviorMatrix(("r", "r"), _dummy_columns(2), np.eye(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_matrix([])


class TestPivotDecompose:
    def test_identity_u_on_full_rank_lower_triangular(self):
        # Classic full-rank pattern: U collapses to the identity and F is
        # the matrix itself.
        entries = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 1]], dtype=np.uint8)
        m = BehaviorMatrix(("h1", "h2", "h3"), _dummy_columns(3), entries)
        piv = pivot_decompose(m)
        assert piv.rank == 3
        assert piv.pivot_indices == (0, 1, 2)
        ident = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(3)) for i in range(3)
        )
        assert piv.u_matrix == ident
        assert piv.f_matrix.tolist() == entries.tolist()
        assert _reconstruct(piv, entries.shape) == [
            [Fraction(int(x)) for x in row] for row in entries
        ]

    def test_fixture_rank(self, fig_trees):
        # Hand argument: tree 4 is support-disjoint, trees 2 and 3 each own
        # a private column, so all four rows are independent.
        piv = pivot_decompose(build_matrix(fig_trees))
        assert piv.rank == 4

    def test_rank_one(self):
        m = build_matrix([constant_tree("A", ("o1", "o2"), 2)])
        piv = pivot_decompose(m)
        assert piv.rank == 1
        assert piv.pivot_indices == (0,)
        assert piv.pivot_sequences[0].compact() == "A/o1/A"

    def test_duplicate_rows_collapse_rank(self):
        t = constant_tree("A", ("o1", "o2"), 2)
        m = BehaviorMatrix(
            ("r1", "r2"),
            build_matrix([t]).columns,
            np.array([[1, 1], [1, 1]], dtype=np.uint8),
        )
        piv = pivot_decompose(m)
        assert piv.rank == 1
        assert _reconstruct(piv, (2, 2)) == [[1, 1], [1, 1]]

    def test_exact_reconstruction_random(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            nr = int(rng.integers(1, 7))
            nc = int(rng.integers(1, 17))
            ent = rng.integers(0, 2, size=(nr, nc)).astype(np.uint8)
            m = BehaviorMatrix(
                tuple("r%d" % k for k in range(nr)), _dummy_columns(nc), ent
            )
            piv = pivot_decompose(m)
            assert _reconstruct(piv, ent.shape) == [
                [Fraction(int(x)) for x in row] for row in ent
            ]
            # Pivot submatrix of U is the identity.
            for a, ca in enumerate(piv.pivot_indices):
                for b, cb in enumerate(piv.pivot_indices):
                    assert piv.u_matrix[a][cb] == (1 if a == b else 0)


def _rational_pivot(ent):
    """Gauss-Jordan over Fractions, leftmost pivots: (pivots, rref rows)."""
    nrows, ncols = ent.shape
    rows = [[Fraction(int(x)) for x in ent[r]] for r in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((k for k in range(r, nrows) if rows[k][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(pivots), tuple(tuple(rows[k]) for k in range(len(pivots)))


def _assert_matches_rational(m):
    piv = pivot_decompose(m)
    pivots, u = _rational_pivot(m.entries)
    assert (piv.pivot_indices, piv.rank) == (pivots, len(pivots))
    assert piv.u_matrix == u
    assert all(type(v) is Fraction for row in piv.u_matrix for v in row)
    assert piv.f_matrix.tolist() == m.entries[:, list(pivots)].tolist()


class TestIntegerElimination:
    """The fraction-free elimination against the rational one, as oracle."""

    def test_random_matrices(self):
        rng = np.random.default_rng(2024)
        for _ in range(3000):
            nr = int(rng.integers(1, 9))
            nc = int(rng.integers(1, 25))
            ent = rng.integers(0, 2, size=(nr, nc)).astype(np.uint8)
            _assert_matches_rational(
                BehaviorMatrix(tuple("r%d" % k for k in range(nr)), _dummy_columns(nc), ent)
            )

    def test_uav_horizon4_topk_set(self):
        # The set `ididiv --domain uav topk --horizon 4 --k-max 30` builds.
        m = build_matrix(_topk_set(builtin_domain("uav", 4), 30).trees)
        assert m.entries.shape[0] == 30
        _assert_matches_rational(m)


def _topk_set(domain, k_max):
    """The candidate set `ididiv topk --known 3 --k-max k_max` builds at seed 0."""
    level0 = project_level0(domain, "j")
    known_ss, select_ss = np.random.SeedSequence(0).spawn(2)
    known = generate_known_models(level0, 3, seed=known_ss)
    return select_topk(known, level0, SelectionConfig(k_max=k_max, seed=select_ss))


class TestLazyU:
    """U's Fractions are formed when u_matrix is first read, and only then."""

    @pytest.fixture
    def fractions_made(self, monkeypatch):
        # features imports Fraction only inside u_matrix, so the class
        # itself is patched.  A subclass bound as fractions.Fraction would
        # recurse: Fraction.__new__ calls super(Fraction, cls).
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kw):
            made.append(args)
            return new(cls, *args, **kw)

        monkeypatch.setattr(Fraction, "__new__", counted)
        return made

    def test_features_paths_form_no_fraction(self, fractions_made, tmp_path):
        cs = _topk_set(builtin_domain("uav", 4), 30)
        assert len(extract_features(cs.trees)) == 30
        path = save_candidate_set(cs, tmp_path / "candidates.json")
        assert main(["--out-dir", str(tmp_path / "out"), "features", "--trees", str(path)]) == 0
        assert fractions_made == []
        # The counter sees the Fractions u_matrix forms.
        piv = pivot_decompose(build_matrix(cs.trees))
        assert piv.u_matrix is piv.u_matrix
        assert len(fractions_made) == piv.rank * len(piv.u_rows[0])

    @pytest.mark.parametrize(
        "name, horizon, k_max", [("tiger", 3, 10), ("uav", 3, 30), ("uav", 4, 30)]
    )
    def test_equals_the_rational_elimination_on_candidate_sets(self, name, horizon, k_max):
        cs = _topk_set(builtin_domain(name, horizon), k_max)
        _assert_matches_rational(build_matrix(cs.trees))

    def test_equals_the_rational_elimination_on_criterion_2_matrices(self):
        # Criterion 2 draws 0/1 matrices of 1-8 rows and 1-64 columns.
        rng = np.random.default_rng(7)
        for _ in range(200):
            nr, nc = int(rng.integers(1, 9)), int(rng.integers(1, 65))
            ent = rng.integers(0, 2, size=(nr, nc)).astype(np.uint8)
            _assert_matches_rational(
                BehaviorMatrix(tuple("h%d" % k for k in range(nr)), _dummy_columns(nc), ent)
            )


class TestPivotPositions:
    def test_disjoint_support_pivot_arrangement(self):
        """Three depth-4 constant trees under an explicit column order.

        Each tree realizes 8 private sequences.  Ordering the 24 columns as
        five of tree 1, one of tree 2, one more of tree 1, one of tree 3,
        then the rest pushes the pivots to 1-indexed positions (1, 6, 8):
        elimination takes the first tree-1 column, skips the other tree-1
        columns as dependent, and picks each remaining tree's first column
        where it appears.
        """
        obs = ("o1", "o2")
        trees = [constant_tree(a, obs, 4) for a in ("A", "B", "C")]
        base = build_matrix(trees)
        s1 = list(range(0, 8))
        s2 = list(range(8, 16))
        s3 = list(range(16, 24))
        order = s1[:5] + [s2[0]] + [s1[5]] + [s3[0]] + s1[6:] + s2[1:] + s3[1:]
        assert sorted(order) == list(range(24))
        m = BehaviorMatrix(
            base.row_ids,
            tuple(base.columns[c] for c in order),
            base.entries[:, order],
        )
        piv = pivot_decompose(m)
        assert piv.rank == 3
        assert tuple(p + 1 for p in piv.pivot_indices) == (1, 6, 8)
        assert _reconstruct(piv, m.entries.shape) == [
            [Fraction(int(x)) for x in row] for row in m.entries
        ]


class TestExtractFeatures:
    def test_features_are_sequences(self, fig_trees):
        feats = extract_features(fig_trees)
        assert len(feats) == 4
        assert all(f.length == 3 for f in feats)
        # Leftmost pivots on a first-appearance matrix: the first feature
        # is the first tree's first sequence.
        assert feats[0] == build_matrix(fig_trees[:1]).columns[0]

    def test_features_subset_of_columns(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            trees, _, _ = random_tree_set(rng)
            m = build_matrix(trees)
            feats = extract_features(trees)
            assert set(feats) <= set(m.columns)
            assert len(feats) == pivot_decompose(m).rank


class TestCsv:
    def test_golden(self):
        ta = constant_tree("A", ("o1", "o2"), 2)
        tb = node("A", node("A"), node("B"))
        text = matrix_to_csv(build_matrix([ta, tb]))
        assert text == (
            "tree,A/o1/A,A/o2/A,A/o2/B\n"
            "tree1,1,1,0\n"
            "tree2,1,0,1\n"
        )
