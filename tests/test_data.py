import dataclasses

import numpy as np
import pytest

from clmc.data import (
    ClusteredDataset,
    ContrastFamily,
    build_contrasts,
    validate_dataset,
)


def make_dataset(ys=((1.0, 2.0), (0.5, 1.5)), p=1):
    y = np.concatenate(ys).astype(float)
    sizes = [len(v) for v in ys]
    x = np.random.default_rng(0).standard_normal((len(y), p))
    return ClusteredDataset(x, y, sizes, np.arange(len(ys)).astype(str))


def violation_columns():
    """(x, y, cluster sizes) of datasets with violations in several
    clusters, one cluster and none.  Responses outside a binary or positive
    coding are no violation: the kind is read off y."""
    rng = np.random.default_rng(2024)
    sizes = rng.integers(1, 5, 50)
    sizes[[20, 44]] = 3
    first = np.cumsum(sizes) - sizes
    x = rng.standard_normal((sizes.sum(), 2))
    y01 = rng.integers(0, 2, sizes.sum()).astype(float)
    out = []
    y, xb = y01.copy(), x.copy()
    y[first[[3, 20]]] = np.nan
    xb[first[7], 1] = np.inf
    y[first[[12, 41]]] = 2.0
    y[first[20] + 2] = 2.0
    out.append((xb, y, sizes))
    y, xb = 2.0 * y01 - 1.0, x.copy()
    y[first[5]] = 0.0
    xb[first[9], 0] = np.nan
    y[first[44] + 1] = 3.0
    out.append((xb, y, sizes))
    y, xb = np.exp(rng.standard_normal(sizes.sum())), x.copy()
    y[first[2]] = 0.0
    y[first[44]] = -3.0
    xb[first[44] + 2, 0] = np.nan
    y[first[47]] = -np.inf
    out.append((xb, y, sizes))
    y = rng.standard_normal(sizes.sum())
    y[first[10]] = np.nan
    out.append((x, y, sizes))
    out.append((x[:3], y[:3], np.array([3])))
    out.append((x[:0], y[:0], np.array([], dtype=int)))
    return out


class TestBuildContrasts:
    def test_many_to_one_p3_baseline1(self):
        cf = build_contrasts("many_to_one", 3, baseline=1)
        assert cf.kind == "many_to_one"
        np.testing.assert_array_equal(cf.matrix, [[1, -1, 0], [1, 0, -1]])

    def test_all_pairwise_p3(self):
        cf = build_contrasts("all_pairwise", 3)
        np.testing.assert_array_equal(cf.matrix, [[1, -1, 0], [1, 0, -1], [0, 1, -1]])

    def test_all_pairwise_p7_has_21_rows(self):
        cf = build_contrasts("all_pairwise", 7)
        assert cf.c == 21

    @pytest.mark.parametrize("p", [2, 3, 5, 11])
    def test_all_pairwise_row_count_and_zero_sums(self, p):
        cf = build_contrasts("all_pairwise", p)
        assert cf.c == p * (p - 1) // 2
        np.testing.assert_allclose(cf.matrix.sum(axis=1), 0.0)

    @pytest.mark.parametrize("p,b", [(2, 1), (4, 2), (6, 6)])
    def test_many_to_one_column_sums(self, p, b):
        cf = build_contrasts("many_to_one", p, baseline=b)
        assert cf.c == p - 1
        np.testing.assert_allclose(cf.matrix.sum(axis=1), 0.0)
        assert cf.matrix[:, b - 1].sum() == p - 1

    def test_ordering_is_deterministic(self):
        a = build_contrasts("all_pairwise", 5)
        b = build_contrasts("all_pairwise", 5)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.labels == b.labels

    def test_errors(self):
        with pytest.raises(ValueError):
            build_contrasts("all_pairwise", 1)
        with pytest.raises(ValueError):
            build_contrasts("many_to_one", 3)
        with pytest.raises(ValueError):
            build_contrasts("many_to_one", 3, baseline=4)
        with pytest.raises(ValueError):
            build_contrasts("many_to_one", 3, baseline=0)
        with pytest.raises(ValueError):
            build_contrasts("custom", 3)
        with pytest.raises(ValueError, match="^all_pairwise takes no baseline"):
            build_contrasts("all_pairwise", 3, baseline=1)

    @pytest.mark.parametrize("kind, p, baseline, message", [
        ("all_pairwise", 3.0, None, "p must be an integer, got 3.0"),
        ("many_to_one", 3, 1.5, "baseline must be an integer, got 1.5"),
    ], ids=["p-float", "baseline-float"])
    def test_non_integer_arguments_are_refused_by_name(self, kind, p, baseline, message):
        # the first once raised a bare TypeError, the second an IndexError
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_contrasts(kind, p, baseline=baseline)

    def test_numpy_integer_arguments_are_accepted(self):
        got = build_contrasts("many_to_one", np.int64(4), baseline=np.int32(2))
        want = build_contrasts("many_to_one", 4, baseline=2)
        np.testing.assert_array_equal(got.matrix, want.matrix)
        assert got.labels == want.labels


class TestContrastFamily:
    def test_rejects_zero_row(self):
        with pytest.raises(ValueError):
            ContrastFamily(np.array([[1.0, -1.0], [0.0, 0.0]]), ("a", "b"))

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            ContrastFamily(np.array([[1.0, -1.0]]), ("a", "b"))

    @pytest.mark.parametrize("matrix, labels, kind, message", [
        ([[1.0, -1.0]], ("a",), "dunnett", "unknown contrast kind 'dunnett'"),
        (np.zeros((0, 2)), (), "custom", "need at least one contrast"),
        # a nan weight once gave t = nan and accepted every hypothesis
        ([[1.0, np.nan]], ("a",), "custom", "contrast weights must be finite"),
        ([[1.0, -np.inf]], ("a",), "custom", "contrast weights must be finite"),
    ], ids=["unknown-kind", "no-rows", "nan-weight", "inf-weight"])
    def test_malformed_family_is_refused_by_name(self, matrix, labels, kind, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            ContrastFamily(np.array(matrix), labels, kind)

    def test_rows_are_stored_at_a_power_of_two_scale(self):
        given = np.array([[1e160, -1e160, 0.0], [1e-320, 0.0, -3e-320], [3.0, 1.5, -0.25]])
        m = ContrastFamily(given, ("a", "b", "c")).matrix
        assert ((np.abs(m).max(axis=1) >= 1.0) & (np.abs(m).max(axis=1) < 2.0)).all()
        # each row is the given one times a power of two, read off its first weight
        shift = np.frexp(m[:, 0])[1] - np.frexp(given[:, 0])[1]
        np.testing.assert_array_equal(np.ldexp(given, shift[:, None]), m)
        np.testing.assert_array_equal(m[2], [1.5, 0.75, -0.125])


class TestValidateDataset:
    def test_valid_dataset_empty_report(self):
        assert validate_dataset(make_dataset()) == []

    def test_shape_mismatch_is_a_constructor_error(self):
        # columns cannot hold a cluster whose x and y disagree: the
        # constructor rejects arrays that do not fit together
        ids = ["g", "bad"]
        with pytest.raises(ValueError, match="covariates"):
            ClusteredDataset(np.zeros((7, 1)), np.zeros(6), [3, 3], ids)
        with pytest.raises(ValueError, match="covariates"):
            ClusteredDataset(np.zeros(6), np.zeros(6), [3, 3], ids)
        with pytest.raises(ValueError, match="sum to the 6 rows"):
            ClusteredDataset(np.zeros((6, 1)), np.zeros(6), [3, 4], ids)
        with pytest.raises(ValueError, match="one id per cluster"):
            ClusteredDataset(np.zeros((6, 1)), np.zeros(6), [3, 3], ["g"])

    def test_ids_are_kept_verbatim(self):
        # a fixed-width string array would drop the trailing NUL and merge the ids
        d = ClusteredDataset(np.zeros((2, 1)), np.zeros(2), [1, 1], ["a", "a\x00"])
        assert d.ids.tolist() == ["a", "a\x00"]

    def test_omitted_ids_read_back_as_cluster_numbers(self):
        d = ClusteredDataset(np.zeros((5, 1)), np.zeros(5), [2, 1, 2])
        assert d.ids.tolist() == ["0", "1", "2"]
        assert all(type(i) is str for i in d.ids)
        assert d.ids is d.ids  # made on the first read, then kept
        given = ClusteredDataset(d.x, d.y, d.cluster_sizes, np.arange(3).astype(str))
        np.testing.assert_array_equal(given.ids, d.ids)
        assert dataclasses.replace(d, y=d.y + 1.0).ids.tolist() == ["0", "1", "2"]

    def test_omitted_ids_name_the_clusters_of_messages(self):
        d = ClusteredDataset(np.zeros((5, 1)), [0.0, 0.0, 0.0, np.nan, 0.0], [2, 1, 2])
        assert validate_dataset(d) == ["2: non-finite value in y or x"]

    def test_single_cluster_flagged(self):
        d = ClusteredDataset(np.ones((2, 1)), np.ones(2), [2], ["0"])
        assert any("2 clusters" in msg for msg in validate_dataset(d))

    def test_messages_match_the_per_cluster_validator(self):
        # recorded from the validator that looped over one object per cluster
        recorded = [
            ["3: non-finite value in y or x", "7: non-finite value in y or x",
             "20: non-finite value in y or x"],
            ["9: non-finite value in y or x"],
            ["44: non-finite value in y or x", "47: non-finite value in y or x"],
            ["10: non-finite value in y or x"],
            ["need at least 2 clusters, got 1"],
            ["need at least 2 clusters, got 0"],
        ]
        for (x, y, sizes), want in zip(violation_columns(), recorded, strict=True):
            d = ClusteredDataset(x, y, sizes, np.arange(len(sizes)).astype(str))
            assert validate_dataset(d) == want

    def test_nonfinite_flagged(self):
        d = make_dataset(ys=((np.nan, 1.0), (0.0, 1.0)))
        assert validate_dataset(d) == ["0: non-finite value in y or x"]


class TestResponseKind:
    @pytest.mark.parametrize("y, kind", [
        ([0.0, 1.0, 1.0, 0.0], "binary01"),
        ([1.0, 1.0, 1.0, 1.0], "binary01"),  # every coding holds all ones; {0,1} comes first
        ([-1.0, 1.0, 1.0, -1.0], "binary_pm1"),
        ([-1.0, -1.0, -1.0, -1.0], "binary_pm1"),
        ([0.5, 2.0, 3.0, 1.0], "positive"),
        ([0.0, 2.0, 3.0, 1.0], "continuous"),
        ([-0.5, 2.0, 1.0, 1.0], "continuous"),
        ([np.nan, 1.0, 1.0, 0.0], "continuous"),
    ])
    def test_kind_is_read_off_y(self, y, kind):
        assert make_dataset(ys=(y[:2], y[2:])).response_kind == kind

    def test_replacing_y_changes_the_kind(self):
        d = make_dataset(ys=((0.0, 1.0), (1.0, 0.0)))
        assert d.response_kind == "binary01"
        assert dataclasses.replace(d, y=2.0 * d.y - 1.0).response_kind == "binary_pm1"
        assert dataclasses.replace(d, y=d.y + 0.5).response_kind == "positive"
        assert dataclasses.replace(d, y=d.y - 0.5).response_kind == "continuous"
