"""Value-type construction, validation, and immutability."""

import numpy as np
import pytest

from sparseproj.errors import DimensionMismatch, NonFiniteInput, SparseProjError
from sparseproj.types import Dataset, PriorConfig, map_chunks, validate_dataset


def test_validate_dataset_tiny_example():
    ds = validate_dataset(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
    assert ds.n == 2 and ds.p == 1
    np.testing.assert_allclose(ds.gram, [[1.0]])
    np.testing.assert_allclose(ds.xty, [2.0])


def test_validate_dataset_normalizes_by_n():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 3))
    Y = rng.standard_normal(40)
    ds = validate_dataset(X, Y)
    np.testing.assert_allclose(ds.gram, X.T @ X / 40, rtol=1e-12)
    np.testing.assert_allclose(ds.xty, X.T @ Y / 40, rtol=1e-12)
    np.testing.assert_array_equal(ds.gram, ds.gram.T)


def test_validate_dataset_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_dataset(np.ones((3, 2)), np.ones(2))


def test_validate_dataset_rejects_nan_and_inf():
    X = np.ones((4, 2))
    Y = np.ones(4)
    Xbad = X.copy()
    Xbad[1, 0] = np.nan
    with pytest.raises(NonFiniteInput):
        validate_dataset(Xbad, Y)
    Ybad = Y.copy()
    Ybad[0] = np.inf
    with pytest.raises(NonFiniteInput):
        validate_dataset(X, Ybad)


def test_validate_dataset_rejects_empty():
    with pytest.raises(DimensionMismatch):
        validate_dataset(np.ones((0, 2)), np.ones(0))


def test_dataset_arrays_are_read_only():
    ds = validate_dataset(np.eye(3), np.arange(3.0))
    for arr in (ds.gram, ds.xty, ds.fold_gram, ds.fold_xty, ds.fold_n):
        with pytest.raises(ValueError):
            arr[0] = 99.0


def test_dataset_copies_input():
    X = np.eye(2)
    Y = np.ones(2)
    ds = validate_dataset(X, Y)
    X[0, 0] = 7.0
    Y[1] = 3.0
    np.testing.assert_array_equal(ds.gram, np.eye(2) / 2)
    np.testing.assert_array_equal(ds.xty, [0.5, 0.5])


def test_errors_share_base_class():
    assert issubclass(DimensionMismatch, SparseProjError)
    assert issubclass(NonFiniteInput, SparseProjError)


def test_prior_config_defaults_and_validation():
    cfg = PriorConfig()
    assert cfg.a_n == 1.0 and cfg.b1 == 0.0 and cfg.b2 == 0.0
    PriorConfig(a_n=0.0)  # allowed, full-rank check deferred to factorization
    with pytest.raises(ValueError):
        PriorConfig(a_n=-1.0)
    with pytest.raises(ValueError):
        PriorConfig(b2=-0.5)


def test_dataset_direct_construction_freezes():
    ds = Dataset(n=1, p=1, gram=np.array([[4.0]]), xty=np.array([2.0]), yty=1.0,
                 fold_gram=np.zeros((2, 1, 1)), fold_xty=np.zeros((2, 1)), fold_n=[1, 0])
    assert not ds.gram.flags.writeable and not ds.fold_n.flags.writeable
    with pytest.raises(DimensionMismatch):
        Dataset(n=1, p=1, gram=np.array([[4.0]]), xty=np.array([2.0]), yty=1.0,
                fold_gram=np.zeros((2, 1, 1)), fold_xty=np.zeros((3, 1)), fold_n=[1, 0])


@pytest.mark.parametrize("workers, chunks", [(1, 1), (2, 8), (3, 10)])
def test_map_chunks_covers_the_range_in_contiguous_ordered_chunks(workers, chunks):
    # about four chunks per worker, at most one per index, results in order
    parts = map_chunks(list, 10, workers)
    assert len(parts) == chunks
    assert sum(parts, []) == list(range(10))
