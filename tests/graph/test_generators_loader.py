"""Tests for graph generators and degree statistics."""

import numpy as np
import pytest

from repro.graph import (
    chung_lu,
    degree_statistics,
    rmat,
    twitter_like,
    uniform_kout,
)


class TestUniformKout:
    def test_exact_out_degree(self):
        src, dst = uniform_kout(100, k=3, seed=1)
        assert src.size == 300
        out_deg = np.bincount(src, minlength=100)
        assert (out_deg == 3).all()

    def test_targets_in_range(self):
        src, dst = uniform_kout(50, k=4, seed=2)
        assert dst.min() >= 0 and dst.max() < 50

    def test_no_self_loops_option(self):
        src, dst = uniform_kout(20, k=5, seed=3, allow_self_loops=False)
        assert (src != dst).all()

    def test_deterministic_by_seed(self):
        a = uniform_kout(30, k=2, seed=42)
        b = uniform_kout(30, k=2, seed=42)
        np.testing.assert_array_equal(a[1], b[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_kout(0, 3)
        with pytest.raises(ValueError):
            uniform_kout(10, -1)


class TestSkewedGenerators:
    def test_chung_lu_average_degree(self):
        src, dst = chung_lu(2000, avg_degree=20.0, seed=5)
        stats = degree_statistics(src, dst, 2000)
        assert stats["avg_degree"] == pytest.approx(20.0, rel=0.25)

    def test_chung_lu_in_degree_skew(self):
        # The defining property of the Twitter stand-in: a few vertices
        # attract a large share of edges.
        src, dst = chung_lu(2000, avg_degree=20.0, seed=5)
        stats = degree_statistics(src, dst, 2000)
        assert stats["max_in_degree"] > 20 * stats["avg_degree"]

    def test_twitter_like_edge_ratio(self):
        src, dst = twitter_like(5000, seed=1)
        stats = degree_statistics(src, dst, 5000)
        assert stats["avg_degree"] == pytest.approx(35.0, rel=0.25)

    def test_chung_lu_validation(self):
        with pytest.raises(ValueError):
            chung_lu(1)

    def test_rmat_shape(self):
        src, dst = rmat(scale=8, edge_factor=4, seed=7)
        assert src.size == 256 * 4
        assert src.max() < 256 and dst.max() < 256

    def test_rmat_skew(self):
        src, dst = rmat(scale=10, edge_factor=8, seed=9)
        stats = degree_statistics(src, dst, 1 << 10)
        assert stats["max_out_degree"] > 4 * stats["avg_degree"]

    def test_rmat_validation(self):
        with pytest.raises(ValueError):
            rmat(scale=0)
        with pytest.raises(ValueError):
            rmat(scale=5, a=0.6, b=0.3, c=0.2)  # sums past 1


class TestDegreeStatistics:
    def test_basic(self):
        stats = degree_statistics(
            np.array([0, 0, 1]), np.array([1, 2, 2]), 3
        )
        assert stats["n_edges"] == 3
        assert stats["max_out_degree"] == 2
        assert stats["max_in_degree"] == 2

    def test_infers_vertices(self):
        stats = degree_statistics(np.array([0]), np.array([9]))
        assert stats["n_vertices"] == 10
