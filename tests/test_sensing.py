import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpsim.sensing import qod


class TestQod:
    def test_identical_distributions(self):
        p = np.full(10, 0.1)
        assert qod(p, p) == pytest.approx(1.0)

    def test_one_hot_versus_uniform(self):
        local = np.zeros(10)
        local[0] = 1.0
        assert qod(local, np.full(10, 0.1)) == pytest.approx(0.1)

    def test_disjoint_supports(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert qod(a, b) == pytest.approx(0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            qod(np.array([1.0]), np.array([0.5, 0.5]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12), st.data())
    def test_bounds_and_symmetry(self, raw, data):
        raw2 = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(raw), max_size=len(raw)))
        if sum(raw) == 0 or sum(raw2) == 0:
            return
        p = np.array(raw) / sum(raw)
        q = np.array(raw2) / sum(raw2)
        v = qod(p, q)
        assert 0.0 - 1e-12 <= v <= 1.0 + 1e-12
        assert v == pytest.approx(qod(q, p))
        if np.abs(p - q).max() < 1e-15:
            assert v == pytest.approx(1.0, abs=1e-12)

    def test_equal_iff_one(self):
        p = np.array([0.25, 0.75])
        q = np.array([0.250001, 0.749999])
        assert qod(p, q) < 1.0

    def test_pooling_complementary_clients_improves_fit(self):
        glob = np.full(4, 0.25)
        heavy_front = np.array([0.4, 0.4, 0.1, 0.1])
        heavy_back = np.array([0.1, 0.1, 0.4, 0.4])
        pooled = 0.5 * (heavy_front + heavy_back)
        assert qod(pooled, glob) > max(qod(heavy_front, glob), qod(heavy_back, glob))

