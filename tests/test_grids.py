import numpy as np
import pytest

from conftest import make_grid


class TestNodes:
    def test_nodes_computed_once_and_read_only(self):
        grid = make_grid(n_s=10, n_y=8, n_t=4)
        for name, lo, hi, n in (("s_nodes", grid.s_min, grid.s_max, grid.n_s + 2),
                                ("y_nodes", grid.y_min, grid.y_max, grid.n_y + 2),
                                ("t_nodes", 0.0, grid.horizon, grid.n_t + 1)):
            nodes = getattr(grid, name)
            assert nodes is getattr(grid, name)
            assert np.array_equal(nodes, np.linspace(lo, hi, n))
            with pytest.raises(ValueError, match="read-only"):
                nodes[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                nodes[None, :][0, 1] += 1.0

    def test_equality_ignores_cached_nodes(self):
        grid, other = make_grid(n_s=10, n_y=8, n_t=4), make_grid(n_s=10, n_y=8, n_t=4)
        grid.s_nodes, grid.t_nodes
        assert grid == other and hash(grid) == hash(other)
        assert grid != make_grid(n_s=10, n_y=8, n_t=5)
        with pytest.raises(AttributeError):
            grid.n_s = 12
