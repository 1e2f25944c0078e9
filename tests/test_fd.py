import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lsvcal import fd


def d2_former(u, h, axis):
    """Oracle of ``fd.d2``: the expression it was written as before it wrote
    into its output in place."""
    n = u.shape[axis]
    if n < 3:
        return np.zeros_like(u)
    u = np.moveaxis(u, axis, 0)
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    if n >= 4:
        out[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / (h * h)
        out[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / (h * h)
    else:
        out[0] = out[1]
        out[-1] = out[1]
    return np.moveaxis(out, 0, axis)


@st.composite
def field_and_axis(draw):
    u = draw(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=7),
                    elements=st.floats(-1e6, 1e6)))
    return u, draw(st.integers(-u.ndim, u.ndim - 1))


class TestDifferences:
    # the same IEEE operations in the same order as the reference forms, so
    # the bits agree; each result is one C-ordered array
    @settings(max_examples=300, deadline=None)
    @given(field_and_axis(), st.floats(1e-3, 1e3))
    def test_d1_bit_equal_to_np_gradient(self, case, h):
        u, axis = case
        n = u.shape[axis]
        want = np.gradient(u, h, axis=axis, edge_order=2 if n >= 3 else 1)
        got = fd.d1(u, h, axis=axis)
        assert got.flags.c_contiguous and got.shape == u.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(field_and_axis(), st.floats(1e-3, 1e3))
    def test_d2_bit_equal_to_former_expression(self, case, h):
        u, axis = case
        got = fd.d2(u, h, axis=axis)
        assert got.flags.c_contiguous and got.shape == u.shape
        assert got.tobytes() == np.ascontiguousarray(d2_former(u, h, axis)).tobytes()

    def test_single_node_differentiates_to_zero(self):
        u = np.arange(6.0).reshape(1, 6)
        assert np.array_equal(fd.d1(u, 0.5, axis=0), np.zeros_like(u))
        assert np.array_equal(fd.d2(u[:, :2], 0.5, axis=1), np.zeros((1, 2)))
