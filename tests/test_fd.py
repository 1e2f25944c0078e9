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


def d1_moveaxis(u, h, axis):
    """Oracle of ``fd.d1``: the form that wrote each node row through
    ``np.moveaxis`` views, the interior with strides along the axis."""
    u = np.asarray(u, dtype=float)
    n = u.shape[axis]
    if n < 2:
        return np.zeros_like(u)
    out = np.empty(u.shape)
    f, o = np.moveaxis(u, axis, 0), np.moveaxis(out, axis, 0)
    if n < 3:
        o[:] = (f[1] - f[0]) / h
        return out
    np.subtract(f[2:], f[:-2], out=o[1:-1])
    o[1:-1] /= 2.0 * h
    o[0] = (-1.5 / h) * f[0] + (2.0 / h) * f[1] + (-0.5 / h) * f[2]
    o[-1] = (0.5 / h) * f[-3] + (-2.0 / h) * f[-2] + (1.5 / h) * f[-1]
    return out


def d2_moveaxis(u, h, axis):
    """Oracle of ``fd.d2``: the in-place form through ``np.moveaxis`` views."""
    u = np.asarray(u, dtype=float)
    n = u.shape[axis]
    if n < 3:
        return np.zeros_like(u)
    out = np.empty(u.shape)
    f, o = np.moveaxis(u, axis, 0), np.moveaxis(out, axis, 0)
    inner = o[1:-1]
    np.multiply(2.0, f[1:-1], out=inner)
    np.subtract(f[2:], inner, out=inner)
    inner += f[:-2]
    inner /= h * h
    if n >= 4:
        o[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (h * h)
        o[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / (h * h)
    else:
        o[0] = o[-1] = o[1]
    return out


@st.composite
def laid_out_fields(draw):
    """A 1-D to 3-D field, an axis of it with 2 to 5 nodes (3 and 4 most
    often) and a layout: C-ordered, or a strided, transposed or offset
    view of a larger array."""
    ndim = draw(st.integers(1, 3))
    axis = draw(st.integers(-ndim, ndim - 1))
    shape = [draw(st.integers(1, 5)) for _ in range(ndim)]
    shape[axis] = draw(st.sampled_from([3, 4, 3, 4, 2, 5]))
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed", "offset"]))
    big = {"strided": shape[:-1] + [2 * shape[-1]], "transposed": shape[::-1],
           "offset": [shape[0] + 1] + shape[1:]}.get(layout, shape)
    u = draw(arrays(np.float64, tuple(big), elements=st.floats(-1e6, 1e6)))
    u = {"strided": lambda: u[..., ::2], "transposed": lambda: u.T,
         "offset": lambda: u[1:]}.get(layout, lambda: u)()
    assert u.shape == tuple(shape)
    return u, axis


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


class TestFlatPass:
    # the interior is one pass over the flat array on every axis; the
    # values are those of the strided form, bit for bit, on any layout
    @settings(max_examples=400, deadline=None)
    @given(laid_out_fields(), st.floats(1e-3, 1e3))
    def test_d1_bit_equal_to_moveaxis_form_and_np_gradient(self, case, h):
        u, axis = case
        got = fd.d1(u, h, axis=axis)
        assert got.flags.c_contiguous and got.shape == u.shape
        assert got.tobytes() == d1_moveaxis(u, h, axis).tobytes()
        want = np.gradient(u, h, axis=axis, edge_order=2 if u.shape[axis] >= 3 else 1)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(laid_out_fields(), st.floats(1e-3, 1e3))
    def test_d2_bit_equal_to_moveaxis_form(self, case, h):
        u, axis = case
        got = fd.d2(u, h, axis=axis)
        assert got.flags.c_contiguous and got.shape == u.shape
        assert got.tobytes() == d2_moveaxis(u, h, axis).tobytes()
        assert got.tobytes() == np.ascontiguousarray(d2_former(u, h, axis)).tobytes()

    def test_input_is_left_untouched(self):
        u = np.arange(24.0).reshape(2, 3, 4) ** 2
        before = u.copy()
        for axis in (0, 1, 2):
            fd.d1(u, 0.5, axis)
            fd.d2(u, 0.5, axis)
        assert np.array_equal(u, before)
