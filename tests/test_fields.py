import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bean_limit.fields import (
    GridSpec,
    PowerLaw,
    ScalarField,
    VectorField2,
    abs_pow,
    boundary_ring_max,
    curl_z,
    ddx_values,
    ddy_values,
    divergence,
    from_stream,
    lap5_values,
    neighbor_sum,
    pow_into,
    psi,
    support_margin_ok,
)
from bean_limit.pme import _pressure


def grid(n=16, L=1.0):
    return GridSpec(L, n)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 4)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 16)
    g = GridSpec(2.0, 10)
    assert g.spacing == pytest.approx(0.4)
    c = g.cell_centers()
    assert c[0] == pytest.approx(-2.0 + 0.2)
    assert c[-1] == pytest.approx(2.0 - 0.2)


def test_scalar_field_validation():
    g = grid()
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        ScalarField(g, np.full((16, 16), np.nan))
    f = ScalarField.zeros(g)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0  # immutable once constructed


def test_vector_field_grid_mismatch():
    a = ScalarField.zeros(grid(16))
    b = ScalarField.zeros(grid(24))
    with pytest.raises(ValueError):
        VectorField2(a, b)


# -- laplacian ----------------------------------------------------------------


def test_laplacian_constant_interior_zero():
    g = grid()
    lap = lap5_values(np.full((16, 16), 3.7), g.spacing)
    assert np.all(lap[1:-1, 1:-1] == 0.0)


def test_laplacian_exact_on_quadratic():
    g = grid(32, 1.5)
    x, y = g.meshgrid()
    lap = lap5_values(x ** 2 + y ** 2, g.spacing)
    assert np.allclose(lap[1:-1, 1:-1], 4.0, atol=1e-11)


def test_laplacian_matches_bruteforce_stencil():
    rng = np.random.default_rng(7)
    g = grid(8)
    vals = rng.standard_normal((8, 8))
    h2 = g.spacing ** 2
    expected = np.zeros((8, 8))
    for j in range(8):
        for i in range(8):
            c = vals[j, i]
            w = vals[j, i - 1] if i > 0 else 0.0
            e = vals[j, i + 1] if i < 7 else 0.0
            s = vals[j - 1, i] if j > 0 else 0.0
            n = vals[j + 1, i] if j < 7 else 0.0
            expected[j, i] = (w + e + s + n - 4 * c) / h2
    assert np.allclose(lap5_values(vals, g.spacing), expected, atol=1e-12)


def test_laplacian_symmetric_summation_by_parts():
    rng = np.random.default_rng(3)
    g = grid(24)
    a = np.zeros((24, 24))
    b = np.zeros((24, 24))
    a[3:-3, 3:-3] = rng.standard_normal((18, 18))
    b[3:-3, 3:-3] = rng.standard_normal((18, 18))
    h2 = g.spacing ** 2
    lhs = h2 * np.sum(b * lap5_values(a, g.spacing))
    rhs = h2 * np.sum(a * lap5_values(b, g.spacing))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# -- curl / divergence / stream ----------------------------------------------


def test_curl_of_linear_fields():
    g = grid(16, 1.0)
    x, y = g.meshgrid()
    H = VectorField2(ScalarField(g, 0 * x), ScalarField(g, x))
    assert np.allclose(curl_z(H).values[1:-1, 1:-1], 1.0, atol=1e-12)
    H2 = VectorField2(ScalarField(g, y), ScalarField(g, x))
    assert np.allclose(curl_z(H2).values[1:-1, 1:-1], 0.0, atol=1e-12)


def test_divergence_of_linear_field():
    g = grid(16, 1.0)
    x, _ = g.meshgrid()
    H = VectorField2(ScalarField(g, x), ScalarField.zeros(g))
    assert np.allclose(divergence(H).values[1:-1, 1:-1], 1.0, atol=1e-12)


def test_divergence_matches_bruteforce_stencil():
    rng = np.random.default_rng(11)
    g = grid(8)
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))
    H = VectorField2(ScalarField(g, a), ScalarField(g, b))
    th = 2 * g.spacing
    expected = np.zeros((8, 8))
    for j in range(8):
        for i in range(8):
            e = a[j, i + 1] if i < 7 else 0.0
            w = a[j, i - 1] if i > 0 else 0.0
            n = b[j + 1, i] if j < 7 else 0.0
            s = b[j - 1, i] if j > 0 else 0.0
            expected[j, i] = (e - w) / th + (n - s) / th
    assert np.allclose(divergence(H).values, expected, atol=1e-12)


def test_central_differences_bit_exact_on_stacks_and_signed_zeros():
    # stacks and single fields, C and Fortran order, with +-0 and
    # subnormals, against a loop over the cells
    rng = np.random.default_rng(13)
    h = 0.37
    scale = 1.0 / (2.0 * h)
    for n in (8, 9, 13):
        a = np.empty((2, n, n))
        for _ in range(3):
            a[...] = rng.standard_normal(a.shape)
            for value in (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-315):
                a[rng.random(a.shape) < 0.12] = value
            dx, dy = ddx_values(a, h), ddy_values(a, h)
            for k in range(2):
                b = a[k]
                expected_x = np.empty_like(b)
                expected_y = np.empty_like(b)
                for j in range(n):
                    for i in range(n):
                        e = b[j, i + 1] if i < n - 1 else 0.0
                        w = b[j, i - 1] if i > 0 else 0.0
                        expected_x[j, i] = ((0.0 + e) - w) * scale
                        north = b[j + 1, i] if j < n - 1 else 0.0
                        s = b[j - 1, i] if j > 0 else 0.0
                        expected_y[j, i] = ((0.0 + north) - s) * scale
                for got in (dx[k], ddx_values(b, h), ddx_values(np.asfortranarray(b), h)):
                    assert got.tobytes() == expected_x.tobytes()
                for got in (dy[k], ddy_values(b, h), ddy_values(np.asfortranarray(b), h)):
                    assert got.tobytes() == expected_y.tobytes()
            assert not np.any(np.signbit(dx) & (dx == 0.0))  # equal neighbors give +0


@pytest.mark.parametrize("n", [8, 9, 13])
def test_neighbor_sum_bit_exact_on_stacks_and_signed_zeros(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((2, n, n))
    a[rng.random(a.shape) < 0.3] = 0.0
    a[rng.random(a.shape) < 0.3] = -0.0
    a[:, :3, :3] = -0.0  # cells whose four neighbors are all -0
    stacked = neighbor_sum(a)
    for k in range(2):
        b = a[k]
        expected = np.empty_like(b)
        for j in range(n):
            for i in range(n):
                w = b[j, i - 1] if i > 0 else 0.0
                e = b[j, i + 1] if i < n - 1 else 0.0
                s = b[j - 1, i] if j > 0 else 0.0
                nn = b[j + 1, i] if j < n - 1 else 0.0
                expected[j, i] = (((0.0 + w) + e) + s) + nn
        for got in (stacked[k], neighbor_sum(b), neighbor_sum(np.asfortranarray(b))):
            assert got.tobytes() == expected.tobytes()
    assert not np.any(np.signbit(stacked) & (stacked == 0.0))  # never -0


def test_from_stream_trivial_cases():
    g = grid(16, 1.0)
    H = from_stream(ScalarField.zeros(g))
    assert np.all(H.comp1.values == 0.0) and np.all(H.comp2.values == 0.0)
    _, y = g.meshgrid()
    H2 = from_stream(ScalarField(g, y))
    assert np.allclose(H2.comp1.values[1:-1, 1:-1], 1.0, atol=1e-12)
    assert np.allclose(H2.comp2.values[1:-1, 1:-1], 0.0, atol=1e-12)


def test_from_stream_exactly_divergence_free():
    rng = np.random.default_rng(5)
    g = grid(32, 2.0)
    phi = ScalarField(g, rng.standard_normal((32, 32)))
    H = from_stream(phi)
    assert np.max(np.abs(divergence(H).values)) <= 1e-12


def test_curl_of_stream_matches_laplacian_under_refinement():
    errs = []
    for n in (32, 64):
        g = GridSpec(4.0, n)
        x, y = g.meshgrid()
        phi = ScalarField(g, np.exp(-x ** 2 - y ** 2))
        H = from_stream(phi)
        two_path = curl_z(H).values + lap5_values(phi.values, g.spacing)
        errs.append(np.max(np.abs(two_path[2:-2, 2:-2])))
    assert errs[1] <= errs[0] / 3.0  # second order in h


# -- power nonlinearity --------------------------------------------------------


def test_psi_direct_values():
    law = PowerLaw(3.0)
    assert psi(2.0, law) == pytest.approx(8.0)
    assert psi(-2.0, law) == pytest.approx(-8.0)


@pytest.mark.parametrize("m", [1.5, 2.0, 8.0, 64.0, 96.0])
def test_psi_degenerate_at_origin(m):
    law = PowerLaw(m)
    assert psi(0.0, law) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(-10.0, 10.0, allow_nan=False),
    b=st.floats(-10.0, 10.0, allow_nan=False),
    m=st.floats(1.01, 32.0, allow_nan=False),
)
def test_psi_odd_and_monotone(a, b, m):
    law = PowerLaw(m)
    assert psi(-a, law) == pytest.approx(-psi(a, law), abs=1e-300)
    if a < b:
        assert psi(a, law) <= psi(b, law)


POW_EXPONENTS = [1 / 96, 1 / 3, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0, 31.0, 63.0, 95.0, 96.0]


def pow_edge_cases(e):
    """Signed zeros, subnormals, the skip floor and its neighbours, a base
    whose power is a subnormal, NaN and inf."""
    floor = 2.0 ** (-1100.0 / e) if e > 1 else 0.0
    edges = [0.0, 5e-324, 2.2e-308, 1e-300, 1.0, 1e300, np.nan, np.inf,
             floor, np.nextafter(floor, 0.0), np.nextafter(floor, 1.0), 2.0 ** (-1070.0 / e)]
    return np.array(edges + [-x for x in edges])


def same_bits(a, b):
    return np.asarray(a).shape == np.asarray(b).shape and np.array_equal(
        np.asarray(a, dtype=float).view(np.uint64), np.asarray(b, dtype=float).view(np.uint64))


@pytest.mark.parametrize("e", POW_EXPONENTS)
def test_abs_pow_is_bit_identical_on_edge_cases(e):
    x = pow_edge_cases(e)
    with np.errstate(over="ignore"):
        expected = np.abs(x) ** e
        assert same_bits(abs_pow(x, e), expected)
        assert same_bits(abs_pow(x.reshape(2, -1), e), expected.reshape(2, -1))
        out, live = np.empty_like(x), np.empty(x.shape, dtype=bool)
        assert pow_into(np.abs(x), e, out, live) is out
        assert same_bits(out, expected)
        # a scalar takes numpy's scalar pow, as the formula does; the array
        # pow rounds a few percent of these differently
        for v in [*x, *np.random.default_rng(7).uniform(0.0, 2.0, 200)]:
            assert same_bits(abs_pow(v, e), np.abs(np.float64(v)) ** e)


@settings(max_examples=150, deadline=None)
@given(
    x=hnp.arrays(np.float64, st.integers(1, 300), elements=st.floats(width=64)),
    e=st.sampled_from(POW_EXPONENTS),
)
def test_abs_pow_is_bit_identical_on_random_data(x, e):
    with np.errstate(over="ignore"):
        assert same_bits(abs_pow(x, e), np.abs(x) ** e)


def test_pow_into_rejects_a_non_positive_exponent():
    x = np.linspace(0.0, 2.0, 9)
    for e in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            pow_into(x, e, np.empty(9), np.empty(9, dtype=bool))


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0, 8.0, 64.0, 96.0])
def test_power_maps_match_their_formulas_bit_for_bit(m):
    rng = np.random.default_rng(int(m * 2))
    u = rng.standard_normal((16, 16)) * 10.0 ** rng.integers(-12, 2, (16, 16))
    u[rng.random(u.shape) < 0.3] = 0.0
    u[rng.random(u.shape) < 0.3] = -0.0
    u[0, :4] = [5e-324, -5e-324, 2.0 ** (-1100.0 / m), -(2.0 ** (-1100.0 / (m - 1.0)))]
    law = PowerLaw(m)
    assert same_bits(psi(u, law), np.sign(u) * np.abs(u) ** m)
    assert same_bits(_pressure(u, m), m / (m - 1.0) * np.abs(u) ** (m - 1.0))
    for s in (0.0, -0.0, 5e-324, 0.3, -1.7):
        assert same_bits(psi(s, law), np.sign(s) * np.abs(np.float64(s)) ** m)


def test_powerlaw_validation():
    with pytest.raises(ValueError):
        PowerLaw(1.0)


# -- support ---------------------------------------------------------------------


def test_boundary_and_support_helpers():
    g = GridSpec(2.0, 32)
    vals = np.zeros((32, 32))
    vals[15, 15] = 1.0
    f = ScalarField(g, vals)
    assert boundary_ring_max(f) == 0.0
    assert support_margin_ok(f)
    vals2 = np.zeros((32, 32))
    vals2[1, 1] = 1.0  # within L/4 of the boundary
    assert not support_margin_ok(ScalarField(g, vals2))
