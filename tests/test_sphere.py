"""Geometry layer: point rows, metrics, samplers, wedges, arc crossings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from onebit import (
    DimensionMismatchError,
    PointSet,
    SparseSpec,
    pairwise_chord,
    pairwise_geodesic,
    signs,
    sparse_net,
    substream,
    transversal_mask,
    uniform_sphere_rows,
    wedge_mask,
)
from onebit.sphere import CLOSE_PAIRS, CLOSE_SCALE, _close_pair_rows, _crossing_fraction
from oracles import (
    arc_angle,
    geodesic_distance,
    geodesic_point,
    gram_chord,
    gram_geodesic,
    in_wedge,
    transversal_separation,
    unit,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# --- unit rows and SparseSpec --------------------------------------------------
#
# a point is a unit row; PointSet is where the library checks one


def test_unit_vector_rejects_non_unit():
    with pytest.raises(ValueError, match="rows must be unit vectors"):
        PointSet([[1.0, 1.0]])


def test_unit_vector_rejects_scalar_and_short():
    with pytest.raises(ValueError):
        PointSet([1.0, 0.0])  # one row needs a (1, n+1) array
    with pytest.raises(ValueError):
        PointSet([[1.0]])  # S^0 is not a sphere point here


def test_unit_vector_coords_are_read_only():
    points = PointSet([unit(1.0, 0.0)]).points
    with pytest.raises(ValueError):
        points[0, 0] = 0.5


def test_sparse_spec_bounds():
    spec = SparseSpec(4, 2)
    assert spec.ambient == 5
    with pytest.raises(ValueError):
        SparseSpec(4, 0)
    with pytest.raises(ValueError):
        SparseSpec(4, 6)
    with pytest.raises(ValueError):
        SparseSpec(0, 1)


# --- metric --------------------------------------------------------------------


def test_distance_trivial_values():
    e1 = unit(1, 0, 0)
    e2 = unit(0, 1, 0)
    assert geodesic_distance(e1, e1) == 0.0
    assert geodesic_distance(e1, -e1) == 1.0
    assert math.isclose(geodesic_distance(e1, e2), 0.5, abs_tol=1e-15)
    assert pairwise_geodesic(np.stack([e1, -e1]))[0, 1] == 1.0


def test_distance_of_quarter_arc_point():
    # the midpoint of the e1..e2 arc sits at angle pi/4 from either end
    mid = unit(1, 1, 0)
    assert math.isclose(geodesic_distance(unit(1, 0, 0), mid), 0.25, abs_tol=1e-12)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_metric_axioms_on_random_triples(seed):
    rng = substream(seed, "metric-axioms")
    x, y, z = uniform_sphere_rows(4, 3, rng)
    dxy = geodesic_distance(x, y)
    dyx = geodesic_distance(y, x)
    assert dxy == dyx
    assert 0.0 <= dxy <= 1.0
    assert geodesic_distance(x, y) <= geodesic_distance(x, z) + geodesic_distance(z, y) + 1e-12


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_pairwise_matches_scalar_distance(seed):
    rng = substream(seed, "pairwise")
    pts = PointSet.uniform(3, 6, rng)
    mat = pts.pairwise_geodesic()
    assert np.all(np.diag(mat) == 0.0)
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            assert math.isclose(
                mat[i, j], geodesic_distance(pts.points[i], pts.points[j]), abs_tol=1e-12
            )


@pytest.mark.parametrize("k", [1, 2, 210, 255, 256, 257, 600, 2010])
def test_pairwise_matrices_are_the_whole_gram_formulas_bit_for_bit(k):
    # the upper block triangle is transformed and mirrored in blocks of
    # MIRROR_ROWS rows; an antipodal pair can round past -1 and a close one past 1
    rows = uniform_sphere_rows(64, k, substream(k, "test-pairwise-bits"))
    if k > 2:
        rows[-1] = -rows[0]
        rows[-2] = rows[1] + 1e-9
    for pairwise, oracle in ((pairwise_geodesic, gram_geodesic), (pairwise_chord, gram_chord)):
        assert np.array_equal(pairwise(rows), oracle(rows))
        # rows taken with a stride and a Fortran-ordered copy reach the same
        # BLAS product in numpy's x @ x.T
        spread = np.repeat(rows, 2, axis=0)[::2]
        assert np.array_equal(pairwise(spread), oracle(spread))
        assert np.array_equal(pairwise(np.asfortranarray(rows)), oracle(rows))
    signed = np.concatenate([np.eye(4, dtype=int), -np.eye(4, dtype=int)])
    assert np.array_equal(pairwise_geodesic(signed), gram_geodesic(signed))
    assert np.array_equal(pairwise_chord(signed), gram_chord(signed))


def test_pairwise_accepts_raw_rows():
    rows = np.eye(3)
    mat = pairwise_geodesic(rows)
    assert mat.shape == (3, 3)
    assert math.isclose(mat[0, 1], 0.5, abs_tol=1e-15)


# --- samplers ------------------------------------------------------------------


def test_uniform_rows_shape_and_norms():
    rng = substream(0, "rows")
    rows = uniform_sphere_rows(5, 100, rng)
    assert rows.shape == (100, 6)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)


def test_uniform_marginal_variance():
    # each coordinate of a uniform point has second moment 1/(n+1);
    # with n = 4 the estimator's standard error at this sample size is
    # about 4.8e-4, so the tolerance sits at roughly four sigmas
    rng = substream(7, "marginal")
    rows = uniform_sphere_rows(4, 200_000, rng)
    assert abs(float(np.mean(rows[:, 0] ** 2)) - 0.2) < 2e-3


def test_uniform_circle_angle_is_uniform():
    rng = substream(11, "circle")
    rows = uniform_sphere_rows(1, 20_000, rng)
    angles = np.arctan2(rows[:, 1], rows[:, 0])
    u = (angles + math.pi) / (2 * math.pi)
    assert stats.kstest(u, "uniform").pvalue > 1e-3


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_sparse_sampler_support(seed):
    rng = substream(seed, "sparse")
    x = PointSet.sparse(SparseSpec(9, 3), 1, rng).points[0]
    assert int(np.count_nonzero(x)) == 3
    assert math.isclose(float(np.linalg.norm(x)), 1.0, abs_tol=1e-12)


def _sparse_reference(spec, count, rng):
    """PointSet.sparse row by row from the same two blocks and the same redraws."""
    keys = rng.random((count, spec.ambient))
    g = rng.standard_normal((count, spec.s))
    while bad := [i for i in range(count) if not g[i].all()]:
        g[bad] = rng.standard_normal((len(bad), spec.s))
    rows = np.zeros((count, spec.ambient))
    for i in range(count):
        support = sorted(np.argsort(keys[i], kind="stable")[: spec.s])
        rows[i, support] = g[i] / math.sqrt(g[i] @ g[i])
    return rows


class _ZeroingRng:
    """A generator stand-in that zeroes given entries of its n-th normal draw."""

    def __init__(self, rng, zeros):
        self.rng, self.zeros, self.normal_draws = rng, zeros, 0

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        g = self.rng.standard_normal(*args, **kwargs)
        for entry in self.zeros.get(self.normal_draws, ()):
            g[entry] = 0.0
        self.normal_draws += 1
        return g


@pytest.mark.parametrize("n, s, count", [(1, 1, 5), (9, 3, 40), (64, 4, 200), (7, 7, 6)])
def test_sparse_sampler_matches_row_by_row_reference(n, s, count):
    spec = SparseSpec(n, s)
    # rows 1 and 3 of the first block get a zero, and row 3 again when redrawn
    zeros = {0: [(1, 0), (3, s - 1)], 1: [(1, 0)]}
    got = PointSet.sparse(spec, count, _ZeroingRng(substream(n, "test-sparse-ref", s), zeros))
    rng = _ZeroingRng(substream(n, "test-sparse-ref", s), zeros)
    expected = _sparse_reference(spec, count, rng)
    assert rng.normal_draws == 3
    assert np.array_equal(got.points != 0.0, expected != 0.0)
    assert np.all(np.count_nonzero(got.points, axis=1) == s)
    assert np.allclose(got.points, expected, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n, k", [(1, 2), (3, 40), (64, 90)])
def test_pairwise_chord_matches_the_out_of_place_formula(n, k):
    rows = uniform_sphere_rows(n, k, substream(n, "test-chord", k))
    rows[-1] = -rows[0]  # an antipodal pair, whose inner product can round below -1
    gram = rows @ rows.T
    expected = np.sqrt(np.maximum(2.0 - 2.0 * np.clip(gram, -1.0, 1.0), 0.0))
    np.fill_diagonal(expected, 0.0)
    chord = pairwise_chord(rows)
    assert np.array_equal(chord, expected)
    assert np.all(np.diag(chord) == 0.0) and chord.max() <= 2.0
    assert math.isclose(chord[0, -1], 2.0, abs_tol=1e-7)
    direct = np.linalg.norm(rows[:, None, :] - rows[None, :, :], axis=2)
    assert np.allclose(chord, direct, rtol=0.0, atol=1e-7)


def test_process_metric_oracles():
    # the gaussian process's increment metric is the chord, the hemisphere's sqrt(d)
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    chord = pairwise_chord(rows)
    assert math.isclose(chord[0, 1], math.sqrt(2.0), rel_tol=1e-12)
    assert math.isclose(chord[0, 2], 2.0, rel_tol=1e-12)
    assert np.all(np.diag(chord) == 0.0)
    root = np.sqrt(pairwise_geodesic(rows))
    assert math.isclose(root[0, 1], math.sqrt(0.5), rel_tol=1e-9)
    assert math.isclose(root[0, 2], 1.0, rel_tol=1e-12)


# --- point sets ----------------------------------------------------------------


def test_point_set_validation():
    rng = substream(5, "ps")
    ps = PointSet.uniform(3, 10, rng)
    assert len(ps) == 10 and ps.ambient == 4 and ps.n == 3
    sp = PointSet.sparse(SparseSpec(6, 2), 5, rng)
    assert all(np.count_nonzero(sp.points[i]) == 2 for i in range(5))
    with pytest.raises(ValueError):
        PointSet(np.ones((3, 4)))


def test_point_set_rejects_non_finite_rows():
    # NaN > UNIT_NORM_TOL is False, so only an explicit check catches these
    rows = PointSet.uniform(3, 50, substream(5, "ps-nan")).points.copy()
    rows[17, 2] = np.nan
    for bad in ([[np.nan, np.nan]], rows, [[1.0, 0.0], [np.inf, 0.0]]):
        with pytest.raises(ValueError, match="sphere point coordinates must be finite"):
            PointSet(bad)


def test_point_set_subset_preserves_rows():
    rng = substream(6, "subset")
    ps = PointSet.uniform(2, 8, rng)
    sub = ps.subset([1, 3])
    assert np.array_equal(sub.points[0], ps.points[1])
    assert np.array_equal(sub.points[1], ps.points[3])


def test_sparse_net_has_close_companions():
    rng = substream(9, "net")
    spec = SparseSpec(20, 3)
    net = sparse_net(spec, 60, rng)
    assert len(net) == 60 + CLOSE_PAIRS
    for i in range(len(net)):
        assert int(np.count_nonzero(net.points[i])) <= 3
    dist = net.pairwise_geodesic()
    np.fill_diagonal(dist, 2.0)
    assert float(dist.min()) < 0.1


# --- close pairs against the full stable sort ----------------------------------


def _close_rows_reference(dist, count):
    """sparse_net's former loop over a stable argsort of all k^2 entries (diagonal 2)."""
    dist = dist.copy()
    np.fill_diagonal(dist, 2.0)
    chosen, seen = [], set()
    for flat in np.argsort(dist, axis=None, kind="stable"):
        i, j = np.unravel_index(flat, dist.shape)
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        chosen.append(int(i))
        if len(chosen) >= count:
            break
    return chosen


def _sparse_net_reference(spec, size, rng):
    """sparse_net with the companions chosen by _close_rows_reference."""
    base = PointSet.sparse(spec, size, rng)
    extras = []
    for idx in _close_rows_reference(base.pairwise_geodesic(), CLOSE_PAIRS):
        x = base.points[idx]
        support = np.flatnonzero(x)
        t = rng.standard_normal(support.size)
        local = x[support]
        t -= (t @ local) * local
        perturbed = local + CLOSE_SCALE * t
        perturbed /= np.linalg.norm(perturbed)
        row = np.zeros_like(x)
        row[support] = perturbed
        extras.append(row)
    return PointSet(np.vstack([base.points, np.stack(extras)]))


def _assert_same_net(spec, size, seed):
    rng = substream(seed, "test-close-pairs", size, CLOSE_PAIRS)
    expected_rng = substream(seed, "test-close-pairs", size, CLOSE_PAIRS)
    net = sparse_net(spec, size, rng)
    expected = _sparse_net_reference(spec, size, expected_rng)
    assert np.array_equal(net.points, expected.points)
    assert rng.bit_generator.state == expected_rng.bit_generator.state


def _assert_same_close_rows(spec, size, seed, count):
    """_close_pair_rows at any count against the stable sort, on a fresh sparse sample."""
    dist = PointSet.sparse(spec, size, substream(seed, "test-close-rows", size)).pairwise_geodesic()
    expected = _close_rows_reference(dist, count)
    np.fill_diagonal(dist, np.inf)
    assert _close_pair_rows(dist, count) == expected


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "spec, size", [(SparseSpec(20, 3), 60), (SparseSpec(64, 4), 300), (SparseSpec(7, 1), 40)]
)
def test_sparse_net_matches_stable_sort_reference(spec, size, seed):
    _assert_same_net(spec, size, seed)


@pytest.mark.parametrize("close_pairs", [1, 3, 10, 25])
def test_sparse_net_with_massive_ties_matches_reference(close_pairs):
    # 1-sparse points are +-e_i: exact duplicates, distance-1/2 and antipodal ties
    _assert_same_close_rows(SparseSpec(7, 1), 40, 0, close_pairs)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_small_sparse_nets_fill_with_self_pairs(size):
    # below 5 points there are fewer pairs than CLOSE_PAIRS (or 3): self-pairs fill the rest
    _assert_same_net(SparseSpec(10, 2), size, 3)
    _assert_same_close_rows(SparseSpec(10, 2), size, 3, 3)


@pytest.mark.parametrize("count", [1, 2, 5, 8, 9, 16, 30, 64, 120, 200])
def test_close_pair_rows_on_signed_basis_match_reference(count):
    # the basis vectors of R^8 and their negatives: every pair is at 1/2 or 1
    rows = np.vstack([np.eye(8), -np.eye(8)])
    dist = pairwise_geodesic(rows)
    expected = _close_rows_reference(dist, count)
    np.fill_diagonal(dist, np.inf)
    assert _close_pair_rows(dist, count) == expected


def test_close_pairs_take_the_lower_index_of_tied_pairs():
    rows = np.vstack([np.eye(4), -np.eye(4)])
    dist = pairwise_geodesic(rows)
    np.fill_diagonal(dist, np.inf)
    # all 24 distance-1/2 pairs come first, in (i, j) order, then the antipodes
    assert _close_pair_rows(dist, 28) == [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2,
                                          3, 3, 3, 4, 4, 4, 5, 5, 6, 0, 1, 2, 3]


# --- signs and wedges ----------------------------------------------------------


def test_sign_of_zero_is_positive():
    out = signs(np.array([0.0, -0.0, 1.5, -2.0]))
    assert out.dtype == np.int8
    assert out.tolist() == [1, 1, 1, -1]


@pytest.mark.parametrize(
    "values",
    [
        [0.5, -0.0, 0.0, -3.0],  # a list
        2.0,  # a scalar
        np.array([[1.0, -1.0, np.nan], [0.0, -0.0, -np.inf]]),
        np.arange(-3, 3),  # integers
        np.linspace(-1.0, 1.0, 12).reshape(3, 4)[:, ::2],  # a strided view
        np.array([], dtype=float),
    ],
)
def test_signs_match_a_select_on_every_input_kind(values):
    expected = np.where(np.asarray(values) >= 0, np.int8(1), np.int8(-1))
    out = signs(values)
    assert out.dtype == np.int8 and out.shape == expected.shape
    assert np.array_equal(out, expected)


def test_wedge_explicit_cases():
    x, y = unit(1, 0, 0), unit(0, 1, 0)
    assert in_wedge(unit(1, -1, 0), x, y)
    assert not in_wedge(unit(1, 1, 0), x, y)
    # tangent hyperplane: zero inner product counts as +, so no separation
    assert not in_wedge(unit(0, 0, 1), x, y)
    assert in_wedge(unit(0, -1, 0.0001), x, y)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_wedge_mask_matches_scalar(seed):
    rng = substream(seed, "wedge")
    x, y = uniform_sphere_rows(3, 2, rng)
    thetas = uniform_sphere_rows(3, 64, rng)
    mask = wedge_mask(thetas, x, y)
    for i in range(64):
        assert mask[i] == in_wedge(thetas[i], x, y)


def test_wedge_frequency_estimates_distance():
    rng = substream(2024, "crofton-smoke")
    x, y = uniform_sphere_rows(3, 2, rng)
    d = geodesic_distance(x, y)
    freq = float(wedge_mask(uniform_sphere_rows(3, 200_000, rng), x, y).mean())
    assert abs(freq - d) < 4.0 * math.sqrt(d * (1 - d) / 200_000)


def test_masks_reject_mixed_ambient_dimensions():
    thetas = uniform_sphere_rows(2, 8, substream(0, "test-mixed-ambient"))
    x, y = unit(1, 0, 0), unit(0, 1, 0)
    mixed = [
        (thetas, unit(1, 0), unit(0, 1)),  # both endpoints on S^1, directions in R^3
        (thetas, x, unit(0, 1)),  # one endpoint on S^1
        (thetas, x, unit(0, 1, 0, 0)),  # one endpoint on S^3
        (thetas[:, :2], x, y),  # directions in R^2
    ]
    for mask in (wedge_mask, transversal_mask):
        for args in mixed:
            with pytest.raises(DimensionMismatchError):
                mask(*args)


# --- arcs ----------------------------------------------------------------------


def test_geodesic_angle_and_length():
    # the quarter arc e1..e2 has angle pi/2 and normalized length 1/2, as the kernel measures it
    x, y = unit(1, 0, 0), unit(0, 1, 0)
    assert math.isclose(arc_angle(x, y), math.pi / 2, abs_tol=1e-15)
    assert math.isclose(geodesic_distance(x, y), 0.5, abs_tol=1e-15)
    assert geodesic_distance(x, y) == pairwise_geodesic(np.stack([x, y]))[0, 1]


def test_transversal_mask_rejects_equal_and_antipodal_endpoints():
    thetas = uniform_sphere_rows(2, 8, substream(0, "test-degenerate-arc"))
    x = unit(1, 0, 0)
    near = unit(1, 1e-7, 0)  # inner product 1 - 5e-15, inside ANTIPODAL_TOL
    for y in (x, -x, near, -near):
        with pytest.raises(ValueError, match="equal or antipodal"):
            transversal_mask(thetas, x, y)
    # inner products 1 - 5e-11 are outside it: the arc is unique
    for y in (unit(1, 1e-5, 0), unit(-1, 1e-5, 0)):
        assert transversal_mask(thetas, x, y).shape == (8,)


def test_geodesic_point_endpoints_and_midpoint():
    x, y = unit(1, 0, 0), unit(0, 1, 0)
    assert np.allclose(geodesic_point(x, y, 0.0), x, atol=1e-15)
    assert np.allclose(geodesic_point(x, y, 1.0), y, atol=1e-15)
    mid = geodesic_point(x, y, 0.5)
    assert np.allclose(mid, np.array([1.0, 1.0, 0.0]) / math.sqrt(2), atol=1e-14)
    with pytest.raises(ValueError):
        geodesic_point(x, y, 1.5)


@given(seeds, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_geodesic_point_constant_speed(seed, t):
    rng = substream(seed, "speed")
    x, y = uniform_sphere_rows(3, 2, rng)
    length = geodesic_distance(x, y)
    z = geodesic_point(x, y, t)
    # arccos amplifies unit roundoff to ~1e-8 near the endpoints
    assert math.isclose(geodesic_distance(x, z), t * length, abs_tol=1e-7)
    assert math.isclose(geodesic_distance(z, y), (1.0 - t) * length, abs_tol=1e-7)


# --- transversal crossings -----------------------------------------------------
#
# analytic cases on the quarter arc e1..e2: the in-plane normal at the
# midpoint crosses perpendicularly at arc fraction 1/2, and tilting it out
# of the plane by a known amount dials the crossing angle exactly.


def _mid_normal(c):
    # unit normal hitting the e1..e2 arc at its midpoint with sin(angle) = c
    base = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
    return unit(*(c * base + math.sqrt(1.0 - c * c) * np.array([0.0, 0.0, 1.0])))


def test_transversal_perpendicular_mid_crossing():
    x, y = unit(1, 0, 0), unit(0, 1, 0)
    assert transversal_separation(_mid_normal(1.0), x, y)


def test_transversal_shallow_angle_rejected():
    x, y = unit(1, 0, 0), unit(0, 1, 0)
    assert not transversal_separation(_mid_normal(math.sin(math.radians(30))), x, y)
    assert transversal_separation(_mid_normal(math.sin(math.radians(60))), x, y)


def test_transversal_near_endpoint_rejected():
    x, y = unit(1, 0, 0), unit(0, 1, 0)
    a = math.pi / 2
    t_star = 0.1  # crossing at 10% of the arc: closer than a quarter of d
    theta = unit(-math.sin(t_star * a), math.cos(t_star * a), 0.0)
    assert in_wedge(theta, x, y)
    assert not transversal_separation(theta, x, y)


def test_transversal_requires_wedge_membership():
    x, y = unit(1, 0, 0), unit(0, 1, 0)
    with pytest.raises(ValueError, match="does not separate"):
        transversal_separation(unit(1, 1, 0), x, y)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_transversal_mask_matches_scalar(seed):
    rng = substream(seed, "transversal")
    x, y = uniform_sphere_rows(3, 2, rng)
    thetas = uniform_sphere_rows(3, 80, rng)
    mask = transversal_mask(thetas, x, y)
    wedge = wedge_mask(thetas, x, y)
    for i in range(80):
        if wedge[i]:
            assert mask[i] == transversal_separation(thetas[i], x, y)
        else:
            assert not mask[i]


def test_transversal_mask_all_outside_wedge():
    x, y = unit(1, 0, 0.0), unit(0, 1, 0.0)
    thetas = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    assert not transversal_mask(thetas, x, y).any()


# --- closed-form crossing against the bisection reference ---------------------


def _bisect_crossing(fa, fb, a, tol=1e-12):
    """Interval bisection for the sign change of sin((1-t)a) fa + sin(ta) fb on [0, 1].

    Elementwise on arrays as on scalars; 40 halvings reach ``tol``.
    """
    lo = np.zeros_like(fa)
    hi = np.ones_like(fa)
    sign_lo = fa >= 0
    for _ in range(int(math.ceil(-math.log2(tol)))):
        mid = 0.5 * (lo + hi)
        fm = (np.sin((1.0 - mid) * a) * fa + np.sin(mid * a) * fb) / math.sin(a)
        go_right = (fm >= 0) == sign_lo
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def _transversal_mask_reference(thetas, x, y):
    """transversal_mask with the crossing found by bisection."""
    a = arc_angle(x, y)
    length = a / math.pi
    fa = thetas @ x
    fb = thetas @ y
    wedge = (fa >= 0) != (fb >= 0)
    fa, fb = fa[wedge], fb[wedge]
    t_star = _bisect_crossing(fa, fb, a)
    far_enough = np.minimum(t_star, 1.0 - t_star) * length >= length / 4.0
    tangent = (-np.cos((1.0 - t_star) * a) * fa + np.cos(t_star * a) * fb) / math.sin(a)
    steep_enough = np.arcsin(np.minimum(1.0, np.abs(tangent))) >= math.pi / 4.0
    out = np.zeros(thetas.shape[0], dtype=bool)
    out[wedge] = far_enough & steep_enough & (fa != 0.0) & (fb != 0.0)
    return out


def _arc_pair(n, distance, rng):
    """A uniform x and a y at the given normalized geodesic distance from it."""
    x = uniform_sphere_rows(n, 1, rng)[0]
    t = rng.standard_normal(n + 1)
    t -= (t @ x) * x
    t /= np.linalg.norm(t)
    angle = distance * math.pi
    return x, unit(*(math.cos(angle) * x + math.sin(angle) * t))


@pytest.mark.parametrize("distance", [1e-4, 0.01, 0.3, 0.5, 0.8, 1.0 - 1e-4])
def test_transversal_mask_matches_bisection_reference(distance):
    # 6 pairs x 40,000 directions; half of them are drawn near the wedge,
    # which uniform directions almost never hit on short arcs
    rng = substream(7, "test-transversal-closed-form", int(distance * 1e4))
    x, y = _arc_pair(3, distance, rng)
    mid = x + y
    mid /= np.linalg.norm(mid)
    near = rng.standard_normal((20_000, 4))
    near -= np.outer(near @ mid, mid) * (1.0 - math.tan(distance * math.pi / 2.0))
    near /= np.linalg.norm(near, axis=1, keepdims=True)
    thetas = np.vstack([uniform_sphere_rows(3, 20_000, rng), near])
    expected = _transversal_mask_reference(thetas, x, y)
    assert np.array_equal(transversal_mask(thetas, x, y), expected)
    assert expected.any()
    # the crossing points themselves agree to the bisection's resolution
    fa, fb = thetas @ x, thetas @ y
    wedge = (fa >= 0) != (fb >= 0)
    a = arc_angle(x, y)
    gap = _crossing_fraction(fa[wedge], fb[wedge], a) - _bisect_crossing(fa[wedge], fb[wedge], a)
    assert np.abs(gap).max() <= 1e-12


def test_transversal_endpoint_crossings_rejected():
    # a hyperplane through an endpoint crosses at arc fraction 0 or 1
    x, y = unit(1, 0, 0), unit(0, 1, 0)
    thetas = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert not transversal_mask(thetas, x, y).any()
    assert not transversal_separation(thetas[1], x, y)
    assert not transversal_separation(thetas[3], x, y)
