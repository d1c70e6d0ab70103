import warnings

import numpy as np
import pytest

from ancsim.rbf import (CenterLayout, RbfNetwork, basis_components, fit_least_squares,
                        make_centers)
from ancsim.rng import derive_stream


def basis(net, Z):
    """S(Z) through the controller's basis, one input component at a time."""
    return basis_components(net.centers, net.width, list(np.atleast_1d(Z)))


def eval_network(net, Z):
    """W^T S(Z)."""
    return float(net.weights @ basis(net, Z))


def grid_net(nodes=27, width=0.8, weights=None):
    centers = make_centers(CenterLayout("tensor-grid", [(-1.5, 1.5)], total=nodes))
    w = np.zeros(nodes) if weights is None else weights
    return RbfNetwork(1, centers, width, w)


def test_basis_is_one_at_center():
    net = grid_net()
    s = basis(net, net.centers[13])
    assert np.isclose(s[13], 1.0)


def test_basis_at_distance_width_is_inv_e():
    net = RbfNetwork(1, np.array([[0.0], [5.0]]), 0.8, np.zeros(2))
    s = basis(net, np.array([0.8]))
    assert np.isclose(s[0], np.exp(-1.0), rtol=0, atol=1e-15)


def test_basis_range_and_monotone_decay():
    net = grid_net()
    for z in np.linspace(-3, 3, 41):
        s = basis(net, np.array([z]))
        assert np.all(s > 0) and np.all(s <= 1.0)
    d = np.linspace(0, 3, 50)
    vals = np.exp(-d ** 2 / 0.8 ** 2)
    assert np.all(np.diff(vals) < 0)


def test_basis_batch_rows_are_single_points():
    # a batch of inputs puts the points on the leading axis and rounds each
    # row as the point alone; a two-input network takes one array per input
    net = RbfNetwork(2, make_centers(CenterLayout("quasi-random", [(-1.5, 1.5)] * 2,
                                                  total=9, layout_seed=3)), 0.8, np.zeros(9))
    Z = derive_stream(8, 2).uniform(14, -2.0, 2.0).reshape(7, 2)
    batch = basis_components(net.centers, net.width, [Z[:, 0], Z[:, 1]])
    assert batch.shape == (7, 9)
    for row, z in zip(batch, Z):
        assert row.tobytes() == basis(net, z).tobytes()
        explicit = np.exp(-np.sum((z - net.centers) ** 2, axis=1) / net.width ** 2)
        assert np.allclose(row, explicit, rtol=1e-13, atol=0.0)


def test_eval_zero_weights():
    assert eval_network(grid_net(), np.array([0.4])) == 0.0


def test_eval_single_active_node_arithmetic():
    w = np.zeros(27)
    w[0] = 2.0
    net = grid_net(weights=w)
    z = net.centers[0] + 0.8
    assert np.isclose(eval_network(net, z), 2.0 * np.exp(-1.0), rtol=1e-12)


def test_eval_matches_explicit_resummation():
    stream = derive_stream(8, 0)
    net = grid_net(weights=stream.normal(27))
    for z in stream.uniform(20, -2.0, 2.0):
        explicit = sum(net.weights[i] * np.exp(-(z - net.centers[i, 0]) ** 2
                                               / net.width ** 2)
                       for i in range(27))
        assert abs(eval_network(net, np.array([z])) - explicit) < 1e-12


def test_eval_linear_in_weights():
    stream = derive_stream(8, 1)
    w1, w2 = stream.normal(27), stream.normal(27)
    z = np.array([0.37])
    lhs = eval_network(grid_net(weights=2.0 * w1 + 3.0 * w2), z)
    rhs = (2.0 * eval_network(grid_net(weights=w1), z)
           + 3.0 * eval_network(grid_net(weights=w2), z))
    assert abs(lhs - rhs) < 1e-12


def test_grid_even_spacing_includes_endpoints():
    centers = make_centers(CenterLayout("tensor-grid", [(-1.5, 1.5)], total=27))
    assert centers.shape == (27, 1)
    assert centers[0, 0] == -1.5 and centers[-1, 0] == 1.5
    assert np.allclose(np.diff(centers[:, 0]), 3.0 / 26.0)


def test_two_node_grid_is_the_endpoints():
    centers = make_centers(CenterLayout("tensor-grid", [(0.0, 1.0)], total=2))
    assert np.allclose(centers.ravel(), [0.0, 1.0])


def test_grid_symmetric_under_reflection():
    centers = make_centers(CenterLayout("tensor-grid", [(-2.0, 2.0), (-1.0, 1.0)],
                                        counts=[5, 3]))
    flipped = -centers
    assert {tuple(c) for c in centers} == {tuple(c) for c in flipped}


def test_grid_count_product_mismatch_rejected():
    with pytest.raises(ValueError):
        make_centers(CenterLayout("tensor-grid", [(-1, 1), (-1, 1)],
                                  counts=[3, 3], total=8))
    with pytest.raises(ValueError):
        make_centers(CenterLayout("tensor-grid", [(-1, 1)] * 4, total=64))


def test_quasi_random_contained_distinct_deterministic():
    layout = CenterLayout("quasi-random", [(-1.5, 1.5)] * 4, total=64,
                          layout_seed=1)
    pts = make_centers(layout)
    assert pts.shape == (64, 4)
    assert np.all(pts >= -1.5) and np.all(pts <= 1.5)
    assert len(np.unique(pts, axis=0)) == 64
    assert np.array_equal(pts, make_centers(layout))
    other = make_centers(CenterLayout("quasi-random", [(-1.5, 1.5)] * 4,
                                      total=64, layout_seed=2))
    assert not np.array_equal(pts, other)


def test_fit_zero_target_gives_zero_residual():
    centers = make_centers(CenterLayout("tensor-grid", [(-1.5, 1.5)], total=5))
    Z = np.linspace(-1.5, 1.5, 40).reshape(-1, 1)
    w = fit_least_squares(centers, 0.8, (Z, np.zeros(40)))
    net = RbfNetwork(1, centers, 0.8, w)
    assert all(abs(eval_network(net, z)) < 1e-10 for z in Z)


def test_fit_recovers_realizable_target():
    centers = make_centers(CenterLayout("tensor-grid", [(-1.5, 1.5)], total=9))
    Z = np.linspace(-1.5, 1.5, 100).reshape(-1, 1)
    target = np.exp(-(Z[:, 0] - centers[4, 0]) ** 2 / 0.8 ** 2)
    w = fit_least_squares(centers, 0.8, (Z, target))
    net = RbfNetwork(1, centers, 0.8, w)
    resid = max(abs(eval_network(net, z) - t) for z, t in zip(Z, target))
    assert resid <= 1e-10


def test_fit_sine_to_sub_millimeter_residual():
    centers = make_centers(CenterLayout("tensor-grid", [(-1.5, 1.5)], total=27))
    stream = derive_stream(7, 0)
    Z = stream.uniform(300, -1.5, 1.5).reshape(-1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = fit_least_squares(centers, 0.8, (Z, np.sin(Z[:, 0])))
    net = RbfNetwork(1, centers, 0.8, w)
    grid = np.linspace(-1.5, 1.5, 1000)
    resid = max(abs(eval_network(net, np.array([g])) - np.sin(g)) for g in grid)
    assert resid < 1e-3


def test_fit_needs_enough_samples():
    centers = make_centers(CenterLayout("tensor-grid", [(-1.5, 1.5)], total=9))
    Z = np.linspace(-1, 1, 5).reshape(-1, 1)
    with pytest.raises(ValueError):
        fit_least_squares(centers, 0.8, (Z, np.zeros(5)))


def test_rank_deficiency_is_reported():
    # duplicated centers guarantee exact rank deficiency
    centers = np.array([[0.0], [0.0], [1.0]])
    Z = np.linspace(-1, 1, 30).reshape(-1, 1)
    with pytest.warns(UserWarning, match="rank-deficient"):
        fit_least_squares(centers, 0.8, (Z, np.sin(Z[:, 0])))


def test_ridge_keeps_weight_norm_tame():
    centers = make_centers(CenterLayout("tensor-grid", [(-1.5, 1.5)], total=27))
    stream = derive_stream(7, 1)
    Z = stream.uniform(300, -1.5, 1.5).reshape(-1, 1)
    target = Z[:, 0] * np.sin(Z[:, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plain = fit_least_squares(centers, 0.8, (Z, target))
    ridged = fit_least_squares(centers, 0.8, (Z, target), ridge=1e-6)
    assert np.linalg.norm(ridged) < np.linalg.norm(plain)


def test_network_validation():
    centers = make_centers(CenterLayout("tensor-grid", [(-1.5, 1.5)], total=5))
    with pytest.raises(ValueError):
        RbfNetwork(1, centers, -0.5, np.zeros(5))
    with pytest.raises(ValueError):
        RbfNetwork(1, centers, 0.8, np.zeros(4))
    with pytest.raises(ValueError):
        RbfNetwork(2, centers, 0.8, np.zeros(5))
