"""DBSCAN (grid and naive), mean-shift, and the spatial index."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from centerseg import (
    CenterCloud,
    ClusterLabels,
    GridDims,
    GridIndex,
    PipelineConfig,
    clustering,
    dbscan,
    dbscan_naive,
    filter_centers,
    formats,
    generate_centers,
    mean_shift,
    neighbors_at_least,
)
from centerseg.cli import main
from centerseg.instances import _group_means
from test_golden import FULLRES_SCENE


def random_cloud(rng, n):
    """Blobs, uniform scatter, or a mix, like the clouds votes produce."""
    kind = rng.random()
    if kind < 0.4:
        k = int(rng.integers(1, 8))
        centers = rng.uniform(0, 120, (k, 2))
        pts = centers[rng.integers(0, k, n)] + rng.normal(0, rng.uniform(0.4, 3.0), (n, 2))
    elif kind < 0.7:
        pts = rng.uniform(0, rng.uniform(20, 300), (n, 2))
    else:
        k = int(rng.integers(1, 5))
        centers = rng.uniform(0, 80, (k, 2))
        blob = centers[rng.integers(0, k, n // 2)] + rng.normal(0, 1.0, (n // 2, 2))
        noise = rng.uniform(0, 80, (n - n // 2, 2))
        pts = np.vstack([blob, noise])
    return pts


def test_empty_input():
    for fn in (dbscan, dbscan_naive):
        labels = fn(np.zeros((0, 2)), 2.5, 50)
        assert labels.n_groups == 0 and len(labels) == 0
    labels = mean_shift(np.zeros((0, 2)), bandwidth=10.0)
    assert labels.n_groups == 0


def test_singletons():
    for fn in (dbscan, dbscan_naive):
        one = fn([[1.0, 2.0]], 2.5, 1)
        assert one.n_groups == 1 and list(one.labels) == [1]
        none = fn([[1.0, 2.0]], 2.5, 2)
        assert none.n_groups == 0 and list(none.labels) == [0]


@pytest.mark.parametrize(
    "labels, n_groups, message",
    [
        ([0, -1, 1], 1, "must lie in"),  # a negative label
        ([0, 1, 3], 2, "must lie in"),  # a label above n_groups
        ([1, 3, 0, 3], 3, "non-empty"),  # group 2 of 3 is empty
        ([0, 0], 1, "non-empty"),  # n_groups > 0 with no grouped labels
        ([], 2, "cannot have groups"),  # n_groups > 0 with no labels
    ],
)
def test_cluster_labels_rejections(labels, n_groups, message):
    with pytest.raises(ValueError, match=message):
        ClusterLabels(np.array(labels, dtype=np.int64), n_groups)


@st.composite
def grouped_votes(draw):
    """Labels with every group 1..n_groups non-empty: many groups of one
    vote, or a few large ones; positions up to the float32 range."""
    n_groups = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extra = rng.integers(0, n_groups + 1, draw(st.integers(0, 3000)))
    raw = rng.permutation(np.r_[np.arange(n_groups + 1), extra])
    scale = draw(st.sampled_from([1.0, 1280.0, 3e38]))
    return ClusterLabels(raw, n_groups), rng.uniform(-1, 1, (raw.size, 2)) * scale


@settings(max_examples=100, deadline=None)
@given(grouped=grouped_votes())
def test_group_means_match_per_group_means(grouped):
    labels, positions = grouped
    n = len(labels)
    cloud = CenterCloud(
        dims=GridDims(n, 1), source_pixels=np.arange(n), positions=positions, filtered=np.zeros(n, dtype=bool)
    )
    sizes, centroids = _group_means(cloud, labels)
    members = [np.flatnonzero(labels.labels == g) for g in range(1, labels.n_groups + 1)]
    with np.errstate(over="ignore", invalid="ignore"):  # float32-range sums overflow, as in _group_means
        want = np.array([positions.take(idx, axis=0).mean(axis=0) for idx in members]).reshape(-1, 2)
    assert sizes.tolist() == [idx.size for idx in members]
    # bit for bit, the NaNs of inf - inf included
    assert np.array_equal(centroids.view(np.uint64), want.view(np.uint64))


def test_parameter_validation():
    for fn in (dbscan, dbscan_naive):
        with pytest.raises(ValueError):
            fn([[0.0, 0.0]], 0.0, 1)
        with pytest.raises(ValueError):
            fn([[0.0, 0.0]], 1.0, 0)
    with pytest.raises(ValueError):
        mean_shift([[0.0, 0.0]], bandwidth=0.0)


def test_two_blobs_match_oracle():
    rng = np.random.default_rng(123)
    a = rng.normal(0, 1.0, (60, 2))
    b = rng.normal(0, 1.0, (60, 2)) + [50.0, 0.0]
    pts = np.vstack([a, b])
    fast = dbscan(pts, 2.5, 50)
    slow = dbscan_naive(pts, 2.5, 50)
    assert fast == slow
    assert fast.n_groups == 2


def test_oracle_equivalence_random_clouds():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        n = int(rng.integers(0, 900))
        pts = random_cloud(rng, n) if n else np.zeros((0, 2))
        eps = float(rng.uniform(0.5, 12.0))
        min_pts = int(rng.integers(1, 50))
        assert dbscan(pts, eps, min_pts) == dbscan_naive(pts, eps, min_pts)


def test_border_points_join_first_cluster():
    # two dense packs sharing one border point equidistant from both
    left = [[0.0, 0.0]] * 4
    right = [[4.0, 0.0]] * 4
    border = [[2.0, 0.0]]
    pts = np.array(left + right + border)
    labels = dbscan(pts, 2.0, 4)
    # the border point is reachable from both packs; scan order says pack 1
    assert labels.labels[-1] == 1
    assert labels == dbscan_naive(pts, 2.0, 4)


def test_permutation_robustness_core_structure():
    rng = np.random.default_rng(9)
    pts = random_cloud(rng, 400)
    eps, min_pts = 2.0, 8
    base = dbscan(pts, eps, min_pts)

    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    within = d2 <= eps * eps
    core = within.sum(1) >= min_pts
    lonely_noise = ~core & ~(within & core[None, :]).any(1)

    perm = rng.permutation(len(pts))
    shuffled = dbscan(pts[perm], eps, min_pts)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    back = shuffled.labels[inv]

    assert shuffled.n_groups == base.n_groups
    # core partition identical up to relabeling
    for m in range(1, base.n_groups + 1):
        members = np.flatnonzero((base.labels == m) & core)
        if members.size:
            assert len(set(back[members])) == 1
    # non-border noise identical
    assert np.array_equal(back[lonely_noise] == 0, base.labels[lonely_noise] == 0)
    assert np.all(back[lonely_noise] == 0)


def test_translation_invariance():
    rng = np.random.default_rng(31)
    pts = random_cloud(rng, 300)
    base = dbscan(pts, 1.5, 6)
    moved = dbscan(pts + np.array([123.0, -45.0]), 1.5, 6)
    assert base == moved


def test_mean_shift_coincident():
    labels = mean_shift(np.array([[5.0, 5.0]] * 12), bandwidth=3.0)
    assert labels.n_groups == 1
    assert set(labels.labels) == {1}


def test_mean_shift_two_far_groups():
    pts = np.array([[0.0, 0.0]] * 6 + [[100.0, 0.0]] * 6)
    labels = mean_shift(pts, bandwidth=10.0)
    assert labels.n_groups == 2
    assert len(set(labels.labels[:6])) == 1
    assert len(set(labels.labels[6:])) == 1
    assert labels.labels[0] != labels.labels[6]


def test_mean_shift_single_point():
    labels = mean_shift([[3.0, 4.0]], bandwidth=2.0)
    assert labels.n_groups == 1


def test_mean_shift_has_no_noise_label():
    rng = np.random.default_rng(8)
    pts = random_cloud(rng, 200)
    labels = mean_shift(pts, bandwidth=5.0)
    assert labels.labels.min() >= 1


def test_grid_index_empty():
    index = GridIndex(np.zeros((0, 2)), 2.0)
    assert len(index) == 0 and index.counts_within(1).size == 0
    assert neighbors_at_least(np.zeros((0, 2)), 2.0, 1).size == 0


def counts_read_back(decide, n):
    """Each point's neighbor count read back from threshold decisions: the
    number of k in 1..n for which ``decide(k)`` holds."""
    return sum((decide(k).astype(np.int64) for k in range(1, n + 1)), np.zeros(n, dtype=np.int64))


def neighbor_counts(pts, r):
    """The exact neighbor counts, read back from ``neighbors_at_least`` at every k."""
    return counts_read_back(lambda k: neighbors_at_least(pts, r, k), len(pts))


def test_radius_boundary_is_closed():
    # squared distances exactly eps*eps: 3*3 on an axis, 3*3 + 4*4 across
    for pts, eps in (([[0.0, 0.0], [3.0, 0.0]], 3.0), ([[0.0, 0.0], [3.0, 4.0]], 5.0)):
        assert list(neighbor_counts(pts, eps)) == [2, 2]
        assert list(dbscan(pts, eps, 2).labels) == [1, 1]
        assert dbscan(pts, np.nextafter(eps, 0), 2).n_groups == 0


def test_neighbor_counts_vs_bruteforce():
    rng = np.random.default_rng(77)
    pts = rng.uniform(0, 50, (400, 2))
    r = 3.0
    got = neighbor_counts(pts, r)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    assert np.array_equal(got, (d2 <= r * r).sum(1))


# --- the DBSCAN contract, checked clause by clause --------------------------


def contract_labels(pts, eps, min_pts):
    """Labels straight from the module's contract, by exhaustive pair tests.

    Closed balls (``<=``); clusters are the connected components of the
    core-neighbor graph, numbered by their lowest core index; a border
    point takes the lowest-numbered cluster with a core within eps.
    """
    n = len(pts)
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    dx = pts[None, :, 0] - pts[:, None, 0]
    dy = pts[None, :, 1] - pts[:, None, 1]
    within = dx * dx + dy * dy <= eps * eps
    core = within.sum(1) >= min_pts
    _, comp = connected_components(csr_matrix(within & core[:, None] & core[None, :]))
    labels = np.zeros(n, dtype=np.int64)
    groups = 0
    for i in np.flatnonzero(core):  # ascending: each component first seen at its lowest core
        if labels[i] == 0:
            groups += 1
            labels[core & (comp == comp[i])] = groups
    for i in np.flatnonzero(~core):
        near = labels[within[i] & core]
        if near.size:
            labels[i] = near.min()
    return labels, groups


def lattice_clouds():
    def cloud(extent):
        site = st.tuples(st.integers(0, extent), st.integers(0, extent))
        return st.lists(site, max_size=160).map(lambda xy: np.array(xy, dtype=np.float64).reshape(-1, 2))

    return st.integers(1, 30).flatmap(cloud)


def coincident_clouds():
    sites = st.tuples(st.floats(-50, 50, allow_nan=False), st.floats(-50, 50, allow_nan=False))
    return st.builds(
        lambda spots, picks: np.array([spots[p % len(spots)] for p in picks]).reshape(-1, 2),
        st.lists(sites, min_size=1, max_size=4),
        st.lists(st.integers(0, 3), max_size=200),
    )


LATTICE_EPS = [1.0, float(np.sqrt(2.0)), 2.0, 2.5]


def check_contract(pts, eps, min_pts, pair_block=None, query_block=None, shrink=None):
    """dbscan against the contract and the oracle, optionally with small blocks or narrow cells.

    Small pair and query blocks make every cloud span several blocks.
    Narrower cells (side ``0.75 * eps/sqrt(2)``, at least eps/2, so the
    5x5 block still reaches every neighbor) cut the same cloud along
    other boundaries, so the cell shortcuts and the pair tests behind
    them meet other cases.
    """
    with (
        mock.patch.object(clustering, "_PAIR_BLOCK", pair_block or clustering._PAIR_BLOCK),
        mock.patch.object(clustering, "_QUERY_BLOCK", query_block or clustering._QUERY_BLOCK),
        mock.patch.object(clustering, "_SHRINK", shrink or clustering._SHRINK),
    ):
        got = dbscan(pts, eps, min_pts)
    labels, groups = contract_labels(pts, eps, min_pts)
    assert got.n_groups == groups
    assert np.array_equal(got.labels, labels)
    assert got == dbscan_naive(pts, eps, min_pts)


@settings(max_examples=150, deadline=None)
@given(
    pts=st.one_of(lattice_clouds(), coincident_clouds()),
    eps=st.sampled_from(LATTICE_EPS),
    min_pts=st.integers(1, 14),
    blocks=st.sampled_from([(7, 5), (64, 16), (None, None)]),
    shrink=st.sampled_from([None, 0.75]),
)
def test_dbscan_contract(pts, eps, min_pts, blocks, shrink):
    check_contract(pts, eps, min_pts, *blocks, shrink)


def test_dbscan_contract_narrow_cells():
    # sparse lattices in cells narrower than eps/sqrt(2): a ball reaches further across the 5x5 block
    rng = np.random.default_rng(77)
    for _ in range(300):
        extent = int(rng.integers(1, 30))
        n = int(rng.integers(0, 160))
        if rng.random() < 0.3:
            pts = rng.uniform(0, extent / 3, (n, 2))
        else:
            pts = rng.integers(0, extent + 1, (n, 2)) * rng.choice([1.0, 0.5])
        eps = float(rng.choice(LATTICE_EPS))
        check_contract(pts, eps, int(rng.integers(1, 15)), 64, 16, shrink=0.75)


def test_dbscan_contract_large_lattice():
    # thousands of votes on a lattice: ties on every ball boundary, many full-size pair blocks
    rng = np.random.default_rng(12)
    pts = rng.integers(0, 60, (6000, 2)).astype(np.float64)
    for eps, min_pts in ((1.0, 3), (2.0, 7), (2.5, 12)):
        labels, groups = contract_labels(pts, eps, min_pts)
        got = dbscan(pts, eps, min_pts)
        assert got.n_groups == groups and np.array_equal(got.labels, labels)


def test_huge_finite_coordinates():
    # float32-range votes at +-3e38 next to ordinary blobs: no undefined int casts
    rng = np.random.default_rng(3)
    blob = rng.normal(0, 1.0, (300, 2)) + [40.0, 25.0]
    lattice = np.stack(np.meshgrid(np.arange(8.0), np.arange(8.0)), -1).reshape(-1, 2) + 100.0
    far = np.array([[3e38, 3e38]] * 30 + [[-3e38, 1.0]] * 3 + [[2.0, -3e38], [3e38, -3e38]])
    pts = np.vstack([blob[:150], far, lattice, blob[150:]])
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps, min_pts in ((2.5, 20), (2.5, 3), (1.0, 1), (1.0, 5)):
            assert dbscan(pts, eps, min_pts) == dbscan_naive(pts, eps, min_pts)
        assert np.array_equal(neighbor_counts(pts, 1.0), (d2 <= 1.0).sum(1))
        counts = (d2 <= 20.0 * 20.0).sum(1)
        assert np.array_equal(neighbor_counts(pts, 20.0), counts)
        for k in (1, 10, 31, 400):
            assert np.array_equal(neighbors_at_least(pts, 20.0, k), counts >= k)
        n = len(pts)
        cloud = CenterCloud(
            dims=GridDims(n, 1),
            source_pixels=np.arange(n),
            positions=pts,
            filtered=np.zeros(n, dtype=bool),
        )
        flagged = filter_centers(cloud, radius_t=20.0, min_neighbors=10, strategy="density").filtered
    assert np.array_equal(flagged, counts - 1 < 10)


def test_non_finite_votes_have_no_neighbors():
    pts = np.array([[0.0, 0.0]] * 5 + [[np.nan, 0.0], [np.inf, 1.0], [0.0, -np.inf]] + [[0.5, 0.0]] * 2)
    expected = dbscan_naive(pts, 1.0, 3)
    assert dbscan(pts, 1.0, 3) == expected
    assert list(expected.labels) == [1] * 5 + [0] * 3 + [1] * 2
    assert list(neighbor_counts(pts, 1.0)) == [7] * 5 + [0] * 3 + [7] * 2


def test_neighbors_at_least_vs_bruteforce():
    # every k that some point's count equals, and one past it: the decisions at the edge
    rng = np.random.default_rng(41)
    for trial in range(16):
        if trial % 2:
            pts = random_cloud(rng, int(rng.integers(1, 600)))
            r = float(rng.uniform(0.5, 15.0))
        else:
            pts = rng.integers(0, 12, (int(rng.integers(1, 200)), 2)) * 0.5
            r = float(rng.choice([0.5, 1.0, 1.5]))
        counts = (((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1) <= r * r).sum(1)
        for k in np.unique(np.r_[0, counts, counts + 1]):
            assert np.array_equal(neighbors_at_least(pts, r, k), counts >= k)


def test_memory_grows_with_votes_not_neighborhoods():
    # 4 packs of 10k coincident votes: every vote has 10k neighbors
    spots = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
    pts = np.repeat(spots, 10_000, axis=0)
    tracemalloc.start()
    try:
        labels = dbscan(pts, 2.5, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.n_groups == 4
    assert np.array_equal(labels.labels, np.repeat(np.arange(1, 5), 10_000))
    assert peak < 64 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MB"


# --- the sub-cell pass of the count phase -----------------------------------


def dense_clouds():
    """Tight packs of many votes each, so cells hold many votes and their
    sub-cells are partly covered, plus sparse noise, coincident copies of
    some pack votes and, sometimes, float32-range votes (the wide-range
    cell path). The votes are shuffled, so a cell's lowest index is
    seldom first in its sub-cell order; snapped clouds put ties on ball
    boundaries."""

    def build(seed, packs, per_pack, spread, noise, extent, snap, extremes):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0, extent, (packs, 2))
        pack = np.repeat(centers, per_pack, axis=0) + rng.normal(0, spread, (packs * per_pack, 2))
        pts = np.vstack([pack, rng.uniform(0, extent, (noise, 2)), pack[: per_pack // 3]])
        if snap:
            pts = np.round(pts * 2) / 2
        if extremes:
            pts = np.vstack([pts, [[3e38, 3e38]] * 6 + [[-3e38, 1.0]] * 2 + [[2.0, -3e38]]])
        return rng.permutation(pts)

    return st.builds(
        build,
        seed=st.integers(0, 2**32 - 1),
        packs=st.integers(1, 4),
        per_pack=st.integers(5, 90),
        spread=st.sampled_from([0.3, 0.8, 1.5]),
        noise=st.integers(0, 120),
        extent=st.sampled_from([12.0, 40.0]),
        snap=st.booleans(),
        extremes=st.booleans(),
    )


def exact_counts(pts, r):
    dx = pts[None, :, 0] - pts[:, None, 0]
    dy = pts[None, :, 1] - pts[:, None, 1]
    return (dx * dx + dy * dy <= r * r).sum(1)


@settings(max_examples=120, deadline=None)
@given(
    pts=dense_clouds(),
    eps=st.sampled_from([1.0, 2.5, 4.0]),
    min_pts=st.integers(1, 60),
    blocks=st.sampled_from([(7, 5), (None, None)]),
)
def test_sub_cell_counts_and_dbscan_match_brute_force(pts, eps, min_pts, blocks):
    pair_block, query_block = blocks
    counts = exact_counts(pts, eps)
    index = GridIndex(pts, eps)
    # the exact counts, read back from the decision at every k
    exact = counts_read_back(lambda k: index.unsorted(index.counts_within(k) >= k, False), len(pts))
    assert np.array_equal(exact, counts)
    with (
        mock.patch.object(clustering, "_PAIR_BLOCK", pair_block or clustering._PAIR_BLOCK),
        mock.patch.object(clustering, "_QUERY_BLOCK", query_block or clustering._QUERY_BLOCK),
    ):
        # refined only as far as the decision: a lower bound that decides it exactly
        bounded = index.unsorted(index.counts_within(min_pts), 0)
        assert np.array_equal(bounded >= min_pts, counts >= min_pts)
        assert np.all(bounded <= counts)
        assert dbscan(pts, eps, min_pts) == dbscan_naive(pts, eps, min_pts)


def test_cluster_numbered_by_lowest_core_not_first_in_sub_cell_order():
    # cluster A: vote 0 shares a cell with votes 10..19 but lies in a later
    # sub-cell, so the cell's first core in sorted order is not its lowest
    # index; cluster B (votes 1..9) is far away. A holds the lowest core, so it is cluster 1.
    pts = np.zeros((20, 2))
    pts[0] = [1.4, 1.4]
    pts[1:10] = [100.0, 100.0]
    index = GridIndex(pts, 2.5)
    cell = index.cell_of[np.flatnonzero(index.order == 0)[0]]
    assert index.sub_count[cell] == 2 and index.order[index.starts[cell]] != 0
    labels = dbscan(pts, 2.5, 5)
    assert labels == dbscan_naive(pts, 2.5, 5)
    assert list(labels.labels) == [1] + [2] * 9 + [1] * 10


def pairs_tested_by(call):
    """Pairs ``call()`` hands to ``_pair_tests``, and its result."""
    tested = []
    real = clustering._pair_tests

    def counting(qx, qy, first, size, *rest):
        tested.append(int(size.sum()))
        return real(qx, qy, first, size, *rest)

    with mock.patch.object(clustering, "_pair_tests", counting):
        out = call()
    return sum(tested), out


def pairs_tested(index, at_least):
    """Pairs ``counts_within(at_least)`` hands to ``_pair_tests``, and its result."""
    return pairs_tested_by(lambda: index.counts_within(at_least))


def full_scale_cloud():
    """A retained-vote cloud like one full-scale frame: 14 packs of 1250
    votes (offset noise sigma 1.5 px) and 15k scattered votes over 1280x720."""
    rng = np.random.default_rng(14)
    centers = np.stack([rng.uniform(80, 1200, 14), rng.uniform(80, 640, 14)], axis=1)
    packs = np.repeat(centers, 1250, axis=0) + rng.normal(0, 1.5, (14 * 1250, 2))
    return rng.permutation(np.vstack([packs, rng.integers(0, (1280, 720), (15_000, 2))]))


def test_sub_cells_cut_pair_tests_on_a_full_scale_cloud():
    pts = full_scale_cloud()
    eps, min_pts = 2.5, 50
    sub_cells, out = pairs_tested(GridIndex(pts, eps), min_pts)
    # the same index with each cell as its only sub-cell, keyed as on the
    # wide path (parity bits 0), so its block is its own cell: whole-cell bounds alone
    whole = GridIndex(pts, eps)
    whole.sub_starts, whole.sub_counts, whole.sub_box = whole.starts, whole.counts, whole.box
    whole.sub_first, whole.sub_count = np.arange(whole.counts.size), np.ones_like(whole.counts)
    whole.sub_keys = whole.cell_keys << 2
    whole_cells, whole_out = pairs_tested(whole, min_pts)
    assert np.array_equal(out >= min_pts, whole_out >= min_pts)
    assert 0 < 5 * sub_cells <= whole_cells, (sub_cells, whole_cells)


def screened_full_scale_index(eps, min_pts):
    """The grid index ``dbscan`` builds for :func:`full_scale_cloud`: the
    votes its coarse screen keeps, about 17.6k."""
    pts = full_scale_cloud()
    return GridIndex(pts[clustering._crowded(pts, eps, min_pts)], eps)


def test_sub_cell_blocks_settle_most_votes_their_cell_leaves_undecided():
    # the votes whose own cell holds fewer than min_pts: more than half have
    # min_pts in their 3x3 sub-cell block and never reach the per-vote passes
    eps, min_pts = 2.5, 50
    index = screened_full_scale_index(eps, min_pts)
    undecided = int((index.counts[index.cell_of] < min_pts).sum())
    queried = []
    rows = index.rows
    with mock.patch.object(index, "rows", lambda q: (queried.append(q.size), rows(q))[1]):
        out = index.counts_within(min_pts)
    assert undecided > 2000 and 2 * sum(queried) <= undecided, (sum(queried), undecided)
    # a block of the own sub-cell alone settles nothing its cell does not
    with mock.patch.object(clustering, "_SUB_STEPS", np.zeros(1, dtype=np.int64)):
        plain = index.counts_within(min_pts)
    assert np.array_equal(out >= min_pts, plain >= min_pts)


def test_count_phase_memory_on_a_full_scale_cloud():
    # rows of 25 neighbor cells for only the votes the block leaves: about
    # 2.3 MB traced peak, against about 6.7 MB with rows for every vote its cell leaves
    index = screened_full_scale_index(2.5, 50)
    tracemalloc.start()
    try:
        index.counts_within(50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"


def test_probe_joins_the_core_cells_of_a_full_scale_cloud():
    # without the probe, _connect tests some 2.8M core pairs one by one
    pts = full_scale_cloud()
    eps, min_pts = 2.5, 50
    index = GridIndex(pts, eps)
    cores = clustering._CoreCells(index, index.counts_within(min_pts) >= min_pts)
    tested, root = pairs_tested_by(lambda: clustering._connect(index, cores))
    assert tested <= 10_000, tested
    assert np.unique(root).size == dbscan(pts, eps, min_pts).n_groups


# --- the coarse screen before the grid --------------------------------------


@st.composite
def screened_clouds(draw):
    """``(pts, eps)``: packs of votes, halo votes at a distance in
    ``[eps, 2*eps]`` from a pack vote (a third at exactly ``2*eps``),
    scattered votes, and votes on the screen's coarse-cell edges and one
    ulp either side. Snapped clouds lie on a lattice of step ``eps / 2``,
    with ties at exactly ``eps`` and ``2*eps``. Sometimes float32-range
    votes (the screen leaves nothing out) or non-finite votes."""
    eps = draw(st.sampled_from([1.0, 2.5, 4.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    packs, per_pack = draw(st.integers(1, 4)), draw(st.integers(1, 60))
    halo, noise = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    extent = draw(st.sampled_from([6.0, 20.0, 60.0])) * eps
    centers = rng.uniform(0, extent, (packs, 2))
    spread = draw(st.sampled_from([0.1, 0.3, 0.8])) * eps
    pack = np.repeat(centers, per_pack, axis=0) + rng.normal(0, spread, (packs * per_pack, 2))
    dist = eps * rng.uniform(1.0, 2.0, halo)
    dist[rng.random(halo) < 0.3] = 2 * eps
    angle = rng.choice([0.0, np.pi / 2, np.pi, rng.uniform(0, 2 * np.pi)], halo)
    ring = pack[rng.integers(0, len(pack), halo)] + dist[:, None] * np.stack([np.cos(angle), np.sin(angle)], 1)
    pts = np.vstack([pack, ring, rng.uniform(0, extent, (noise, 2))])
    if draw(st.booleans()):
        pts = np.round(pts / (eps / 2)) * (eps / 2)
    side = eps * clustering._COARSE
    lo = pts.min(axis=0)
    edges = lo + rng.integers(0, int(extent / side) + 1, (draw(st.integers(0, 30)), 2)) * side
    for step in (-np.inf, np.inf):  # one ulp either side, never below the lowest coordinate
        edges = np.vstack([edges, np.maximum(np.nextafter(edges[: len(edges) // 3], step), lo)])
    pts = np.vstack([pts, edges])
    extra = draw(st.sampled_from(["", "float32", "non-finite"]))
    if extra == "float32":
        pts = np.vstack([pts, [[3e38, 3e38]] * 6 + [[-3e38, 1.0]] * 2 + [[2.0, -3e38]]])
    elif extra == "non-finite":
        pts = np.vstack([pts, [[np.nan, 0.0], [np.inf, 1.0], [0.0, -np.inf]] * 3])
    return rng.permutation(pts), eps


@settings(max_examples=150, deadline=None)
@given(cloud=screened_clouds(), min_pts=st.one_of(st.sampled_from([1, 2]), st.integers(1, 60)))
def test_screen_leaves_out_only_noise(cloud, min_pts):
    pts, eps = cloud
    kept = clustering._crowded(pts, eps, min_pts)
    with np.errstate(invalid="ignore"):
        labels, groups = contract_labels(pts, eps, min_pts)
        reach = exact_counts(pts, 2 * eps)
    naive = dbscan_naive(pts, eps, min_pts)
    if min_pts == 1 or np.abs(pts).max() > 1e38:
        assert kept is None
    if kept is not None:
        assert np.all(np.diff(kept) > 0)
        out = np.ones(len(pts), dtype=bool)
        out[kept] = False
        # fewer than min_pts votes within 2*eps: neither the vote nor any neighbor is core
        assert np.all(reach[out] < min_pts)
    got = dbscan(pts, eps, min_pts)
    assert got.n_groups == groups and np.array_equal(got.labels, labels)
    assert got == naive


def test_screen_leaves_out_isolated_votes_on_a_full_scale_cloud():
    pts = full_scale_cloud()
    eps, min_pts = 2.5, 50
    kept = clustering._crowded(pts, eps, min_pts)
    out = np.ones(len(pts), dtype=bool)
    out[kept] = False
    assert out.sum() >= 0.4 * len(pts), out.sum()
    with mock.patch.object(clustering, "_crowded", lambda *args: None):
        unscreened = dbscan(pts, eps, min_pts)
    # no vote left out is core or border
    assert not (neighbors_at_least(pts, eps, min_pts) & out).any()
    assert not unscreened.labels[out].any()
    assert dbscan(pts, eps, min_pts) == unscreened


def test_screen_keeps_every_vote_where_its_bound_does_not_hold():
    pts = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
    assert clustering._crowded(pts, 2.5, 1) is None  # every vote is core
    assert clustering._crowded(np.vstack([pts, [[3e38, 0.0]]]), 2.5, 2) is None  # too many cells
    assert list(clustering._crowded(pts, 2.5, 2)) == []
    assert list(clustering._crowded(np.zeros((0, 2)), 2.5, 2)) == []
    assert list(clustering._crowded(np.array([[np.nan, 0.0], [0.0, 0.0], [0.0, 0.0]]), 2.5, 2)) == [1, 2]


# --- the radius contract ------------------------------------------------------

# the smallest and largest radii whose square is a normal float
R_MIN = float(np.sqrt(np.finfo(np.float64).tiny))
R_MAX = float(np.sqrt(np.finfo(np.float64).max))
BAD_RADII = [np.nan, np.inf, -np.inf, 0.0, -1.0, 1e-160, 1e160]
BAD_RADII += [float(np.nextafter(R_MIN, 0.0)), float(np.nextafter(R_MAX, np.inf))]  # one step out
_PTS = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
_CLOUD = CenterCloud(GridDims(3, 1), np.arange(3), _PTS, np.zeros(3, dtype=bool))
# each entry point that takes a radius, and the name its message starts with
RADIUS_ENTRY_POINTS = {
    "GridIndex": ("radius", lambda r: GridIndex(_PTS, r)),
    "neighbors_at_least": ("radius", lambda r: neighbors_at_least(_PTS, r, 2)),
    "dbscan": ("eps", lambda r: dbscan(_PTS, r, 2)),
    "dbscan_naive": ("eps", lambda r: dbscan_naive(_PTS, r, 2)),
    "mean_shift": ("bandwidth", lambda r: mean_shift(_PTS, r)),
    "filter_centers-density": ("radius_t", lambda r: filter_centers(_CLOUD, r, 1, "density")),
    "filter_centers-offset-magnitude": ("radius_t", lambda r: filter_centers(_CLOUD, r, 1, "offset-magnitude")),
    "PipelineConfig-t": ("t", lambda r: PipelineConfig(t=r)),
    "PipelineConfig-eps": ("eps", lambda r: PipelineConfig(eps=r)),
    "PipelineConfig-bandwidth": ("bandwidth", lambda r: PipelineConfig(bandwidth=r)),
}


@pytest.mark.parametrize("radius", BAD_RADII, ids=repr)
@pytest.mark.parametrize("entry", RADIUS_ENTRY_POINTS)
def test_every_entry_point_rejects_a_radius_outside_the_contract(entry, radius):
    name, call = RADIUS_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be > 0"):
        call(radius)


def test_radius_bounds_are_accepted():
    for radius in (R_MIN, R_MAX):
        for _, call in RADIUS_ENTRY_POINTS.values():
            call(radius)


@pytest.mark.parametrize("eps, d", [(1e160, 1e163), (1e-170, 1e-165)])
def test_clouds_whose_eps_square_is_not_normal_raise(eps, d):
    # at these radii the grid and the oracle's pair test once disagreed: 4 clusters against 1
    pts = np.array([[0.0, 0.0], [d, 0.0], [0.0, d], [d, d]] * 3)
    for fn in (dbscan, dbscan_naive):
        with pytest.raises(ValueError, match="^eps must be > 0"):
            fn(pts, eps, 3)


@pytest.mark.parametrize("eps", [R_MIN, R_MAX], ids=["smallest", "largest"])
def test_dbscan_matches_naive_at_the_radius_bounds(eps):
    rng = np.random.default_rng(16)
    clouds = [np.array([[0.0, 0.0], [1e3, 0.0], [0.0, 1e3], [1e3, 1e3]] * 3)]
    clouds += [random_cloud(rng, int(rng.integers(1, 300))) for _ in range(150)]
    for pts in clouds:
        pts = pts * (eps / 2.5)  # eps plays 2.5 px
        min_pts = int(rng.integers(1, 8))
        assert dbscan(pts, eps, min_pts) == dbscan_naive(pts, eps, min_pts)


def test_dbscan_matches_naive_on_a_full_scale_frame(tmp_path):
    # the retained votes of the first FULLRES_GOLDEN frame at t=20 eps=2.5
    # min_pts=50 under the offset-magnitude filter: about 29k votes
    scene = tmp_path / "scene.cfg"
    scene.write_text(FULLRES_SCENE)
    assert main(["synth", str(scene), "--out-dir", str(tmp_path), "--frames", "1"]) == 0
    sem = formats.read_semantic(tmp_path / "frame_0000.ccsm")
    off = formats.read_offsets(tmp_path / "frame_0000.ccof")
    cloud = filter_centers(generate_centers(sem, off), radius_t=20.0, min_neighbors=0, strategy="offset-magnitude")
    votes = cloud.positions[~cloud.filtered]
    assert 25_000 < len(votes) < 35_000, len(votes)
    labels = dbscan(votes, 2.5, 50)
    assert labels.n_groups >= 10
    assert labels == dbscan_naive(votes, 2.5, 50)


# --- cells within the radius by construction --------------------------------


def edge_cloud(rng, unit, last, n_edges, ulps, patches):
    """Votes on the floats around the edges of cells of side ``unit``, up
    to ``last`` cells from the lowest: each of ``patches`` cells k, among
    them 0, 1 and 2, gets a patch of votes within ``ulps`` ulps of the
    edges ``k * unit`` to ``(k + n_edges - 1) * unit`` on both axes, so
    votes at opposite corners sit as far apart as those cells let them."""
    ks = np.r_[0, 1, 2, rng.integers(3, last, patches - 3)]
    steps = np.arange(-ulps, ulps + 1)

    def edges(k):
        at = unit * (k + np.arange(float(n_edges)))
        return np.maximum(at[:, None] + steps * np.spacing(at)[:, None], 0.0).ravel()

    cloud = []
    for kx, ky in zip(ks, rng.permutation(ks)):
        gx, gy = np.meshgrid(edges(kx), edges(ky))
        cloud.append(np.stack([gx.ravel(), gy.ravel()], 1))
    return np.vstack(cloud)


# float32-range votes, which take the wide path of _axis_cells on both axes, and on x only
FAR = np.array([[3e38, 3e38]] * 5 + [[-3e38, 1.0]] * 3 + [[2.0, -3e38], [3e38, -3e38]])
FAR_X = np.array([[3e38, 5.0]] * 4 + [[-3e38, 7.0]] * 2)


def assert_cells_within(pts, r):
    index = GridIndex(pts, r)
    assert np.all(clustering._bounds(index.box, index.box)[1] <= index.r2)
    cores = clustering._CoreCells(index, index.counts_within(2) >= 2)
    assert np.all(clustering._bounds(cores.box, cores.box)[1] <= index.r2)


@pytest.mark.parametrize("r", [R_MIN, 1e-3, 1.0, 2.5, 20.0, 1e6, R_MAX], ids=repr)
def test_every_cell_lies_within_the_radius(r):
    # the invariant that lets a dense cell be all core and a cell's cores one union-find node
    rng = np.random.default_rng(22)
    # both edges of 30 cells: a cell wider than the rounding allows holds votes at opposite corners
    edges = edge_cloud(rng, r / np.sqrt(2.0) * clustering._SHRINK, 2**29, 2, 3, 30)
    blobs = random_cloud(rng, 2000) * (r / 2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pts in (edges, np.vstack([edges, blobs]), np.vstack([blobs, FAR]), np.vstack([edges, FAR])):
            assert_cells_within(pts, r)


# --- the 3x3 sub-cell block within the radius --------------------------------


def assert_sub_blocks_within(pts, r):
    """Every vote of each sub-cell passes the float pair test against every
    vote of each sub-cell in its block."""
    index = GridIndex(pts, r)
    block = index.sub_blocks(np.arange(index.sub_keys.size))
    sub, col = np.nonzero(block >= 0)
    k, q = clustering._ragged(index.sub_starts[sub], index.sub_counts[sub])
    other = block[sub, col][k]
    first, size = index.sub_starts[other], index.sub_counts[other]
    for _, _, hit in clustering._pair_tests(index.x[q], index.y[q], first, size, index.x, index.y, index.r2):
        assert hit.all(), f"{np.count_nonzero(~hit)} pairs in one block beyond the radius"


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.sampled_from([R_MIN, 1e-3, 1.0, 2.5, 20.0, 1e6, R_MAX]),
    kind=st.sampled_from(["edges", "edges+blobs", "blobs+far", "blobs+far-x", "edges+far"]),
)
def test_every_sub_cell_block_lies_within_the_radius(seed, r, kind):
    # the bound that lets counts_within settle a vote by its 3x3 sub-cell block
    rng = np.random.default_rng(seed)
    parts = []
    if "edges" in kind:
        # the edges of sub-cells k to k + 2 for 16 sub-cells k: votes in sub-cells
        # one or two apart sit as far apart as those sub-cells let them
        parts.append(edge_cloud(rng, r / np.sqrt(2.0) * clustering._SHRINK / 2, 2**30, 4, 2, 16))
    if "blobs" in kind:
        parts.append(random_cloud(rng, 1500) * (r / 2.5))
    parts.append({"far": FAR, "far-x": FAR_X}.get(kind.rpartition("+")[2], np.zeros((0, 2))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_sub_blocks_within(np.vstack(parts), r)
