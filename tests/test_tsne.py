import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aad.audio_io import ANOMALY, NORMAL
from aad.errors import ConfigError, ContractError
from aad.tsne import (
    EmbedConfig,
    conditional_affinities,
    emit_plot,
    pairwise_affinities,
    tsne_embed,
    _kl,
    _student_t_q,
)
from conftest import silhouette


def two_clusters(n_per=20, dims=64, separation=50.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_per, dims))
    b = rng.normal(0.0, 1.0, (n_per, dims))
    b[:, 0] += separation
    labels = [NORMAL] * n_per + [ANOMALY] * n_per
    return np.vstack([a, b]), labels


class TestAffinities:
    def test_square_corners_symmetric_rows_stochastic(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        cond = conditional_affinities(x, perplexity=2.0)
        np.testing.assert_allclose(cond.sum(axis=1), 1.0, rtol=1e-12)
        p = pairwise_affinities(x, perplexity=2.0)
        np.testing.assert_allclose(p, p.T)

    def test_row_entropy_hits_log_perplexity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 8))
        perplexity = 10.0
        cond = conditional_affinities(x, perplexity)
        for row in cond:
            q = row[row > 0]
            entropy = -np.sum(q * np.log(q))
            assert abs(entropy - np.log(perplexity)) < 1e-5

    def test_far_apart_points_reach_the_perplexity(self):
        # squared distances of 31000-42000, like those between clips at the
        # default features: exp(-d * beta) went subnormal near the target
        # bandwidth, the entropy jumped past log(2) and the bisection stalled
        x = np.random.default_rng(14).standard_normal((12, 512)) * 6
        cond = conditional_affinities(x, perplexity=2.0)
        for row in cond:
            q = row[row > 0]
            assert abs(-np.sum(q * np.log(q)) - np.log(2.0)) < 1e-5

    def test_separated_pairs_within_affinity_dominates(self):
        x = np.array([[0.0, 0.0], [0.0, 0.4],
                      [100.0, 0.0], [100.0, 0.4]])
        cond = conditional_affinities(x, perplexity=1.05)
        within = cond[0, 1]
        cross = max(cond[0, 2], cond[0, 3])
        assert within / max(cross, 1e-300) > 100

    def test_p_nonnegative_sums_to_one(self):
        rng = np.random.default_rng(2)
        p = pairwise_affinities(rng.normal(size=(25, 5)), perplexity=5.0)
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_duplicates_are_jittered_not_fatal(self):
        x = np.zeros((10, 3))
        x[5:] += 1.0
        x[1] = x[0]  # exact duplicate
        p = pairwise_affinities(x, perplexity=2.0)
        assert np.all(np.isfinite(p))

    def test_too_few_points(self):
        with pytest.raises(ContractError):
            pairwise_affinities(np.zeros((3, 2)), 2.0)


class TestTsneEmbed:
    def test_identical_points_collapse(self):
        x = np.ones((24, 16))
        cfg = EmbedConfig(output_dims=2, perplexity=5.0, iterations=200, seed=0)
        emb = tsne_embed(x, cfg)
        spread = emb.points.max(axis=0) - emb.points.min(axis=0)
        assert np.all(np.isfinite(emb.points))
        assert float(np.hypot(*spread)) < 1.0

    def test_two_separated_clusters_get_silhouette(self):
        x, labels = two_clusters()
        cfg = EmbedConfig(output_dims=2, perplexity=10.0, iterations=1000, seed=3)
        emb = tsne_embed(x, cfg, labels=labels)
        assert silhouette(emb.points, labels) > 0.5

    def test_same_seed_identical_coordinates(self):
        x, labels = two_clusters(n_per=10, dims=8, separation=5.0)
        cfg = EmbedConfig(output_dims=2, perplexity=4.0, iterations=50, seed=9)
        e1 = tsne_embed(x, cfg, labels=labels)
        e2 = tsne_embed(x, cfg, labels=labels)
        np.testing.assert_array_equal(e1.points, e2.points)

    def test_final_kl_below_initial(self):
        x, labels = two_clusters(n_per=15, dims=16, separation=8.0, seed=4)
        cfg = EmbedConfig(output_dims=2, perplexity=6.0, iterations=600, seed=1)
        emb = tsne_embed(x, cfg)
        assert len(emb.kl_history) == 600
        assert emb.kl_history[-1] < emb.kl_history[0]
        assert all(k >= 0 for k in emb.kl_history)

    def test_affinities_permutation_equivariant(self):
        x, _ = two_clusters(n_per=8, dims=6, separation=6.0, seed=5)
        perm = np.random.default_rng(0).permutation(len(x))
        p = pairwise_affinities(x, 4.0)
        p_perm = pairwise_affinities(x[perm], 4.0)
        np.testing.assert_allclose(p_perm, p[np.ix_(perm, perm)], atol=1e-15)

    def test_dynamics_permutation_equivariant(self):
        # the gain/momentum map amplifies ulp-level reordering noise, so
        # the trajectory check runs over a short horizon
        x, _ = two_clusters(n_per=8, dims=6, separation=6.0, seed=5)
        n = len(x)
        cfg = EmbedConfig(output_dims=2, perplexity=4.0, iterations=20, seed=2)
        rng = np.random.default_rng(0)
        init = 1e-4 * rng.standard_normal((n, 2))
        perm = rng.permutation(n)
        base = tsne_embed(x, cfg, init=init)
        permuted = tsne_embed(x[perm], cfg, init=init[perm])
        np.testing.assert_allclose(permuted.points, base.points[perm],
                                   rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize("perplexity", [float("nan"), float("inf"), 1.0, -2.0])
    def test_perplexity_must_be_finite_and_above_one(self, perplexity):
        # NaN passed, so `aad embed --perplexity nan` extracted every clip first
        with pytest.raises(ConfigError, match="perplexity must be a finite number > 1"):
            EmbedConfig(perplexity=perplexity)

    def test_perplexity_too_large_for_n(self):
        with pytest.raises(ConfigError):
            tsne_embed(np.random.default_rng(0).normal(size=(10, 4)),
                       EmbedConfig(perplexity=30.0, iterations=5))


class TestEmitPlot:
    def _embedding(self, dims):
        rng = np.random.default_rng(6)
        from aad.tsne import Embedding
        return Embedding(points=rng.normal(size=(12, dims)),
                         labels=[NORMAL] * 8 + [ANOMALY] * 4,
                         kl_history=[1.0])

    def test_2d_csv_has_three_columns(self, tmp_path):
        paths = emit_plot(self._embedding(2), tmp_path / "embed")
        csv_path = [p for p in paths if p.suffix == ".csv"][0]
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x,y,label"
        assert len(lines) == 13
        assert all(len(l.split(",")) == 3 for l in lines)

    def test_3d_emits_three_projections(self, tmp_path):
        paths = emit_plot(self._embedding(3), tmp_path / "embed3")
        svgs = sorted(p.name for p in paths if p.suffix == ".svg")
        assert svgs == ["embed3_xy.svg", "embed3_xz.svg", "embed3_yz.svg"]

    def test_anomaly_points_render_orange(self, tmp_path):
        paths = emit_plot(self._embedding(2), tmp_path / "embed")
        svg = [p for p in paths if p.suffix == ".svg"][0].read_text()
        assert svg.count('fill="#ff7f0e"') == 4
        assert svg.count('fill="#1f77b4"') == 8


def test_last_kl_entry_is_of_the_returned_points():
    x, labels = two_clusters(n_per=10, dims=8)
    cfg = EmbedConfig(perplexity=5.0, iterations=30, seed=2)
    emb = tsne_embed(x, cfg, labels=labels)
    p = pairwise_affinities(x, cfg.perplexity)
    assert len(emb.kl_history) == cfg.iterations
    assert emb.kl_history[-1] == _kl(p, _student_t_q(emb.points)[0])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    arrays(np.float64, st.tuples(st.integers(1, 5), st.just(d)),
           elements=st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0])),
    st.lists(st.integers(0, 4), min_size=1, max_size=30))))
def test_duplicate_rows_are_those_np_unique_drops(case):
    from aad.tsne import _duplicate_rows
    rows, picks = case
    x = rows[[i % len(rows) for i in picks]]
    _, first = np.unique(x, axis=0, return_index=True)
    np.testing.assert_array_equal(_duplicate_rows(x),
                                  np.setdiff1d(np.arange(len(x)), first))
