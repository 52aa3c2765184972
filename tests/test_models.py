import json
import struct
import zlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aad.models
from aad.errors import ContractError, FormatError, ShapeError, SpecError
from aad.features import FeatureConfig, FeatureMatrix
from aad.models import (
    MODEL_KINDS,
    LatentDistribution,
    ModelSpec,
    VaeLoss,
    build,
    checkpoint_load,
    checkpoint_save,
    default_spec,
    empirical_receptive_field,
    receptive_field,
    reparameterize,
    vae_loss,
)
from aad.tensor import Tensor, adam_step, backward, init_adam, zero_grads
from conftest import (assert_grads_close, finite_diff_grad, reseal, with_contract,
                      write_version_1, write_with_retired_features)


# the ModelSpec fields each kind reads, besides its kind and the seed of its init
READS = {
    "dense_ae": {"n_mels", "context_frames", "hidden", "bottleneck"},
    "cae": {"n_mels", "window_frames", "window_hop", "conv_channels", "latent_dim", "kernel"},
    "cvae": {"n_mels", "window_frames", "window_hop", "conv_channels", "latent_dim", "kernel"},
    "tcn_cvae": {"n_mels", "window_frames", "window_hop", "latent_dim", "tcn_layers", "kernel",
                 "tcn_channels"},
}
# a small spec, and another valid value of each of its fields
SPEC_FIELDS = dict(n_mels=8, context_frames=3, window_frames=16, window_hop=8, hidden=(16,),
                   bottleneck=4, conv_channels=(4, 8), latent_dim=6, tcn_layers=2, kernel=3,
                   tcn_channels=8)
CHANGED = dict(n_mels=6, context_frames=2, window_frames=32, window_hop=4, hidden=(12,),
               bottleneck=3, conv_channels=(4, 4), latent_dim=5, tcn_layers=3, kernel=5,
               tcn_channels=10)


def feature_matrix(frames=40, dims=16, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(rng.normal(-40, 10, (frames, dims)).astype(np.float32), 31.25)


class TestBuild:
    def test_dense_mirror_output_shape(self):
        spec = ModelSpec(kind="dense_ae", n_mels=128, context_frames=5,
                         hidden=(128, 128, 128, 128), bottleneck=8)
        model = build(spec)
        x = Tensor(np.zeros((3, 640), np.float32))
        assert model.forward(x).recon.shape == (3, 640)

    def test_same_seed_identical_parameters(self):
        spec = default_spec("cvae", n_mels=32, window_frames=16, seed=11)
        m1, m2 = build(spec), build(spec)
        for p1, p2 in zip(m1.params, m2.params):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_tcn_cvae_reconstruction_shape(self):
        spec = default_spec("tcn_cvae", n_mels=64, window_frames=32)
        model = build(spec)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 64, 32)).astype(np.float32))
        out = model.forward(x)
        assert out.recon.shape == (2, 64, 32)
        assert out.latent is not None

    @pytest.mark.parametrize("kind", ["dense_ae", "cae", "cvae", "tcn_cvae"])
    def test_roundtrip_shape_invariant(self, kind):
        spec = default_spec(kind, n_mels=16, window_frames=16, context_frames=3,
                            conv_channels=(8, 16), hidden=(32,), tcn_layers=3,
                            tcn_channels=8)
        model = build(spec)
        shape = (4, 48) if kind == "dense_ae" else (4, 16, 16)
        x = Tensor(np.random.default_rng(1).normal(size=shape).astype(np.float32))
        assert model.forward(x).recon.shape == shape

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(SpecError):
            ModelSpec(kind="cae", n_mels=16, window_frames=12,
                      conv_channels=(8, 16, 32))  # 12 not divisible by 8

    @pytest.mark.parametrize("kind", ["cae", "cvae"])
    def test_even_kernel_of_a_centered_conv_model_rejected(self, kind):
        with pytest.raises(SpecError, match="kernel=4 must be odd"):
            default_spec(kind, n_mels=16, kernel=4)
        assert default_spec("tcn_cvae", n_mels=16, kernel=4).kernel == 4  # causal taps

    @pytest.mark.parametrize("kind,field,value", [
        ("cae", "window_frames", 0),  # divisible by every stride
        ("tcn_cvae", "tcn_channels", 0), ("tcn_cvae", "latent_dim", -1),
        ("dense_ae", "hidden", (8, 0)), ("cvae", "conv_channels", (0,)),
        ("dense_ae", "window_hop", 0),
    ])
    def test_size_below_one_rejected(self, kind, field, value):
        with pytest.raises(SpecError, match=f"{field} must be >= 1"):
            default_spec(kind, n_mels=16, **{field: value})

    @pytest.mark.parametrize("kind,field,value", [("cae", "window_frames", 2 ** 60),
                                                  ("tcn_cvae", "tcn_channels", 2 ** 62)])
    def test_size_numpy_cannot_make_is_spec_error(self, kind, field, value):
        # was numpy's ValueError from the He init
        with pytest.raises(SpecError, match=r"no array of shape \(\d{19,}, \d+"):
            build(default_spec(kind, n_mels=16, **{field: value}))

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError):
            ModelSpec(kind="transformer")

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("field", sorted(CHANGED))
    def test_a_kind_reads_exactly_its_fields(self, kind, field):
        # cae/cvae built k=3 convolutions whatever their kernel said
        def layout(**change):
            model = build(ModelSpec(kind=kind, **{**SPEC_FIELDS, **change}))
            return [p.shape for p in model.params], model.input_starts(200).tolist()
        assert (layout(**{field: CHANGED[field]}) != layout()) == (field in READS[kind])

    def test_the_field_table_covers_every_field(self):
        assert set(SPEC_FIELDS) == set(CHANGED) == {f.name for f in fields(ModelSpec)} - {
            "kind", "seed"}

    @pytest.mark.parametrize("field,value", [("n_mels", 1.5), ("n_mels", True),
                                             ("hidden", (128.0,)), ("window_hop", "16")])
    def test_field_of_wrong_type_rejected(self, field, value):
        with pytest.raises(SpecError, match=field):
            ModelSpec(kind="dense_ae", **{field: value})


class TestReparameterize:
    def test_zero_noise_returns_mu(self):
        ld = LatentDistribution(mu=Tensor(np.array([1.0, -2.0])),
                                log_var=Tensor(np.array([0.3, 0.3])))
        z = reparameterize(ld, np.zeros(2))
        np.testing.assert_array_equal(z.data, [1.0, -2.0])

    def test_standard_posterior_passes_noise_through(self):
        noise = np.array([0.7, -1.3])
        ld = LatentDistribution(mu=Tensor(np.zeros(2)), log_var=Tensor(np.zeros(2)))
        np.testing.assert_allclose(reparameterize(ld, noise).data, noise)

    def test_monte_carlo_mean_matches_mu(self):
        # sample mean over N draws is within 3 sigma / sqrt(N) of mu
        rng = np.random.default_rng(5)
        mu = np.array([0.5, -1.0])
        log_var = np.array([0.2, -0.4])
        n = 100_000
        draws = np.stack([
            reparameterize(
                LatentDistribution(Tensor(mu), Tensor(log_var)),
                rng.standard_normal(2),
            ).data
            for _ in range(1000)
        ])
        # vectorized equivalent for the remaining draws
        sigma = np.exp(0.5 * log_var)
        draws_vec = mu + sigma * rng.standard_normal((n - 1000, 2))
        all_draws = np.concatenate([draws, draws_vec])
        bound = 3 * sigma / np.sqrt(n)
        assert np.all(np.abs(all_draws.mean(axis=0) - mu) < bound)

    def test_differentiable_wrt_mu_and_log_var(self):
        rng = np.random.default_rng(9)
        mud = rng.normal(size=4)
        lvd = rng.normal(size=4)
        noise = rng.standard_normal(4)
        mu, lv = Tensor(mud, requires_grad=True), Tensor(lvd, requires_grad=True)

        def loss():
            z = mud + np.exp(0.5 * lvd) * noise
            return float((z ** 2).sum())

        z = reparameterize(LatentDistribution(mu, lv), noise)
        backward((z * z).sum())
        assert_grads_close([mu.grad, lv.grad], finite_diff_grad(loss, [mud, lvd]))


class TestVaeLoss:
    def test_perfect_reconstruction_standard_prior_is_zero(self):
        x = Tensor(np.array([1.0, 2.0]))
        ld = LatentDistribution(Tensor(np.zeros(3)), Tensor(np.zeros(3)))
        result = vae_loss(x, x, ld)
        assert result.total.data == 0.0

    def test_unit_mean_kl_half(self):
        x = Tensor(np.array([3.0]))
        ld = LatentDistribution(Tensor(np.array([1.0])), Tensor(np.array([0.0])))
        result = vae_loss(x, x, ld)
        assert result.kl.data == pytest.approx(0.5)
        assert result.total.data == pytest.approx(0.5)

    def test_reconstruction_term_hand_case(self):
        x = Tensor(np.array([0.0]))
        x_hat = Tensor(np.array([2.0]))
        ld = LatentDistribution(Tensor(np.zeros(1)), Tensor(np.zeros(1)))
        result = vae_loss(x, x_hat, ld)
        assert result.recon.data == pytest.approx(2.0)
        assert result.total.data == pytest.approx(2.0)

    def test_kl_nonnegative_and_zero_only_at_standard(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mu = rng.normal(size=5)
            lv = rng.normal(size=5)
            ld = LatentDistribution(Tensor(mu), Tensor(lv))
            x = Tensor(np.zeros(2))
            kl = float(vae_loss(x, x, ld).kl.data)
            assert kl >= 0.0
            if np.any(mu != 0) or np.any(lv != 0):
                assert kl > 0.0

    def test_kl_matches_monte_carlo(self):
        # KL(q || p) = E_q[log q(z) - log p(z)], estimated by sampling
        rng = np.random.default_rng(17)
        mu = np.array([0.4, -0.8, 0.1])
        lv = np.array([0.3, -0.5, 0.0])
        sigma = np.exp(0.5 * lv)
        z = mu + sigma * rng.standard_normal((100_000, 3))
        log_q = -0.5 * (((z - mu) / sigma) ** 2 + np.log(2 * np.pi) + lv).sum(axis=1)
        log_p = -0.5 * (z ** 2 + np.log(2 * np.pi)).sum(axis=1)
        mc = float(np.mean(log_q - log_p))
        ld = LatentDistribution(Tensor(mu), Tensor(lv))
        closed = float(vae_loss(Tensor(np.zeros(1)), Tensor(np.zeros(1)), ld).kl.data)
        assert closed == pytest.approx(mc, rel=0.02)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            vae_loss(Tensor(np.zeros(2)), Tensor(np.zeros(3)), None)

    def test_batch_mean_semantics(self):
        x = Tensor(np.array([[0.0], [0.0]]))
        x_hat = Tensor(np.array([[2.0], [4.0]]))
        result = vae_loss(x, x_hat, None)
        assert result.recon.data == pytest.approx((2.0 + 8.0) / 2)


def reparameterize_reference(ld, noise):
    """The composed graph of the reparameterization, kept as the bit-level oracle."""
    sigma = (ld.log_var * 0.5).exp()
    return ld.mu + sigma * Tensor(np.asarray(noise, dtype=ld.mu.dtype.type))


def vae_loss_reference(x, x_hat, ld):
    """The VAE objective composed of elementwise ops, kept as the bit-level oracle."""
    batch = x.shape[0] if x.data.ndim > 1 else 1
    d = x - x_hat
    recon = (d * d).sum() * (0.5 / batch)
    if ld is None:
        kl = Tensor(np.asarray(0.0, dtype=x.dtype))
    else:
        inner = (ld.log_var + 1.0) - ld.mu * ld.mu - ld.log_var.exp()
        kl = inner.sum() * (-0.5 / batch)
    return VaeLoss(recon=recon, kl=kl, total=recon + kl)


def loss_bytes(loss):
    return [t.data.tobytes() for t in loss]


def grad_bytes(tensors):
    return [None if t.grad is None else t.grad.tobytes() for t in tensors]


class TestFusedLossMatchesComposedGraph:
    """``vae_loss`` and ``reparameterize`` are single tape nodes; their values
    and gradients equal the composed graph's byte for byte."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_five_adam_steps_byte_identical(self, kind, monkeypatch):
        spec = default_spec(kind, n_mels=16, window_frames=16, seed=3)
        batch = np.random.default_rng(2).standard_normal(
            (12, 80) if kind == "dense_ae" else (12, 16, 16)).astype(np.float32)

        def run(loss_fn, reparam_fn):
            model = build(spec)
            state, rng, trace = init_adam(model.params), np.random.default_rng(5), []
            with monkeypatch.context() as m:
                m.setattr(aad.models, "reparameterize", reparam_fn)
                for _ in range(5):
                    x = Tensor(batch)
                    out = model.forward(x, rng=rng)
                    loss = loss_fn(x, out.recon, out.latent)
                    backward(loss.total)
                    trace += [*loss_bytes(loss), *grad_bytes(model.params)]
                    adam_step(model.params, state)
                    zero_grads(model.params)
                    trace += [p.data.tobytes() for p in model.params]
            return trace

        fused = run(vae_loss, reparameterize)
        assert fused == run(vae_loss_reference, reparameterize_reference)

    @pytest.mark.parametrize("case", ["latent", "ld=None", "1-D", "x is x_hat",
                                      "x requires grad"])
    def test_cases_byte_identical(self, case):
        def run(loss_fn, reparam_fn):
            rng = np.random.default_rng(4)
            shape = (6,) if case == "1-D" else (3, 4)
            xd, mud, lvd = (rng.normal(size=shape).astype(np.float32) for _ in range(3))
            x = Tensor(xd, requires_grad=case in ("x is x_hat", "x requires grad"))
            ld = LatentDistribution(Tensor(mud, requires_grad=True),
                                    Tensor(lvd, requires_grad=True))
            x_hat = x if case == "x is x_hat" else reparam_fn(ld, rng.standard_normal(shape))
            loss = loss_fn(x, x_hat, None if case == "ld=None" else ld)
            backward(loss.total)
            return loss_bytes(loss) + grad_bytes([x, ld.mu, ld.log_var])

        assert run(vae_loss, reparameterize) == run(vae_loss_reference,
                                                     reparameterize_reference)

    def test_loss_keeps_four_tape_nodes(self):
        """The objective puts recon, kl, their sum and the sample z on the tape,
        where the composed graph puts 16 nodes."""
        rng = np.random.default_rng(6)
        x, mu, lv = (Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(3))
        ld = LatentDistribution(mu, lv)
        noise = rng.standard_normal((3, 4))

        def tape_ops(total):
            tape, stack = {}, [total]
            while stack:
                node = stack.pop()
                if node._parents and id(node) not in tape:
                    tape[id(node)] = node
                    stack.extend(node._parents)
            return sorted(n.op for n in tape.values())

        assert tape_ops(vae_loss(x, reparameterize(ld, noise), ld).total) == [
            "add", "kl", "recon", "reparameterize"]
        assert len(tape_ops(vae_loss_reference(
            x, reparameterize_reference(ld, noise), ld).total)) == 16

    def test_latent_shapes_that_differ_are_rejected(self):
        with pytest.raises(ShapeError, match="log_var shape"):
            LatentDistribution(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestReceptiveField:
    def test_l3_k2(self):
        rf = receptive_field(3, 2)
        assert rf.estimate == 8
        assert rf.exact == 8
        assert empirical_receptive_field(3, 2) == 8

    def test_l4_k3(self):
        rf = receptive_field(4, 3)
        assert rf.estimate == 32
        assert rf.exact == 31
        assert empirical_receptive_field(4, 3) == 31

    def test_pointwise_kernel(self):
        rf = receptive_field(2, 1)
        assert rf.estimate == 0
        assert rf.exact == 1
        assert empirical_receptive_field(2, 1) == 1


class TestParamCount:
    def test_single_dense_layer(self):
        # 3 -> 2 with bias: 3*2 + 2 = 8
        spec = ModelSpec(kind="dense_ae", n_mels=3, context_frames=1,
                         hidden=(), bottleneck=2)
        model = build(spec)
        w0, b0 = model.layers[0]
        assert w0.data.size + b0.data.size == 8

    def test_mirror_ae_4_2_4(self):
        spec = ModelSpec(kind="dense_ae", n_mels=4, context_frames=1,
                         hidden=(), bottleneck=2)
        assert build(spec).param_count() == 22  # (4*2+2) + (2*4+4)

    def test_conv_layer_count(self):
        # 2 -> 3 channels, k=5: 2*3*5 + 3 = 33
        w = np.zeros((3, 2, 5))
        b = np.zeros(3)
        assert w.size + b.size == 33
        spec = default_spec("tcn_cvae", n_mels=2, tcn_channels=3, kernel=5,
                            tcn_layers=1, window_frames=8, window_hop=8)
        model = build(spec)
        first = model.params[0].data.size + model.params[1].data.size
        assert first == 33


class TestCausality:
    def test_tcn_latent_ignores_future(self):
        spec = default_spec("tcn_cvae", n_mels=8, tcn_layers=4, window_frames=40,
                            tcn_channels=8)
        model = build(spec)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 8, 40)).astype(np.float32)
        base = model.forward(Tensor(x))
        base_mu = base.latent.mu.data.copy()
        for t in (10, 20, 30):
            bumped = x.copy()
            bumped[:, :, t + 1:] += 5.0
            out = model.forward(Tensor(bumped))
            np.testing.assert_array_equal(out.latent.mu.data[:, :, :t + 1],
                                          base_mu[:, :, :t + 1])


class TestModelFeaturePlumbing:
    def test_dense_inputs_are_stacked_rows(self):
        fm = feature_matrix(frames=20, dims=8)
        spec = ModelSpec(kind="dense_ae", n_mels=8, context_frames=3,
                         hidden=(16,), bottleneck=4)
        model = build(spec)
        samples = model.inputs_from_features(fm)
        assert samples.shape == (18, 24)

    def test_window_slicing_covers_tail(self):
        fm = feature_matrix(frames=45, dims=8)
        spec = default_spec("cae", n_mels=8, window_frames=16, window_hop=16,
                            conv_channels=(8, 16))
        model = build(spec)
        wins = model.inputs_from_features(fm)
        # starts 0, 16, and the tail window at 29
        assert wins.shape == (3, 8, 16)
        np.testing.assert_array_equal(wins[-1], fm.data[29:45].T)

    def test_reconstruct_features_shapes_agree(self):
        fm = feature_matrix(frames=40, dims=8)
        for kind in ("dense_ae", "cvae"):
            spec = default_spec(kind, n_mels=8, context_frames=3, hidden=(16,),
                                bottleneck=4, window_frames=16,
                                conv_channels=(8, 16), latent_dim=6)
            model = build(spec)
            xa, xr = model.reconstruct_features(fm)
            assert xa.shape == xr.shape

    def test_encode_returns_clip_vector(self):
        fm = feature_matrix(frames=40, dims=8)
        spec = default_spec("tcn_cvae", n_mels=8, tcn_layers=3, tcn_channels=8,
                            latent_dim=5, window_frames=16)
        model = build(spec)
        code = model.encode(fm)
        assert code.shape == (5,)


def small_spec(kind):
    return default_spec(kind, n_mels=8, window_frames=16, conv_channels=(8, 16),
                        latent_dim=6, context_frames=3, hidden=(16,), bottleneck=4,
                        tcn_layers=3, tcn_channels=8)


class TestForwardSampling:
    """``Model.forward`` samples the latent only for the variational kinds,
    and only when it is given an rng; ``encode`` reads the posterior mean."""

    @staticmethod
    def batch(model, fm):
        return Tensor(model._norm(model.inputs_from_features(fm)))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_draws_one_standard_normal_of_mu_shape_when_variational(self, kind):
        model = build(small_spec(kind))
        rng, expected = np.random.default_rng(9), np.random.default_rng(9)
        out = model.forward(self.batch(model, feature_matrix(dims=8)), rng=rng)
        if model.spec.variational:
            expected.standard_normal(out.latent.mu.shape)
        else:
            assert out.latent is None
        assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_without_rng_decodes_the_mean(self, kind):
        model = build(small_spec(kind))
        x = self.batch(model, feature_matrix(dims=8))
        sampled = model.forward(x, rng=np.random.default_rng(9)).recon.data
        mean = model.forward(x).recon.data
        if model.spec.variational:
            assert not np.array_equal(sampled, mean)
        else:
            np.testing.assert_array_equal(sampled, mean)

    @pytest.mark.parametrize("kind", ["cvae", "tcn_cvae"])
    def test_encode_is_the_mean_of_the_posterior_means(self, kind):
        model = build(small_spec(kind))
        fm = feature_matrix(dims=8)
        mu = model.forward(self.batch(model, fm)).latent.mu.data
        axes = (0, 2) if mu.ndim == 3 else 0  # tcn_cvae: one mu per window step
        np.testing.assert_allclose(model.encode(fm), mu.mean(axis=axes), rtol=1e-5)


class TestCheckpoint:
    def _small_model(self, kind="cvae"):
        spec = default_spec(kind, n_mels=8, window_frames=16,
                            conv_channels=(8, 16), latent_dim=6,
                            context_frames=3, hidden=(16,), bottleneck=4)
        return with_contract(build(spec))

    def test_roundtrip_identical_forward(self, tmp_path):
        model = self._small_model()
        model.set_normalization(np.full(8, -40.0), np.full(8, 9.0))
        path = tmp_path / "m.aadm"
        checkpoint_save(model, path)
        back = checkpoint_load(path)
        for p1, p2 in zip(model.params, back.params):
            np.testing.assert_array_equal(p1.data, p2.data)
        np.testing.assert_array_equal(model.feature_mean, back.feature_mean)
        assert (back.features, back.sample_rate) == (model.features, 16000)
        fm = feature_matrix(frames=30, dims=8)
        xa1, xr1 = model.reconstruct_features(fm)
        xa2, xr2 = back.reconstruct_features(fm)
        np.testing.assert_array_equal(xr1, xr2)

    def test_a_save_leaves_an_open_reader_the_old_file_whole(self, tmp_path):
        # a save used to truncate the file in place, under any reader of it
        model = self._small_model()
        path = tmp_path / "m.aadm"
        checkpoint_save(model, path)
        first = path.read_bytes()
        with open(path, "rb") as reader:
            for p in model.params:
                p.data += 1.0
            checkpoint_save(model, path)
            held = reader.read()
        assert held == first
        (tmp_path / "held.aadm").write_bytes(held)
        checkpoint_load(tmp_path / "held.aadm")
        back = checkpoint_load(path)
        for p1, p2 in zip(model.params, back.params):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_truncated_file_rejected(self, tmp_path):
        model = self._small_model()
        path = tmp_path / "m.aadm"
        checkpoint_save(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(FormatError):
            checkpoint_load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.aadm"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError):
            checkpoint_load(path)

    def test_save_needs_a_feature_contract(self, tmp_path):
        model = build(default_spec("dense_ae", n_mels=8, context_frames=3))
        with pytest.raises(ContractError, match="feature contract"):
            checkpoint_save(model, tmp_path / "m.aadm")
        assert not (tmp_path / "m.aadm").exists()

    @pytest.mark.parametrize("key,held", [("n_mels", "(5, 3)"), ("context_frames", "(8, 5)")])
    def test_features_unlike_the_spec_are_format_error(self, tmp_path, key, held):
        path = tmp_path / "m.aadm"
        checkpoint_save(self._small_model("dense_ae"), path)  # 8 mels, 3 context frames
        reseal(path, lambda header: header["features"].update({key: 5}))
        with pytest.raises(FormatError) as info:
            checkpoint_load(path)
        assert str(info.value).endswith(
            f"features give (n_mels, context_frames) {held}, the spec (8, 3)")

    def test_save_of_features_unlike_the_spec_leaves_the_old_file(self, tmp_path):
        # the save wrote a file that no load accepted: default context_frames
        # 11 against the spec's 5
        path = tmp_path / "m.aadm"
        checkpoint_save(self._small_model("dense_ae"), path)
        old = path.read_bytes()
        model = build(default_spec("dense_ae", n_mels=8, hidden=(16,), bottleneck=4))
        model.features, model.sample_rate = FeatureConfig(n_mels=8), 16000
        with pytest.raises(ContractError, match=r"\(8, 11\), the spec \(8, 5\)"):
            checkpoint_save(model, path)
        assert path.read_bytes() == old

    @pytest.mark.parametrize("values", [{}, {"fmin": 0}])
    def test_file_with_the_retired_feature_fields_loads(self, tmp_path, values):
        model = self._small_model("tcn_cvae")
        model.set_normalization(np.full(8, -40.0), np.full(8, 9.0))
        path = tmp_path / "m.aadm"
        checkpoint_save(model, path)
        write_with_retired_features(path, **values)
        assert b'"slaney_norm": false' in path.read_bytes()
        back = checkpoint_load(path)
        assert (back.features, back.sample_rate) == (model.features, model.sample_rate)
        assert [p.data.tobytes() for p in back.params] == [p.data.tobytes()
                                                            for p in model.params]
        assert (back.feature_mean.tobytes(), back.feature_std.tobytes()) == \
            (model.feature_mean.tobytes(), model.feature_std.tobytes())

    @pytest.mark.parametrize("key,value", [("slaney_norm", True), ("fmax", 8000.0),
                                           ("log_floor", 1e-3), ("mel_break_hz", "700"),
                                           ("slaney_norm", 0)])
    def test_retired_feature_field_at_another_value_is_format_error(self, tmp_path, key,
                                                                    value):
        path = tmp_path / "m.aadm"
        checkpoint_save(self._small_model(), path)
        write_with_retired_features(path, **{key: value})
        with pytest.raises(FormatError, match=f"bad header: features.{key} is {value!r}"):
            checkpoint_load(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_file_whose_spec_holds_normalize_true_loads(self, tmp_path, version):
        # every file written while ModelSpec had the field holds it at true
        model = self._small_model("tcn_cvae")
        model.set_normalization(np.full(8, -40.0), np.full(8, 9.0))
        path = tmp_path / "m.aadm"
        checkpoint_save(model, path)
        reseal(path, lambda header: header["spec"].update(normalize=True))
        if version == 1:
            write_version_1(path)
        assert b'"normalize": true' in path.read_bytes()
        back = checkpoint_load(path)
        assert back.spec == model.spec
        assert [p.data.tobytes() for p in back.params] == [p.data.tobytes()
                                                            for p in model.params]
        assert (back.feature_mean.tobytes(), back.feature_std.tobytes()) == \
            (model.feature_mean.tobytes(), model.feature_std.tobytes())

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("value", [False, 1, "yes"])
    def test_spec_normalize_at_another_value_is_format_error(self, tmp_path, version, value):
        path = tmp_path / "m.aadm"
        checkpoint_save(self._small_model(), path)
        reseal(path, lambda header: header["spec"].update(normalize=value))
        if version == 1:
            write_version_1(path)
        with pytest.raises(FormatError, match=f"bad header: spec.normalize is {value!r}"):
            checkpoint_load(path)

    def test_saved_header_holds_no_retired_spec_field(self, tmp_path):
        path = tmp_path / "m.aadm"
        checkpoint_save(self._small_model(), path)
        raw = path.read_bytes()
        hlen, = struct.unpack_from("<I", raw, 8)
        assert "normalize" not in json.loads(raw[12:12 + hlen])["spec"]

    @pytest.mark.parametrize("where", ["param", "mean", "std"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, where, value):
        model = self._small_model()
        model.set_normalization(np.full(8, -40.0), np.full(8, 9.0))
        target = {"param": model.params[3].data, "mean": model.feature_mean,
                  "std": model.feature_std}[where]
        target.flat[1] = value
        path = tmp_path / "m.aadm"
        checkpoint_save(model, path)
        with pytest.raises(FormatError, match="non-finite"):
            checkpoint_load(path)

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        model = self._small_model("tcn_cvae")
        path = tmp_path / "m.aadm"
        checkpoint_save(model, path)

        def no_rng(*_):
            raise AssertionError("checkpoint_load drew a random init")
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        back = checkpoint_load(path)
        for p1, p2 in zip(model.params, back.params):
            np.testing.assert_array_equal(p1.data, p2.data)

    # one flipped byte each: a float size ("128" -> "1.8"), an unknown kind
    @pytest.mark.parametrize("old,new,key", [(b"[128]", b"[1.8]", "hidden"),
                                             (b'"dense_ae"', b'"Dense_ae"', "kind")])
    def test_header_spec_it_rejects_is_format_error(self, tmp_path, old, new, key):
        model = with_contract(build(default_spec("dense_ae", n_mels=8, context_frames=3,
                                                 hidden=(128,), bottleneck=4)))
        path = tmp_path / "m.aadm"
        checkpoint_save(model, path)
        body = path.read_bytes()[:-4].replace(old, new, 1)
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))  # re-sealed
        with pytest.raises(FormatError, match=key):
            checkpoint_load(path)

    def test_header_sizes_numpy_cannot_make_are_format_error(self, tmp_path):
        # a re-sealed header whose spec and features both give 2**62 mel bands
        # was numpy's ValueError from the feature buffers
        path = tmp_path / "m.aadm"
        checkpoint_save(self._small_model(), path)
        reseal(path, lambda header: [header[part].update(n_mels=2 ** 62)
                                     for part in ("spec", "features")])
        with pytest.raises(FormatError, match=r"no array of shape \(%d,\)" % 2 ** 62):
            checkpoint_load(path)

    def test_file_written_as_version_1_loads_without_a_contract(self, tmp_path):
        model = self._small_model()
        path = tmp_path / "m.aadm"
        checkpoint_save(model, path)
        write_version_1(path)
        back = checkpoint_load(path)
        assert (back.features, back.sample_rate) == (None, None)
        for p1, p2 in zip(model.params, back.params):
            np.testing.assert_array_equal(p1.data, p2.data)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["dense_ae", "cvae", "tcn_cvae"]),
           cut=st.integers(0, 100_000), flip_at=st.integers(0, 100_000),
           flip=st.integers(1, 255), in_header=st.booleans(), truncate=st.booleans())
    def test_damaged_file_loads_or_raises_format_error(self, tmp_path_factory, kind, cut,
                                                       flip_at, flip, in_header, truncate):
        """Any truncation and any flipped byte, in the header or the payload, is a
        FormatError: the CRC32 trailer catches what the header checks would not."""
        # three-digit sizes, so a flipped byte can also make a float ("128" -> "1.8")
        model = with_contract(build(default_spec(
            kind, n_mels=8, window_frames=16, conv_channels=(8, 16), latent_dim=6,
            context_frames=3, hidden=(128,), bottleneck=4, tcn_layers=2, tcn_channels=8,
            window_hop=128)))
        path = tmp_path_factory.mktemp("aadm") / "m.aadm"
        checkpoint_save(model, path)
        raw = bytearray(path.read_bytes())
        header_end = 12 + struct.unpack_from("<I", raw, 8)[0]
        if truncate:
            raw = raw[:cut % len(raw)]
        else:
            raw[flip_at % (header_end if in_header else len(raw))] ^= flip
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            checkpoint_load(path)
