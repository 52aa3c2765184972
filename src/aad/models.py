"""Reconstruction model ladder for anomaly scoring.

Four variants share one interface: a dense autoencoder over stacked
context vectors, a convolutional autoencoder and its variational twin
over mel-frame windows, and a hybrid whose encoder is a stack of dilated
causal convolutions feeding per-step variational heads. Decoders are
non-causal; scoring always sees complete windows.

Models carry feature mean/std buffers (set during training) and do all
internal arithmetic in normalized space; ``reconstruct_features`` maps
back so anomaly scores live in feature space.

The variational kinds train on the reconstruction error plus the
closed-form Gaussian KL, sampled through the reparameterization trick.
``reparameterize`` and the two terms of ``vae_loss`` are each one tape
node; the sample keeps only its noise and the loss terms keep no array of
their own, since their backward passes recompute exp(log_var / 2),
x - x_hat and exp(log_var). They give the values and gradients of the same
objective composed of elementwise ``Tensor`` ops bit for bit.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, asdict, fields
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .annotations import conform, field_hints
from .errors import ConfigError, ContractError, FormatError, ShapeError, SpecError, TooShortError
from .features import LOG_FLOOR, MEL_BREAK_HZ, FeatureConfig, FeatureMatrix
from .tensor import Tensor, backward, conv1d_causal, dense, downsample, upsample

CHECKPOINT_MAGIC = b"AADM"
CHECKPOINT_VERSION = 2  # version 1 files, without features, sample_rate or CRC, still load

MODEL_KINDS = ("dense_ae", "cae", "cvae", "tcn_cvae")

_DTYPE = np.float32
_STATS_ROWS = 1024  # frames per float64 chunk of the normalization sums
# former FeatureConfig and ModelSpec fields, each fixed at the one value every
# earlier file holds; a header may still name them, at that value only
_RETIRED_FEATURES = {"fmin": 0.0, "fmax": None, "log_floor": LOG_FLOOR,
                     "mel_break_hz": MEL_BREAK_HZ, "slaney_norm": False}
_RETIRED_SPEC = {"normalize": True}


@dataclass
class ModelSpec:
    """Architecture configuration for one model of the ladder."""

    kind: str
    n_mels: int = 128
    context_frames: int = 5        # dense_ae input = n_mels * context_frames
    window_frames: int = 32        # conv models consume (n_mels, T) windows
    window_hop: int = 16
    hidden: tuple[int, ...] = (128, 128, 128, 128)
    bottleneck: int = 8            # dense_ae latent width
    conv_channels: tuple[int, ...] = (32, 64, 128)
    latent_dim: int = 40           # cae/cvae bottleneck; tcn per-step channels
    tcn_layers: int = 6
    kernel: int = 3
    tcn_channels: int = 64
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            try:
                setattr(self, f.name, conform(getattr(self, f.name),
                                              field_hints(ModelSpec)[f.name]))
            except TypeError as exc:
                raise SpecError(f"{f.name}: {exc}") from None
        if self.kind not in MODEL_KINDS:
            raise SpecError(f"unknown model kind {self.kind!r}")
        for f in fields(self):  # every size, and each layer's width, is >= 1
            if f.name in ("kind", "seed"):
                continue
            value = getattr(self, f.name)
            if min(value if isinstance(value, tuple) else (value,), default=1) < 1:
                raise SpecError(f"{f.name} must be >= 1, got {value}")
        if self.kind in ("cae", "cvae"):
            if not self.conv_channels:
                raise SpecError("conv models need at least one channel stage")
            if self.kernel % 2 == 0:
                raise SpecError(f"kernel={self.kernel} must be odd: {self.kind} "
                                "convolutions are centered")
            down = 2 ** len(self.conv_channels)
            if self.window_frames % down != 0:
                raise SpecError(
                    f"window_frames={self.window_frames} must be divisible by "
                    f"{down} for {len(self.conv_channels)} stride-2 stages"
                )

    @property
    def dilations(self) -> tuple:
        return tuple(2 ** i for i in range(self.tcn_layers))

    @property
    def variational(self) -> bool:
        return self.kind in ("cvae", "tcn_cvae")


def default_spec(kind: str, n_mels: int = 128, seed: int = 0, **overrides) -> ModelSpec:
    """Spec with per-kind defaults at the given mel resolution."""
    base: dict = dict(kind=kind, n_mels=n_mels, seed=seed)
    if kind == "tcn_cvae":
        base.update(latent_dim=16)
    base.update(overrides)
    return ModelSpec(**base)


@dataclass
class LatentDistribution:
    """Diagonal-Gaussian posterior parameters (log_var is log sigma^2)."""

    mu: Tensor
    log_var: Tensor

    def __post_init__(self):
        if self.log_var.shape != self.mu.shape:
            raise ShapeError(f"log_var shape {self.log_var.shape} != mu shape {self.mu.shape}")


class ForwardResult(NamedTuple):
    recon: Tensor
    latent: LatentDistribution | None


def reparameterize(ld: LatentDistribution, noise: np.ndarray) -> Tensor:
    """z = mu + exp(log_var / 2) * noise, differentiable in mu and log_var.

    One tape node that keeps only the noise (in mu's dtype): the backward
    pass recomputes exp(log_var / 2). Values and gradients equal those of
    the composed graph ``mu + (log_var * 0.5).exp() * noise`` bit for bit.
    """
    mu, lv = ld.mu, ld.log_var
    if tuple(noise.shape) != mu.shape:
        raise ShapeError(f"noise shape {noise.shape} != mu shape {mu.shape}")
    noise = np.asarray(noise, dtype=mu.dtype.type)
    z = np.exp(lv.data * 0.5)
    z *= noise
    z += mu.data
    out = Tensor(z, requires_grad=mu.requires_grad or lv.requires_grad,
                 op="reparameterize", _parents=(mu, lv))
    if out.requires_grad:
        def _bw(g):
            if mu.requires_grad:
                mu.accumulate_grad(g)
            if lv.requires_grad:  # ((g * noise) * sigma) * 0.5, as the chain rule runs
                g *= noise
                g *= np.exp(lv.data * 0.5)
                g *= 0.5
                lv.accumulate_grad(g)
        out._backward = _bw
    return out


class VaeLoss(NamedTuple):
    recon: Tensor
    kl: Tensor
    total: Tensor


def vae_loss(x: Tensor, x_hat: Tensor, ld: LatentDistribution | None) -> VaeLoss:
    """Reconstruction MSE plus the diagonal-Gaussian KL regularizer.

    recon = 1/2 sum (x - x_hat)^2 and kl = -1/2 sum (1 + log_var - mu^2
    - sigma^2), each averaged over the batch (leading axis when 2-D+).
    With ld=None the KL term is zero (plain autoencoder loss).

    Each term is one tape node that keeps no array of its own: the
    backward passes recompute x - x_hat and exp(log_var). Values and
    gradients equal those of the graph composed of elementwise ops bit for
    bit, since each gradient term is formed by the same float operations
    and added to its input's gradient in the same order.
    """
    if x.shape != x_hat.shape:
        raise ShapeError(f"vae_loss: shapes {x.shape} and {x_hat.shape} differ")
    batch = x.shape[0] if x.data.ndim > 1 else 1
    recon = _recon_loss(x, x_hat, batch)
    if ld is None:
        kl = Tensor(np.asarray(0.0, dtype=x.dtype))
    else:
        kl = _kl_loss(ld, batch)
    return VaeLoss(recon=recon, kl=kl, total=recon + kl)


def _recon_loss(x: Tensor, x_hat: Tensor, batch: int) -> Tensor:
    """1/2 sum (x - x_hat)^2 / batch as one node."""
    diff = x.data - x_hat.data
    scale = np.asarray(0.5 / batch, dtype=diff.dtype)
    diff *= diff
    out = Tensor(np.asarray(diff.sum()) * scale,
                 requires_grad=x.requires_grad or x_hat.requires_grad,
                 op="recon", _parents=(x, x_hat))
    if out.requires_grad:
        def _bw(g):
            gd = x.data - x_hat.data
            gd *= g * scale
            gd *= 2
            if x.requires_grad:
                x.accumulate_grad(gd)
            if x_hat.requires_grad:
                np.negative(gd, out=gd)
                x_hat.accumulate_grad(gd)
        out._backward = _bw
    return out


def _kl_loss(ld: LatentDistribution, batch: int) -> Tensor:
    """-1/2 sum (1 + log_var - mu^2 - exp(log_var)) / batch as one node."""
    mu, lv = ld.mu, ld.log_var
    inner = lv.data + 1.0
    inner -= mu.data * mu.data
    inner -= np.exp(lv.data)
    scale = np.asarray(-0.5 / batch, dtype=inner.dtype)
    out = Tensor(np.asarray(inner.sum()) * scale,
                 requires_grad=mu.requires_grad or lv.requires_grad,
                 op="kl", _parents=(mu, lv))
    if out.requires_grad:
        def _bw(g):
            gi = g * scale  # the gradient of every element of the sum
            if lv.requires_grad:
                lv.accumulate_grad(gi)
            if mu.requires_grad:
                gm = -gi * mu.data
                mu.accumulate_grad(gm)  # mu * mu: once per factor
                mu.accumulate_grad(gm)
            if lv.requires_grad:
                lv.accumulate_grad(-gi * np.exp(lv.data))
        out._backward = _bw
    return out


class ReceptiveField(NamedTuple):
    estimate: int  # 2^l * (k - 1)
    exact: int     # 1 + (k - 1) * (2^l - 1) for dilations 1..2^(l-1)


def receptive_field(layers: int, kernel: int) -> ReceptiveField:
    """History coverage of a plain dilated causal stack, both formulas."""
    if layers < 1 or kernel < 1:
        raise SpecError("layers and kernel must be >= 1")
    return ReceptiveField(
        estimate=2 ** layers * (kernel - 1),
        exact=1 + (kernel - 1) * (2 ** layers - 1),
    )


def empirical_receptive_field(layers: int, kernel: int) -> int:
    """Measure the receptive field of a plain dilated stack by gradient mask.

    All-ones kernels, no nonlinearity: the count of input positions with
    nonzero gradient at the last output step is the exact receptive field.
    """
    rf = receptive_field(layers, kernel)
    t = rf.exact + 2 ** layers  # margin so the field fits in the input
    x = Tensor(np.zeros((1, 1, t)), requires_grad=True)
    h = x
    for d in (2 ** i for i in range(layers)):
        h = conv1d_causal(h, Tensor(np.ones((1, 1, kernel))), dilation=d)
    mask = np.zeros((1, 1, t))
    mask[0, 0, -1] = 1.0
    backward((h * Tensor(mask)).sum())
    nonzero = np.nonzero(x.grad[0, 0])[0]
    return int(t - nonzero[0])


def _he_uniform(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-limit, limit, size=shape).astype(_DTYPE)


@contextmanager
def _shape_named(shape: tuple) -> Iterator[None]:
    """Name the shape in a SpecError when numpy cannot make an array of it."""
    try:
        yield
    except ValueError as exc:  # "array is too big", "Maximum allowed dimension exceeded"
        raise SpecError(f"no array of shape {shape} can be made: {exc}") from None


class Model:
    """Shared machinery: parameter registry, normalization buffers and the
    forward pass; a rung of the ladder adds its ``_encode`` and ``_decode``.

    ``stored`` maps each parameter's shape to its array, called in registry
    order; without it, parameters get the He init seeded by ``spec.seed``.
    """

    def __init__(self, spec: ModelSpec, stored: Callable[[tuple], np.ndarray] | None = None):
        self.spec = spec
        self.features: FeatureConfig | None = None  # what it is trained on, set by its
        self.sample_rate: int | None = None  # trainer; a v1 checkpoint leaves both None
        self.params: list[Tensor] = []
        self._stored = stored
        self._rng = np.random.default_rng(spec.seed) if stored is None else None
        dims = spec.n_mels if spec.kind != "dense_ae" else spec.n_mels * spec.context_frames
        with _shape_named((dims,)):
            self.feature_mean = np.zeros(dims, dtype=_DTYPE)
            self.feature_std = np.ones(dims, dtype=_DTYPE)

    # -- parameter management --

    def _param(self, shape: tuple, fan_in: int, zero: bool = False) -> Tensor:
        if self._stored is not None:
            data = self._stored(shape)
        else:
            with _shape_named(shape):
                data = (np.zeros(shape, dtype=_DTYPE) if zero
                        else _he_uniform(self._rng, shape, fan_in))
        t = Tensor(data, requires_grad=True)
        self.params.append(t)
        return t

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params)

    def set_normalization(self, mean: np.ndarray, std: np.ndarray) -> None:
        self.feature_mean = np.asarray(mean, dtype=_DTYPE)
        self.feature_std = np.maximum(np.asarray(std, dtype=_DTYPE), 1e-3)

    def _norm(self, x: np.ndarray) -> np.ndarray:
        mean, std = self.feature_mean, self.feature_std
        if x.ndim == 3:  # (windows, mels, T); else (rows, dims)
            mean, std = mean[:, None], std[:, None]
        y = x - mean
        y /= std
        return y.astype(_DTYPE, copy=False)

    def _denorm(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 2:
            return x * self.feature_std + self.feature_mean
        return x * self.feature_std[None, :, None] + self.feature_mean[None, :, None]

    # -- feature plumbing --

    @property
    def input_frames(self) -> int:
        """Consecutive frames one model input covers."""
        if self.spec.kind == "dense_ae":
            return self.spec.context_frames
        return self.spec.window_frames

    def input_starts(self, frames: int) -> np.ndarray:
        """First frame of each model input of a clip of that many frames, in order.

        Context rows start at every frame; windows every ``window_hop``
        frames, plus one more that ends at the last frame.
        """
        span = self.input_frames
        if frames < span:
            name = "context_frames" if self.spec.kind == "dense_ae" else "window_frames"
            raise TooShortError(f"{frames} frames < {name} {span}")
        last = frames - span
        if self.spec.kind == "dense_ae":
            return np.arange(last + 1)
        starts = np.arange(0, last + 1, self.spec.window_hop)
        return starts if starts[-1] == last else np.append(starts, last)

    def check_dims(self, fm: FeatureMatrix) -> None:
        """Raise ShapeError unless the features have the model's mel bands."""
        if fm.dims != self.spec.n_mels:
            raise ShapeError(f"features have {fm.dims} mel bands, the model takes "
                             f"{self.spec.n_mels}")

    def input_view(self, frames: np.ndarray) -> np.ndarray:
        """Every model input of a (frames, mels) matrix, as one strided view.

        Input s starts at frame s: context rows are (context_frames * mels,)
        and frame-major, windows are (mels, window_frames). Indexing the
        view with input starts copies out only those inputs.
        """
        frames = np.ascontiguousarray(frames, dtype=_DTYPE)
        span, mels = self.input_frames, frames.shape[1]
        if self.spec.kind == "dense_ae":  # P consecutive rows are one run of memory
            return sliding_window_view(frames.reshape(-1), span * mels)[::mels]
        return sliding_window_view(frames, span, axis=0)

    def fit_normalization(self, frames: np.ndarray, starts: np.ndarray) -> None:
        """Set mean/std over the inputs ``input_view(frames)[starts]``.

        The moments are float64 sums over the frame matrix, in which each
        frame counts once for every input that holds it: at each context
        position for context rows, which keep one mean per position and
        mel band, and anywhere in the window for windows, which share one
        mean per mel band.
        """
        n, span = len(frames), self.input_frames
        groups = ([(i, i + 1) for i in range(span)] if self.spec.kind == "dense_ae"
                  else [(0, span)])
        # weights[g, f]: inputs holding frame f at a position of group g
        weights = np.stack([np.cumsum(np.bincount(starts + lo, minlength=n + 1)
                                      - np.bincount(starts + hi, minlength=n + 1))[:n]
                            for lo, hi in groups]).astype(np.float64)
        total = np.zeros((2, len(groups), frames.shape[1]))
        for lo in range(0, n, _STATS_ROWS):  # one float64 chunk held at a time
            x = frames[lo:lo + _STATS_ROWS].astype(np.float64)
            w = weights[:, lo:lo + _STATS_ROWS]
            total[0] += w @ x
            total[1] += w @ np.multiply(x, x, out=x)
            del x
        mean, mean_sq = total / weights.sum(axis=1)[:, None]
        std = np.sqrt(np.maximum(mean_sq - mean * mean, 0.0))
        self.set_normalization(mean.ravel(), std.ravel())

    def inputs_from_features(self, fm: FeatureMatrix) -> np.ndarray:
        """Raw-space model inputs of one clip."""
        self.check_dims(fm)
        starts = self.input_starts(fm.frames)  # before the view, which needs a whole input
        return self.input_view(fm.data)[starts]

    def _encode(self, x: Tensor) -> tuple[Tensor, Tensor | None]:
        """(mu or code, log_var or None) of a batch of normalized inputs."""
        raise NotImplementedError

    def _decode(self, z: Tensor) -> Tensor:
        """The inputs reconstructed from a batch of codes."""
        raise NotImplementedError

    def forward(self, x: Tensor, rng: np.random.Generator | None = None) -> ForwardResult:
        """Reconstruct a batch of normalized inputs. A variational kind decodes
        a sample drawn with ``rng`` when it is given (training), else its mean."""
        code, log_var = self._encode(x)
        if log_var is None:
            return ForwardResult(recon=self._decode(code), latent=None)
        ld = LatentDistribution(mu=code, log_var=log_var)
        z = code if rng is None else reparameterize(ld, rng.standard_normal(code.shape))
        return ForwardResult(recon=self._decode(z), latent=ld)

    def reconstruct_features(self, fm: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
        """(observed, reconstructed) frame vectors in feature space.

        Rows are context vectors (dense_ae) or window frames (conv kinds);
        variational models reconstruct from the posterior mean.
        """
        samples = self.inputs_from_features(fm)
        out = self.forward(Tensor(self._norm(samples))).recon.data
        xr = self._denorm(out)
        if samples.ndim == 3:  # (windows, mels, T) -> frame rows
            xa = samples.transpose(0, 2, 1).reshape(-1, self.spec.n_mels)
            xr = xr.transpose(0, 2, 1).reshape(-1, self.spec.n_mels)
            return xa, xr
        return samples, xr

    def encode(self, fm: FeatureMatrix) -> np.ndarray:
        """One latent vector per clip (posterior mean for variational kinds)."""
        samples = self.inputs_from_features(fm)
        codes = self._encode(Tensor(self._norm(samples)))[0].data
        if codes.ndim == 3:  # (windows, latent, T): average over time
            codes = codes.mean(axis=2)
        return codes.mean(axis=0)


def _dense_stack(h: Tensor, layers: list[tuple[Tensor, Tensor]]) -> Tensor:
    """Dense layers, each but the last followed by a ReLU."""
    for i, (w, b) in enumerate(layers):
        h = dense(h, w, b, relu=i != len(layers) - 1)
    return h


class DenseAutoencoder(Model):
    """Mirrored fully-connected autoencoder over stacked context vectors."""

    def __init__(self, spec: ModelSpec, stored=None):
        super().__init__(spec, stored)
        d = spec.n_mels * spec.context_frames
        widths = [d, *spec.hidden, spec.bottleneck, *reversed(spec.hidden), d]
        self.layers = []
        for a, b in zip(widths[:-1], widths[1:]):
            w = self._param((a, b), fan_in=a)
            bias = self._param((b,), fan_in=a, zero=True)
            self.layers.append((w, bias))
        self._code_layers = len(spec.hidden) + 1  # the last of them outputs the code

    def _encode(self, x):
        return _dense_stack(x, self.layers[:self._code_layers]), None

    def _decode(self, z):
        return _dense_stack(z, self.layers[self._code_layers:])


class ConvAutoencoder(Model):
    """Convolutional AE over (mels, T) windows; optional variational heads.

    Encoder stages are centered convolutions of ``spec.kernel`` taps with a
    stride-2 analog (keep every other frame); the decoder mirrors with
    repeat-upsampling.
    """

    def __init__(self, spec: ModelSpec, stored=None):
        super().__init__(spec, stored)
        chans = [spec.n_mels, *spec.conv_channels]
        k = spec.kernel
        self.enc = []
        for cin, cout in zip(chans[:-1], chans[1:]):
            w = self._param((cout, cin, k), fan_in=cin * k)
            b = self._param((cout,), fan_in=cin * k, zero=True)
            self.enc.append((w, b))
        self.t_inner = spec.window_frames // 2 ** len(spec.conv_channels)
        flat = spec.conv_channels[-1] * self.t_inner
        self.w_mu = self._param((flat, spec.latent_dim), fan_in=flat)  # the code of cae
        self.b_mu = self._param((spec.latent_dim,), fan_in=flat, zero=True)
        if spec.variational:
            self.w_lv = self._param((flat, spec.latent_dim), fan_in=flat)
            self.b_lv = self._param((spec.latent_dim,), fan_in=flat, zero=True)
        self.w_up = self._param((spec.latent_dim, flat), fan_in=spec.latent_dim)
        self.b_up = self._param((flat,), fan_in=spec.latent_dim, zero=True)
        self.dec = []
        rev = [*reversed(spec.conv_channels), spec.n_mels]
        for cin, cout in zip(rev[:-1], rev[1:]):
            w = self._param((cout, cin, k), fan_in=cin * k)
            b = self._param((cout,), fan_in=cin * k, zero=True)
            self.dec.append((w, b))

    def _encode(self, x):
        h = x
        for w, b in self.enc:
            h = conv1d_causal(h, w, bias=b, causal=False, relu=True)
            h = downsample(h, 2)
        flat = h.reshape((h.shape[0], -1))
        mu = dense(flat, self.w_mu, self.b_mu)
        return mu, (dense(flat, self.w_lv, self.b_lv) if self.spec.variational else None)

    def _decode(self, z: Tensor) -> Tensor:
        h = dense(z, self.w_up, self.b_up, relu=True)
        h = h.reshape((z.shape[0], self.spec.conv_channels[-1], self.t_inner))
        last = len(self.dec) - 1
        for i, (w, b) in enumerate(self.dec):
            h = upsample(h, 2)
            h = conv1d_causal(h, w, bias=b, causal=False, relu=i != last)
        return h


class TcnVae(Model):
    """Dilated-causal-conv encoder with per-step variational heads.

    The encoder never reads the future; the decoder reconstructs each
    complete window with centered convolutions.
    """

    def __init__(self, spec: ModelSpec, stored=None):
        super().__init__(spec, stored)
        k, c = spec.kernel, spec.tcn_channels
        self.blocks = []
        cin = spec.n_mels
        for d in spec.dilations:
            w = self._param((c, cin, k), fan_in=cin * k)
            b = self._param((c,), fan_in=cin * k, zero=True)
            self.blocks.append((w, b, d))
            cin = c
        lat = spec.latent_dim
        self.w_mu = self._param((lat, c, 1), fan_in=c)
        self.b_mu = self._param((lat,), fan_in=c, zero=True)
        self.w_lv = self._param((lat, c, 1), fan_in=c)
        self.b_lv = self._param((lat,), fan_in=c, zero=True)
        self.w_d0 = self._param((c, lat, 1), fan_in=lat)
        self.b_d0 = self._param((c,), fan_in=lat, zero=True)
        self.w_d1 = self._param((c, c, 3), fan_in=c * 3)
        self.b_d1 = self._param((c,), fan_in=c * 3, zero=True)
        self.w_d2 = self._param((spec.n_mels, c, 1), fan_in=c)
        self.b_d2 = self._param((spec.n_mels,), fan_in=c, zero=True)

    def _encode(self, x):
        h = x
        for w, b, d in self.blocks:
            h = conv1d_causal(h, w, bias=b, dilation=d, relu=True)
        return (conv1d_causal(h, self.w_mu, bias=self.b_mu),
                conv1d_causal(h, self.w_lv, bias=self.b_lv))

    def _decode(self, z: Tensor) -> Tensor:
        h = conv1d_causal(z, self.w_d0, bias=self.b_d0, relu=True)
        h = conv1d_causal(h, self.w_d1, bias=self.b_d1, causal=False, relu=True)
        return conv1d_causal(h, self.w_d2, bias=self.b_d2)


_CLASSES = {"dense_ae": DenseAutoencoder, "cae": ConvAutoencoder, "cvae": ConvAutoencoder,
            "tcn_cvae": TcnVae}


def build(spec: ModelSpec, stored: Callable[[tuple], np.ndarray] | None = None) -> Model:
    """Construct a model: seeded parameters, or ``stored`` ones (see Model)."""
    return _CLASSES[spec.kind](spec, stored)


# -- checkpoint serialization --


def _read_tensor(buf: memoryview, off: int, path) -> tuple[np.ndarray, int]:
    try:
        ndim, = struct.unpack_from("<I", buf, off)
        if ndim > 8:
            raise ValueError
        shape = struct.unpack_from(f"<{ndim}I", buf, off + 4)
        off += 4 + 4 * ndim
        arr = np.frombuffer(buf, "<f4", math.prod(shape), off).reshape(shape).copy()
    except (struct.error, ValueError, OverflowError):  # a count past the end of the file
        raise FormatError(f"{path}: truncated or bad tensor at byte {off}") from None
    return arr, off + 4 * arr.size


def checkpoint_save(model: Model, path: str | Path) -> None:
    """Serialize the spec and feature contract, the parameter tensors (float32,
    exact), and a CRC32 of every byte before it.

    An existing file at ``path`` is removed and a new one written, never
    truncated and rewritten: a reader that opened the old file keeps reading
    it whole, and on ext4 the rewrite does not wait for the old file's data
    to reach the disk, as it does after a truncation. Features unlike the
    spec, which no load would accept, are a ContractError before any write."""
    if model.features is None or model.sample_rate is None:
        raise ContractError("the model has no feature contract (features, sample_rate) to save")
    _check_contract(model.features, model.spec)
    blob = json.dumps({"spec": asdict(model.spec), "features": asdict(model.features),
                       "sample_rate": model.sample_rate}, sort_keys=True).encode("utf-8")
    arrays = [*(p.data for p in model.params), model.feature_mean, model.feature_std]
    head = CHECKPOINT_MAGIC + struct.pack("<2I", CHECKPOINT_VERSION, len(blob)) + blob
    crc = zlib.crc32(head)
    Path(path).unlink(missing_ok=True)
    with open(path, "wb") as fh:
        fh.write(head)
        for arr in arrays:
            for part in (struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape),
                         np.ascontiguousarray(arr, dtype="<f4").tobytes()):
                fh.write(part)
                crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


def _check_contract(features: FeatureConfig, spec: ModelSpec) -> None:
    """ContractError unless the features have the spec's n_mels and context_frames."""
    held, built = (features.n_mels, features.context_frames), (spec.n_mels, spec.context_frames)
    if held != built:
        raise ContractError(f"features give (n_mels, context_frames) {held}, the spec {built}")


def _drop_retired(header: dict, section: str, retired: dict) -> dict:
    """A header section without its retired keys, each of which it may hold at
    its fixed value only (ConfigError otherwise)."""
    held = {**header[section]}
    for key, fixed in retired.items():
        value = held.pop(key, fixed)
        try:
            same = conform(value, type(fixed)) == fixed
        except TypeError:
            same = False
        if not same:
            raise ConfigError(f"{section}.{key} is {value!r}; only {fixed!r} is supported")
    return held


def _contract(header: dict, spec: ModelSpec) -> tuple[FeatureConfig, int]:
    """The features and sample rate a version 2 header holds, checked against its spec."""
    held = _drop_retired(header, "features", _RETIRED_FEATURES)
    hints = field_hints(FeatureConfig)
    features = FeatureConfig(**{k: conform(v, hints[k]) for k, v in held.items()})
    rate = header["sample_rate"]
    if type(rate) is not int or rate < 1:
        raise TypeError(f"sample_rate must be an integer >= 1, got {rate!r}")
    _check_contract(features, spec)
    return features, rate


def checkpoint_load(path: str | Path) -> Model:
    """Rebuild a model from a checkpoint; bit-identical parameters.

    The model is built from the stored tensors, with no random init. A
    version 2 file also gives the model its ``features`` and ``sample_rate``;
    a version 1 file leaves them None. A CRC32 that does not match, a
    malformed file, features unlike the spec, a former feature or spec field
    at a value other than its fixed one, a shape unlike the spec's and a
    non-finite value are FormatError.
    """
    with open(path, "rb") as fh:
        buf = memoryview(fh.read())
    if len(buf) < 12 or buf[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a model checkpoint")
    version, hlen = struct.unpack_from("<2I", buf, 4)
    if version == 2:
        if len(buf) < 16 or zlib.crc32(buf[:-4]) != struct.unpack_from("<I", buf, len(buf) - 4)[0]:
            raise FormatError(f"{path}: CRC32 mismatch: the file is damaged")
        buf = buf[:-4]
    elif version != 1:
        raise FormatError(f"{path}: unsupported version {version}")
    if len(buf) < 12 + hlen:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(str(buf[12:12 + hlen], "utf-8"))
        spec = ModelSpec(**_drop_retired(header, "spec", _RETIRED_SPEC))
        features, rate = _contract(header, spec) if version == 2 else (None, None)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError, KeyError, TypeError,
            AttributeError, SpecError, ConfigError, ContractError) as exc:
        raise FormatError(f"{path}: bad header: {exc}") from exc
    off = 12 + hlen

    def stored(shape: tuple) -> np.ndarray:
        nonlocal off
        arr, off = _read_tensor(buf, off, path)
        if arr.shape != shape:
            raise FormatError(f"{path}: tensor shape {arr.shape} != {shape}")
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor of shape {shape} holds non-finite values")
        return arr

    try:
        model = build(spec, stored)
    except SpecError as exc:  # a size numpy cannot make an array of
        raise FormatError(f"{path}: {exc}") from None
    dims = model.feature_mean.shape
    model.feature_mean, model.feature_std = stored(dims), stored(dims)
    if off != len(buf):
        raise FormatError(f"{path}: trailing bytes after tensors")
    model.features, model.sample_rate = features, rate
    return model
