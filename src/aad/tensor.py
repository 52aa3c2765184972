"""Minimal dense-array reverse-mode autodiff with a causal 1-D convolution.

A Tensor wraps a numpy array plus a lazily allocated gradient buffer and a
closure that routes incoming gradients to its parents. backward() walks the
tape in reverse topological order. Ops preserve the dtype of their inputs,
so the same graph code runs in float32 for training and float64 for
finite-difference oracles.

Elementwise binary ops accept tensors of identical shape or python
scalars; there is deliberately no general broadcasting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError


class Tensor:
    """N-dimensional value participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 _parents: tuple = (), _backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    # -- elementwise arithmetic --

    def __add__(self, other):
        return _binary(self, other, "add",
                       lambda a, b: a + b,
                       lambda g, a, b: (g, g))

    def __sub__(self, other):
        return _binary(self, other, "sub",
                       lambda a, b: a - b,
                       lambda g, a, b: (g, -g))

    def __mul__(self, other):
        return _binary(self, other, "mul",
                       lambda a, b: a * b,
                       lambda g, a, b: (g * b, g * a))

    def __neg__(self):
        return self * -1.0

    __radd__ = __add__
    __rmul__ = __mul__

    # -- activations and shape ops --

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0)
        return _unary(self, "relu", out_data, lambda g: g * (self.data > 0))

    def sigmoid(self) -> "Tensor":
        s = 1.0 / (1.0 + np.exp(-self.data))
        return _unary(self, "sigmoid", s, lambda g: g * s * (1.0 - s))

    def tanh(self) -> "Tensor":
        t = np.tanh(self.data)
        return _unary(self, "tanh", t, lambda g: g * (1.0 - t * t))

    def exp(self) -> "Tensor":
        e = np.exp(self.data)
        return _unary(self, "exp", e, lambda g: g * e)

    def sum(self) -> "Tensor":
        return _unary(self, "sum", np.asarray(self.data.sum()),
                      lambda g: np.full_like(self.data, g))

    def sum_squares(self) -> "Tensor":
        """Sum of x * x; the squares are not kept for the backward pass."""
        def grad_fn(g):
            gx = g * self.data
            gx *= 2  # exact, so equal to the two g * x terms of (x * x).sum()
            return gx
        return _unary(self, "sum_squares", np.asarray((self.data * self.data).sum()),
                      grad_fn)

    def reshape(self, shape) -> "Tensor":
        out_data = self.data.reshape(shape)
        return _unary(self, "reshape", out_data,
                      lambda g: g.reshape(self.data.shape))

    def backward(self) -> None:
        backward(self)


def _unary(a: Tensor, op: str, out_data: np.ndarray, grad_fn) -> Tensor:
    out = Tensor(out_data, requires_grad=a.requires_grad, op=op, _parents=(a,))
    if a.requires_grad:
        def _bw(g):
            a.accumulate_grad(grad_fn(g))
        out._backward = _bw
    return out


def _binary(a: Tensor, b, op: str, fwd, bwd) -> Tensor:
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    if a.shape != b.shape and a.data.size != 1 and b.data.size != 1:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not agree")
    out = Tensor(fwd(a.data, b.data),
                 requires_grad=a.requires_grad or b.requires_grad,
                 op=op, _parents=(a, b))
    if out.requires_grad:
        def _bw(g):
            ga, gb = bwd(g, a.data, b.data)
            if a.requires_grad:
                a.accumulate_grad(_reduce_to(ga, a.shape))
            if b.requires_grad:
                b.accumulate_grad(_reduce_to(gb, b.shape))
        out._backward = _bw
    return out


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Collapse a gradient back to a scalar operand's shape."""
    if g.shape == shape:
        return g
    return np.asarray(g.sum()).reshape(shape)


def dense(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """Affine layer y = x @ w + b for x (batch, in), w (in, out), b (out,).

    With ``relu`` the output is max(y, 0), applied in place, and the
    backward mask is read from that output (it is positive exactly where y
    is), so the tape keeps one array where ``dense(...).relu()`` keeps two.
    Values and gradients equal that composition's.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense: shapes {x.shape} and {w.shape} do not agree")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"dense: bias shape {b.shape} != ({w.shape[1]},)")
    yd = x.data @ w.data + b.data
    if relu:
        np.maximum(yd, 0, out=yd)
    out = Tensor(yd, requires_grad=x.requires_grad or w.requires_grad or b.requires_grad,
                 op="dense", _parents=(x, w, b))
    if out.requires_grad:
        def _bw(g):
            if relu:
                g = g * (yd > 0)
            if x.requires_grad:
                _pass_grad(x, g @ w.data.T)
            if w.requires_grad:
                w.accumulate_grad(x.data.T @ g)
            if b.requires_grad:
                b.accumulate_grad(g.sum(axis=0))
        out._backward = _bw
    return out


def _pass_grad(node: Tensor, g: np.ndarray) -> None:
    """Add a fresh gradient array into an interior node's, or hand it over.

    An interior node that holds no gradient yet takes ``g`` itself rather
    than a zero buffer plus a copy. Leaves always accumulate into their own
    buffer, which the caller may keep across calls.
    """
    if node.grad is None and node._parents:
        node.grad = g
    else:
        node.accumulate_grad(g)


def _tap_slices(s: int, t: int) -> tuple[slice, slice]:
    """Time slices a tap of shift s joins: out[..., o] reads in[..., i]."""
    return slice(max(s, 0), t + min(s, 0)), slice(max(-s, 0), t - max(s, 0))


def _channels_major(a: np.ndarray) -> np.ndarray:
    """(batch, ch, T) -> contiguous (ch, batch, T), the layout of the tap GEMMs."""
    return np.ascontiguousarray(a.transpose(1, 0, 2))


def conv1d_causal(x: Tensor, w: Tensor, dilation: int = 1,
                  bias: Tensor | None = None, causal: bool = True,
                  relu: bool = False) -> Tensor:
    """Dilated 1-D convolution, length-preserving.

    x is (batch, in_ch, T), w is (out_ch, in_ch, k). In causal mode the
    input is left zero-padded by (k-1)*dilation, so
    y(t) = sum_j w(j) * x(t - j*dilation) and no output reads the future.
    With causal=False the taps are centered (odd k), for decoders that
    reconstruct complete windows. With ``relu`` the output is max(y, 0),
    applied in place after the bias, and the backward mask is read from
    that output, so the tape keeps one array per layer where
    ``conv1d_causal(...).relu()`` keeps two; values and gradients equal
    that composition's.

    Each tap is one GEMM over the (in_ch, batch*T) view of the input whose
    product is added at the tap's time shift; a tap shifted by T or more
    reads only padding and is skipped. The backward pass recomputes that
    view rather than keeping it alive. It takes the bias and weight
    gradients first, drops each channel-major copy as soon as its GEMMs
    are done, and hands the input gradient to a parent that has none.
    """
    if dilation < 1:
        raise ContractError("dilation must be >= 1")
    if x.data.ndim != 3 or w.data.ndim != 3 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv1d: shapes {x.shape} and {w.shape} do not agree")
    out_ch, in_ch, k = w.shape
    if bias is not None and bias.shape != (out_ch,):
        raise ShapeError(f"conv1d: bias shape {bias.shape} != ({out_ch},)")
    batch, _, t = x.shape
    anchor = 0 if causal else (k - 1) // 2
    taps = [(j, (j - anchor) * dilation) for j in range(k)]
    taps = [(j, _tap_slices(s, t)) for j, s in taps if abs(s) < t]
    xd, wd = x.data, w.data

    xc = _channels_major(xd).reshape(in_ch, batch * t)
    yc = np.zeros((out_ch, batch, t), dtype=xd.dtype)
    for j, (o, i) in taps:
        yc[:, :, o] += (wd[:, :, j] @ xc).reshape(out_ch, batch, t)[:, :, i]
    del xc
    if bias is not None:
        yc += bias.data[:, None, None]
    if relu:
        np.maximum(yc, 0, out=yc)
    yd = _channels_major(yc)
    del yc

    parents = (x, w) if bias is None else (x, w, bias)
    req = any(p.requires_grad for p in parents)
    out = Tensor(yd, requires_grad=req, op="conv1d", _parents=parents)
    if req:
        def _bw(g):
            if relu:
                g = g * (yd > 0)
            if bias is not None and bias.requires_grad:
                bias.accumulate_grad(g.sum(axis=(0, 2)))
            gc = _channels_major(g)
            del g
            if w.requires_grad:
                x3 = _channels_major(xd)
                gw = np.zeros_like(wd)
                for j, (o, i) in taps:
                    gw[:, :, j] = (gc[:, :, o].reshape(out_ch, -1)
                                   @ x3[:, :, i].reshape(in_ch, -1).T)
                del x3
                w.accumulate_grad(gw)
            if x.requires_grad:
                gflat = gc.reshape(out_ch, batch * t)
                del gc
                gxc = np.zeros((in_ch, batch, t), dtype=xd.dtype)
                for j, (o, i) in taps:
                    gxc[:, :, i] += (wd[:, :, j].T @ gflat).reshape(in_ch, batch, t)[:, :, o]
                del gflat
                _pass_grad(x, _channels_major(gxc))
        out._backward = _bw
    return out


def downsample(x: Tensor, step: int) -> Tensor:
    """Keep every step-th time step of (batch, ch, T); stride-2 analog."""
    if step < 1:
        raise ContractError("step must be >= 1")
    out_data = np.ascontiguousarray(x.data[:, :, ::step])

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[:, :, ::step] = g
        return gx
    return _unary(x, "downsample", out_data, grad_fn)


def upsample(x: Tensor, factor: int) -> Tensor:
    """Repeat each time step of (batch, ch, T) ``factor`` times."""
    if factor < 1:
        raise ContractError("factor must be >= 1")
    out_data = np.repeat(x.data, factor, axis=2)

    def grad_fn(g):
        b, c, t = x.data.shape
        return g.reshape(b, c, t, factor).sum(axis=3)
    return _unary(x, "upsample", out_data, grad_fn)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Leaf gradients accumulate across calls until the caller zeroes them.
    An interior node's gradient is scratch: the sweep clears ``node.grad``
    and hands the array to the node's backward step, which holds the only
    reference and may drop it as soon as it has passed the gradient on to
    the parents. A step may in turn hand a fresh array to a parent that
    has no gradient yet instead of copying it into a zero buffer. So the
    sweep holds only the gradients of nodes that have received one and not
    yet passed it on, never one per node of the tape. After the call, only
    leaves hold a ``grad``.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    # iterative postorder DFS; deep graphs would blow the recursion limit
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, int]] = [(loss, 0)]
    while stack:
        node, visited = stack.pop()
        if visited:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, 1))
        for p in node._parents:
            if p._parents and id(p) not in seen:
                stack.append((p, 0))
    for node in topo:
        node.grad = None
    loss.accumulate_grad(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(_take_grad(node))
        elif node._parents:
            node.grad = None


def _take_grad(node: Tensor) -> np.ndarray:
    """Clear ``node.grad`` and return it, so the callee holds the only reference."""
    g, node.grad = node.grad, None
    return g


def zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


@dataclass
class AdamState:
    """Per-parameter Adam moments plus the shared step counter."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def init_adam(params, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    state.m = [np.zeros_like(p.data) for p in params]
    state.v = [np.zeros_like(p.data) for p in params]
    return state


def adam_step(params, state: AdamState) -> None:
    """One Adam update with bias correction; caller zeroes grads."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1 - b1 ** state.t, 1 - b2 ** state.t
    for i, p in enumerate(params):
        g = p.grad
        if g is None:
            continue
        # in-place form of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        # p -= lr * (m/c1) / (sqrt(v/c2) + eps), in the same order of operations
        m, v = state.m[i], state.v[i]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        gg = (1 - b2) * g
        gg *= g
        v += gg
        step = np.divide(m, c1)
        step *= state.lr
        denom = np.divide(v, c2, out=gg)
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        p.data -= step
