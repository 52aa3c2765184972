import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aad.errors import ContractError, ShapeError
from aad.tensor import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    Tensor,
    adam_step,
    backward,
    conv1d_causal,
    dense,
    downsample,
    init_adam,
    upsample,
    zero_grads,
)
from conftest import assert_grads_close, finite_diff_grad


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def conv_by_tap_loop(x, w, b, dilation, causal):
    """Direct oracle: y[:, :, t] = b + sum_j w[:, :, j] @ x[:, :, t - shift_j]."""
    k = w.shape[2]
    anchor = 0 if causal else (k - 1) // 2
    t_len = x.shape[2]
    y = np.zeros((x.shape[0], w.shape[0], t_len)) + b[None, :, None]
    for j in range(k):
        shift = (j - anchor) * dilation
        for t in range(t_len):
            if 0 <= t - shift < t_len:
                y[:, :, t] += x[:, :, t - shift] @ w[:, :, j].T
    return y


def conv_from_zeros(xd, wd, bd, dilation, causal):
    """A zero buffer plus each tap's GEMM, in tap order: the bit-level oracle
    of ``conv1d_causal``'s forward pass, which starts from the anchor tap.
    """
    out_ch, in_ch, k = wd.shape
    batch, _, t = xd.shape
    anchor = 0 if causal else (k - 1) // 2
    xc = np.ascontiguousarray(xd.transpose(1, 0, 2)).reshape(in_ch, batch * t)
    yc = np.zeros((out_ch, batch, t), dtype=xd.dtype)
    for j in range(k):
        s = (j - anchor) * dilation
        if abs(s) < t:
            o, i = slice(max(s, 0), t + min(s, 0)), slice(max(-s, 0), t - max(s, 0))
            yc[:, :, o] += (wd[:, :, j] @ xc).reshape(out_ch, batch, t)[:, :, i]
    yc += bd[:, None, None]
    return np.ascontiguousarray(yc.transpose(1, 0, 2))


class TestDense:
    def test_scalar_chain_rule(self):
        x, w, b = leaf([[3.0]]), leaf([[2.0]]), leaf([0.0])
        y = dense(x, w, b)
        assert y.data.item() == 6.0
        backward(y.sum())
        assert w.grad.item() == 3.0
        assert x.grad.item() == 2.0
        assert b.grad.item() == 1.0

    def test_identity_weights(self):
        x = leaf(np.arange(6, dtype=np.float64).reshape(2, 3))
        y = dense(x, leaf(np.eye(3)), leaf(np.zeros(3)))
        np.testing.assert_array_equal(y.data, x.data)

    def test_random_case_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        xd = rng.normal(size=(4, 3))
        wd = rng.normal(size=(3, 2))
        bd = rng.normal(size=2)
        x, w, b = leaf(xd), leaf(wd), leaf(bd)

        def loss():
            return float((dense(x, w, b).tanh().data ** 2).sum())

        def run():
            zero_grads([x, w, b])
            out = dense(x, w, b).tanh()
            backward((out * out).sum())
            return [x.grad, w.grad, b.grad]

        oracle = finite_diff_grad(loss, [xd, wd, bd])
        assert_grads_close(run(), oracle)

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            dense(leaf(np.zeros((2, 3))), leaf(np.zeros((2, 2))), leaf(np.zeros(2)))


class TestConv1dCausal:
    def test_hand_case_dilation_1(self):
        x = leaf(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        w = leaf(np.array([[[1.0, 1.0]]]))
        y = conv1d_causal(x, w, dilation=1)
        np.testing.assert_array_equal(y.data[0, 0], [1, 3, 5, 7])

    def test_hand_case_dilation_2(self):
        x = leaf(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        w = leaf(np.array([[[1.0, 1.0]]]))
        y = conv1d_causal(x, w, dilation=2)
        np.testing.assert_array_equal(y.data[0, 0], [1, 2, 4, 6])

    def test_identity_kernel(self):
        x = leaf(np.random.default_rng(1).normal(size=(2, 3, 5)))
        w = np.zeros((3, 3, 1))
        w[np.arange(3), np.arange(3), 0] = 1.0
        y = conv1d_causal(x, leaf(w), dilation=1)
        np.testing.assert_array_equal(y.data, x.data)

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_gradients_match_finite_differences(self, dilation):
        rng = np.random.default_rng(dilation)
        xd = rng.normal(size=(2, 3, 10))
        wd = rng.normal(size=(4, 3, 3))
        bd = rng.normal(size=4)
        x, w, b = leaf(xd), leaf(wd), leaf(bd)

        def loss():
            out = conv1d_causal(x, w, dilation=dilation, bias=b)
            return float((out.data ** 2).sum())

        def run():
            zero_grads([x, w, b])
            out = conv1d_causal(x, w, dilation=dilation, bias=b)
            backward((out * out).sum())
            return [x.grad, w.grad, b.grad]

        oracle = finite_diff_grad(loss, [xd, wd, bd])
        assert_grads_close(run(), oracle)

    def test_noncausal_centered_taps(self):
        x = leaf(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        w = leaf(np.array([[[1.0, 1.0, 1.0]]]))
        y = conv1d_causal(x, w, dilation=1, causal=False)
        # centered 3-tap box: [x0+x1, x0+x1+x2, x1+x2+x3, x2+x3]
        np.testing.assert_array_equal(y.data[0, 0], [3, 6, 9, 7])

    def test_causality_exact_zero_influence(self):
        rng = np.random.default_rng(7)
        xd = rng.normal(size=(1, 2, 16))
        layers = [(rng.normal(size=(2, 2, 3)), d) for d in (1, 2, 4)]

        def forward(xv):
            h = Tensor(xv)
            for wd, d in layers:
                h = conv1d_causal(h, Tensor(wd), dilation=d).relu()
            return h.data

        base = forward(xd)
        for t in range(4, 16):
            bumped = xd.copy()
            bumped[:, :, t] += 10.0
            out = forward(bumped)
            np.testing.assert_array_equal(out[:, :, :t], base[:, :, :t])

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv1d_causal(leaf(np.zeros((1, 2, 8))), leaf(np.zeros((4, 3, 3))))

    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_tap_loop_at_every_dilation(self, causal, k):
        # at T=32, dilations 16..32 shift taps partly or fully out of the window
        rng = np.random.default_rng(k)
        xd = rng.normal(size=(3, 4, 32))
        wd = rng.normal(size=(5, 4, k))
        bd = rng.normal(size=5)
        for dilation in range(1, 33):
            y = conv1d_causal(Tensor(xd), Tensor(wd), dilation=dilation,
                              bias=Tensor(bd), causal=causal)
            expected = conv_by_tap_loop(xd, wd, bd, dilation, causal)
            np.testing.assert_allclose(y.data, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 4])
    def test_centered_needs_an_odd_kernel(self, k):
        x, w = leaf(np.zeros((1, 2, 8))), leaf(np.zeros((3, 2, k)))
        with pytest.raises(ContractError, match="odd"):
            conv1d_causal(x, w, causal=False)
        assert conv1d_causal(x, w, causal=True).shape == (1, 3, 8)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([1, 3, 64]), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 24), st.sampled_from([1, 2, 3, 5]), st.integers(1, 30),
           st.booleans())
    def test_forward_equals_the_zero_start_loop_bit_for_bit(self, data, batch, cin, cout, t,
                                                           k, dilation, causal):
        # dilations up to 30 at T <= 24 put taps partly and wholly outside T;
        # k=5 centered has two taps before the anchor, so it starts from zeros
        causal = causal or k % 2 == 0
        xd = data.draw(_f32((batch, cin, t)))
        wd = data.draw(_f32((cout, cin, k)))
        bd = data.draw(_f32((cout,)))
        y = conv1d_causal(Tensor(xd), Tensor(wd), dilation=dilation, bias=Tensor(bd),
                          causal=causal)
        expected = conv_from_zeros(xd, wd, bd, dilation, causal)
        assert y.data.dtype == np.float32
        assert y.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("causal,dilation", [(True, 8), (True, 13), (False, 8)])
    def test_gradients_with_taps_beyond_the_window(self, causal, dilation):
        # T=8: every tap but the anchor reads only padding
        rng = np.random.default_rng(dilation)
        xd = rng.normal(size=(2, 3, 8))
        wd = rng.normal(size=(4, 3, 3))
        bd = rng.normal(size=4)
        x, w, b = leaf(xd), leaf(wd), leaf(bd)

        def loss():
            out = conv1d_causal(x, w, dilation=dilation, bias=b, causal=causal)
            return float((out.data ** 2).sum())

        zero_grads([x, w, b])
        out = conv1d_causal(x, w, dilation=dilation, bias=b, causal=causal)
        backward((out * out).sum())
        analytic = [x.grad, w.grad, b.grad]
        assert_grads_close(analytic, finite_diff_grad(loss, [xd, wd, bd]))
        anchor = 0 if causal else 1
        dead = [j for j in range(3) if j != anchor]
        np.testing.assert_array_equal(w.grad[:, :, dead], 0.0)


# float32 values that include exact zeros and small integers, so that
# pre-activations land exactly on zero and on both sides of it
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                    st.floats(-4, 4, width=32))


def _f32(shape):
    return arrays(np.float32, shape, elements=_VALUES)


def _fused_and_unfused(op, arrays_in, probe):
    """(value, leaf grads) of ``op(*leaves, relu=True)`` and of ``op(*leaves).relu()``.

    The input goes through one interior node, so its gradient takes the
    hand-over path into a node that has none yet.
    """
    results = []
    for fused in (True, False):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays_in]
        inputs = [leaves[0] * 1.0, *leaves[1:]]
        y = op(*inputs, relu=True) if fused else op(*inputs).relu()
        backward((y * Tensor(probe)).sum())
        results.append([y.data, *(leaf.grad for leaf in leaves)])
    return results


class TestFusedRelu:
    """The fused ops equal their ``.relu()`` composition bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 40), st.sampled_from([1, 3]), st.integers(1, 32), st.booleans())
    def test_conv1d_causal(self, data, batch, cin, cout, t, k, dilation, causal):
        xd = data.draw(_f32((batch, cin, t)))
        wd = data.draw(_f32((cout, cin, k)))
        bd = data.draw(_f32((cout,)))
        probe = data.draw(_f32((batch, cout, t)))

        def op(x, w, b, **kw):
            return conv1d_causal(x, w, dilation=dilation, bias=b, causal=causal, **kw)
        fused, unfused = _fused_and_unfused(op, [xd, wd, bd], probe)
        for f, u in zip(fused, unfused):
            assert f.dtype == u.dtype == np.float32
            assert f.tobytes() == u.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 5), st.integers(1, 6), st.integers(1, 6))
    def test_dense(self, data, batch, n_in, n_out):
        xd = data.draw(_f32((batch, n_in)))
        wd = data.draw(_f32((n_in, n_out)))
        bd = data.draw(_f32((n_out,)))
        probe = data.draw(_f32((batch, n_out)))
        fused, unfused = _fused_and_unfused(dense, [xd, wd, bd], probe)
        for f, u in zip(fused, unfused):
            assert f.dtype == u.dtype == np.float32
            assert f.tobytes() == u.tobytes()


class TestActivations:
    def test_relu_values(self):
        y = leaf([-1.0, 2.0]).relu()
        np.testing.assert_array_equal(y.data, [0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert leaf([0.0]).sigmoid().data.item() == 0.5

    def test_tanh_gradient_at_zero_matches_fd(self):
        xd = np.array([0.0])
        x = leaf(xd)

        def loss():
            return float(np.tanh(xd).sum())

        backward(x.tanh().sum())
        oracle = finite_diff_grad(loss, [xd])
        assert x.grad.item() == pytest.approx(1.0)
        assert_grads_close([x.grad], oracle)

    @pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh", "exp"])
    def test_elementwise_gradients_match_fd(self, act):
        rng = np.random.default_rng(hash(act) % 2**31)
        xd = rng.normal(size=(3, 4)) + 0.3  # keep relu away from the kink
        x = leaf(xd)

        def loss():
            return float((getattr(Tensor(xd), act)().data ** 2).sum())

        zero_grads([x])
        out = getattr(x, act)()
        backward((out * out).sum())
        assert_grads_close([x.grad], finite_diff_grad(loss, [xd]))


class TestBackward:
    def test_sum_gives_ones(self):
        x = leaf(np.zeros((2, 3)))
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = leaf([1.0, 2.0])
        backward((x * x).sum())
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_composite_graph_matches_fd(self):
        rng = np.random.default_rng(42)
        xd = rng.normal(size=(2, 2, 8))
        wc = rng.normal(size=(3, 2, 3))
        wd_ = rng.normal(size=(24, 5))
        bd = rng.normal(size=5)
        params = [wc, wd_, bd]

        def run_loss():
            h = conv1d_causal(Tensor(xd), Tensor(wc), dilation=2).relu()
            flat = h.reshape((2, 24))
            out = dense(flat, Tensor(wd_), Tensor(bd)).sigmoid()
            return float((out.data ** 2).sum())

        t_wc, t_wd, t_bd = leaf(wc), leaf(wd_), leaf(bd)
        h = conv1d_causal(Tensor(xd), t_wc, dilation=2).relu()
        out = dense(h.reshape((2, 24)), t_wd, t_bd).sigmoid()
        backward((out * out).sum())
        oracle = finite_diff_grad(run_loss, params)
        assert_grads_close([t_wc.grad, t_wd.grad, t_bd.grad], oracle)

    def test_repeated_backward_accumulates(self):
        x = leaf([1.0, 2.0])
        loss = (x * x).sum()
        backward(loss)
        backward(loss)
        np.testing.assert_array_equal(x.grad, [4.0, 8.0])

    def test_interior_grads_are_dropped_and_leaves_keep_theirs(self):
        x, w, b = leaf(np.ones((2, 3))), leaf(np.ones((3, 2))), leaf(np.zeros(2))
        h = dense(x, w, b).relu()
        loss = (h * h).sum() + h.sum()
        backward(loss)
        tape, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if node._parents:
                tape[id(node)] = node
                stack.extend(node._parents)
        assert sorted(n.op for n in tape.values()) == [
            "add", "dense", "mul", "relu", "sum", "sum"]
        assert all(node.grad is None for node in tape.values())
        assert all(p.grad is not None for p in (x, w, b))

    def test_diamond_graph(self):
        x = leaf([2.0])
        y = x * x      # 4
        z = (y + x) * y  # (4+2)*4 = 24, dz/dx = (2x+1)*y + (y+x)*2x = 5*4+6*4=44
        backward(z.sum())
        assert x.grad.item() == pytest.approx(44.0)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            backward(leaf([1.0, 2.0]))


class TestShapeOps:
    def test_downsample_forward_backward(self):
        xd = np.arange(12, dtype=np.float64).reshape(1, 2, 6)
        x = leaf(xd)
        y = downsample(x, 2)
        np.testing.assert_array_equal(y.data, xd[:, :, ::2])
        backward(y.sum())
        expect = np.zeros_like(xd)
        expect[:, :, ::2] = 1.0
        np.testing.assert_array_equal(x.grad, expect)

    def test_upsample_forward_backward(self):
        xd = np.array([[[1.0, 2.0]]])
        x = leaf(xd)
        y = upsample(x, 3)
        np.testing.assert_array_equal(y.data[0, 0], [1, 1, 1, 2, 2, 2])
        backward(y.sum())
        np.testing.assert_array_equal(x.grad, [[[3.0, 3.0]]])

    def test_reshape_roundtrip_gradient(self):
        x = leaf(np.arange(6, dtype=np.float64))
        y = x.reshape((2, 3))
        backward((y * y).sum())
        np.testing.assert_array_equal(x.grad, 2 * np.arange(6))


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # bias-corrected m/sqrt(v) at t=1 is sign(g) up to eps
        p = leaf(np.array([1.0, -2.0, 3.0]))
        p.grad = np.array([0.5, -4.0, 1e-3])
        state = init_adam([p], lr=0.01)
        before = p.data.copy()
        adam_step([p], state)
        step = before - p.data
        np.testing.assert_allclose(step, 0.01 * np.sign(p.grad), rtol=1e-4)

    def test_zero_gradient_leaves_parameters(self):
        p = leaf(np.array([1.0, 2.0]))
        state = init_adam([p])
        for _ in range(5):
            p.grad = np.zeros(2)
            adam_step([p], state)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_minimizes_quadratic_and_matches_scalar_oracle(self):
        # independent plain-float Adam simulation of f(w) = w^2
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        w_sim, m, v = 1.0, 0.0, 0.0
        trajectory = []
        for t in range(1, 201):
            g = 2.0 * w_sim
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w_sim -= lr * (m / (1 - b1 ** t)) / ((v / (1 - b2 ** t)) ** 0.5 + eps)
            trajectory.append(w_sim)
        assert abs(w_sim) < 1e-3

        p = leaf(np.array([1.0]))
        state = init_adam([p], lr=lr)
        for t in range(200):
            zero_grads([p])
            backward((p * p).sum())
            adam_step([p], state)
            assert p.data.item() == pytest.approx(trajectory[t], rel=1e-12)
        assert abs(p.data.item()) < 1e-3


def adam_step_reference(params, state):
    """The out-of-place Adam formula, kept as the bit-level oracle."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for i, p in enumerate(params):
        g = p.grad
        if g is None:
            continue
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        m_hat = state.m[i] / (1 - b1 ** state.t)
        v_hat = state.v[i] / (1 - b2 ** state.t)
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class TestAdamInPlace:
    def test_bit_identical_to_out_of_place_formula(self):
        rng = np.random.default_rng(11)
        shapes = [(16, 8), (8,), (4, 3, 3)]
        new = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
               for s in shapes]
        old = [Tensor(p.data.copy(), requires_grad=True) for p in new]
        s_new, s_old = init_adam(new, lr=3e-3), init_adam(old, lr=3e-3)
        for step in range(60):
            for a, b in zip(new, old):
                g = rng.normal(size=a.shape).astype(np.float32)
                a.grad, b.grad = g, g.copy()
            if step % 7 == 3:  # a parameter without a gradient is skipped
                new[1].grad = old[1].grad = None
            adam_step(new, s_new)
            adam_step_reference(old, s_old)
        for a, b, m1, m2, v1, v2 in zip(new, old, s_new.m, s_old.m, s_new.v, s_old.v):
            assert a.data.dtype == np.float32
            assert np.array_equal(a.data, b.data)
            assert np.array_equal(m1, m2) and np.array_equal(v1, v2)

    def test_gradient_is_left_unchanged(self):
        p = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        g = np.array([0.5, -1.0, 2.0, 0.0], dtype=np.float32)
        p.grad = g.copy()
        adam_step([p], init_adam([p]))
        np.testing.assert_array_equal(p.grad, g)


class TestDeterminism:
    def test_forward_backward_bit_identical(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.normal(size=(2, 3, 8)))
            w = leaf(rng.normal(size=(4, 3, 3)))
            out = conv1d_causal(x, w, dilation=2).tanh()
            backward((out * out).sum())
            return out.data.copy(), w.grad.copy()

        o1, g1 = run()
        o2, g2 = run()
        np.testing.assert_array_equal(o1, o2)
        np.testing.assert_array_equal(g1, g2)
