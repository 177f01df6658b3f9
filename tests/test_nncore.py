import numpy as np
import pytest

from bmtas.errors import (
    BoundsError,
    ConfigError,
    DimensionMismatch,
    DomainError,
    NumericError,
)
from bmtas.graph import SupergraphSpec
from bmtas.nncore import (
    ADAM_WEIGHT_DECAY,
    SGD_MOMENTUM,
    SGD_WEIGHT_DECAY,
    Adam,
    OperationParams,
    SGD,
)
from bmtas.search import SearchConfig
from bmtas.seeding import rng_stream
from conftest import central_diff, relative_error
from tape import (
    ModeError,
    Tensor,
    backward,
    candidate_forward,
    head_forward,
    leaves,
    mixed_layer_forward,
    reset_grads,
    task_loss,
)


def grad_of(build, x0):
    """Gradient of a scalar-valued tape builder at x0, via backward."""
    x = Tensor(np.array(x0, dtype=np.float64))
    out = build(x)
    backward(out)
    return x.grad


def fd_of(build, x0, h=1e-6):
    return central_diff(lambda a: float(build(Tensor(a.copy())).data), np.array(x0), h)


class TestTensorBasics:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(NumericError):
            Tensor([1.0, np.nan])
        with pytest.raises(NumericError):
            Tensor(np.inf)

    def test_forward_values(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        assert (a @ b).data.item() == 11.0
        assert np.allclose((a + 1.0).data, [[2.0, 3.0]])
        assert np.allclose((2.0 * a).data, [[2.0, 4.0]])
        assert (a.mean().data) == 1.5

    def test_nan_raised_mid_tape(self):
        big = Tensor(np.array([700.0]))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            _ = big * Tensor([1e308]) * Tensor([1e308])


class TestOpGradients:
    def test_matmul(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 2))
        build = lambda x: ((x @ Tensor(w)) * Tensor(np.ones((4, 2)))).mean()
        x0 = rng.normal(size=(4, 3))
        assert relative_error(grad_of(build, x0), fd_of(build, x0)) < 1e-8

    def test_add_sub_broadcast(self):
        rng = np.random.default_rng(1)
        b = rng.normal(size=(1, 3))
        build = lambda x: ((x + Tensor(b)) - Tensor(b * 0.5)).mean()
        x0 = rng.normal(size=(5, 3))
        assert relative_error(grad_of(build, x0), fd_of(build, x0)) < 1e-8
        # and the broadcast parameter itself accumulates over rows
        bias = Tensor(b)
        out = (Tensor(x0) + bias).mean()
        backward(out)
        assert bias.grad.shape == b.shape
        assert np.allclose(bias.grad, np.full_like(b, 5 / 15))

    def test_mul(self):
        rng = np.random.default_rng(2)
        other = rng.normal(size=(4,))
        build = lambda x: (x * Tensor(other)).mean()
        x0 = rng.normal(size=(4,))
        assert relative_error(grad_of(build, x0), fd_of(build, x0)) < 1e-8

    def test_getitem_scatter(self):
        build = lambda x: (x[(1,)] * x[(1,)]).mean()
        x0 = np.array([1.0, 3.0, 2.0])
        g = grad_of(build, x0)
        assert np.allclose(g, [0.0, 6.0, 0.0])
        assert relative_error(g, fd_of(build, x0)) < 1e-8

    def test_tanh(self):
        build = lambda x: x.tanh().mean()
        x0 = np.array([-2.0, 0.1, 1.5])
        assert relative_error(grad_of(build, x0), fd_of(build, x0)) < 1e-8

    def test_softmax1d(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(4,))
        build = lambda x: (x.softmax1d() * Tensor(v)).mean()
        x0 = rng.normal(size=(4,))
        assert relative_error(grad_of(build, x0), fd_of(build, x0)) < 1e-7

    def test_softmax1d_needs_vector(self):
        with pytest.raises(DimensionMismatch):
            Tensor(np.zeros((2, 2))).softmax1d()

    def test_reused_node_accumulates(self):
        # diamond: x feeds two branches that rejoin
        def build(x):
            y = x * 2.0
            return (y * y + y).mean()

        x0 = np.array([0.5, -1.0])
        assert relative_error(grad_of(build, x0), fd_of(build, x0)) < 1e-8


class TestBackwardContract:
    def test_root_must_be_scalar_tensor(self):
        with pytest.raises(ModeError):
            backward(np.float64(1.0))
        with pytest.raises(DimensionMismatch):
            backward(Tensor([1.0, 2.0]))

    def test_grads_accumulate_until_reset(self):
        x = Tensor([1.0, 2.0])
        backward((x * x).mean())
        first = x.grad.copy()
        backward((x * x).mean())
        assert np.allclose(x.grad, 2 * first)
        reset_grads([x])
        assert x.grad is None

    def test_plain_holders_enter_as_leaves(self, small_params):
        # a holder from OperationParams.init has no .grad; leaves wraps its arrays
        _, plain = small_params
        x = np.ones((1, 4))
        with pytest.raises(ModeError):
            backward(candidate_forward(plain, 1, 0, x).mean())
        params = leaves(plain)
        assert all(p.data is q.data for p, q in zip(params.parameters(), plain.parameters()))
        backward(candidate_forward(params, 1, 0, x).mean())
        assert params.weights[0].grad.shape == (2, 4, 3)
        assert np.all(params.weights[0].grad[1] == 0.0)

    def test_seed_scales(self):
        x = Tensor([3.0])
        backward(x.mean(), seed=2.5)
        assert np.allclose(x.grad, [2.5])


class TestLossWeights:
    # the task-loss weights are SearchConfig.omega; unset means all ones
    def test_positive_only(self):
        with pytest.raises(ConfigError):
            SearchConfig(omega=(1.0, 0.0))
        assert SearchConfig().weights_for(3) == (1.0, 1.0, 1.0)


@pytest.fixture
def small_params():
    spec = SupergraphSpec([4, 3, 3])
    return spec, OperationParams.init(spec, 2, head_dim=2, rng=rng_stream(7, "init"))


class TestOperationParams:
    def test_candidates_start_identical(self, small_params):
        _, params = small_params
        for w in params.weights:
            assert w.shape[0] == 2
            assert np.array_equal(w.data[1], w.data[0])

    def test_mixture_invariant_at_init(self, small_params):
        # identical candidates make the mixed output routing-independent
        _, params = small_params
        x = rng_stream(8).normal(size=(5, 4))
        a = mixed_layer_forward(params, 1, np.array([1.0, 0.0]), x)
        b = mixed_layer_forward(params, 1, np.array([0.25, 0.75]), x)
        assert np.allclose(a.data, b.data)

    def test_named_parameters_cover_everything(self, small_params):
        _, params = small_params
        w, b, heads = params.weights, params.biases, [params.head_weights, params.head_biases]
        got = params.parameters()  # l1.w, l1.b, l2.w, l2.b, head.w, head.b
        assert got == [w[0], b[0], w[1], b[1], *heads]
        shapes = [p.shape for p in got]
        assert shapes == [(2, 4, 3), (2, 3), (2, 3, 3), (2, 3), (2, 3, 2), (2, 2)]

    def test_layer_shape_agreement_enforced(self):
        heads = Tensor(np.zeros((2, 3, 1))), Tensor(np.zeros((2, 1)))
        with pytest.raises(DimensionMismatch):
            OperationParams(
                weights=[Tensor(np.zeros((2, 2, 3)))],
                biases=[Tensor(np.zeros((3, 3)))],
                head_weights=heads[0],
                head_biases=heads[1],
            )
        with pytest.raises(DimensionMismatch):
            flat = Tensor(np.zeros((2, 3)))  # one unstacked matrix
            OperationParams([flat], [Tensor(np.zeros((2, 3)))], *heads)

    def test_heads_share_one_width(self):
        layer = [Tensor(np.zeros((2, 4, 3)))], [Tensor(np.zeros((2, 3)))]
        with pytest.raises(DimensionMismatch):
            OperationParams(*layer, Tensor(np.zeros((2, 3, 2))), Tensor(np.zeros((2, 3))))
        with pytest.raises(DimensionMismatch):
            OperationParams(*layer, Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))))


class TestForwardOps:
    def test_candidate_forward_value(self, small_params):
        _, params = small_params
        x = rng_stream(9).normal(size=(3, 4))
        got = candidate_forward(params, 1, 0, x)
        want = np.tanh(x @ params.weights[0].data[0] + params.biases[0].data[0])
        assert np.allclose(got.data, want)

    def test_candidate_forward_bounds(self, small_params):
        _, params = small_params
        x = np.zeros((1, 4))
        with pytest.raises(BoundsError):
            candidate_forward(params, 3, 0, x)
        with pytest.raises(BoundsError):
            candidate_forward(params, 1, 2, x)
        with pytest.raises(DimensionMismatch):
            candidate_forward(params, 1, 0, np.zeros((1, 5)))

    def test_mixed_layer_is_convex_combination(self, small_params):
        _, params = small_params
        params.weights[0].data[1] += 1.0  # split candidates
        x = rng_stream(10).normal(size=(2, 4))
        z = np.array([0.3, 0.7])
        got = mixed_layer_forward(params, 1, z, x)
        want = 0.3 * candidate_forward(params, 1, 0, x).data + 0.7 * candidate_forward(
            params, 1, 1, x
        ).data
        assert np.allclose(got.data, want)

    def test_mixed_layer_validates_routing_row(self, small_params):
        _, params = small_params
        x = np.zeros((1, 4))
        with pytest.raises(DomainError):
            mixed_layer_forward(params, 1, np.array([0.3, 0.3]), x)
        with pytest.raises(DimensionMismatch):
            mixed_layer_forward(params, 1, np.array([1.0]), x)

    def test_mixed_layer_differentiates_tensor_routing(self, small_params):
        params = leaves(small_params[1])
        params.weights[0].data[1] *= -1.0
        x = rng_stream(11).normal(size=(3, 4))

        def build(z):
            return mixed_layer_forward(params, 1, z.softmax1d(), x).mean()

        z0 = np.array([0.2, -0.4])
        assert relative_error(grad_of(build, z0), fd_of(build, z0)) < 1e-7

    def test_layers_hold_their_own_operation_counts(self):
        # two operations at layer 1, one at layer 2, as in a retrained network
        rng = rng_stream(13)
        weights = [Tensor(rng.normal(size=(2, 4, 3))), Tensor(rng.normal(size=(1, 3, 3)))]
        biases = [Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3)))]
        heads = Tensor(np.zeros((1, 3, 1))), Tensor(np.zeros((1, 1)))
        params = OperationParams(weights, biases, *heads)
        x = rng.normal(size=(2, 4))
        h = candidate_forward(params, 1, 1, x)
        with pytest.raises(BoundsError):
            candidate_forward(params, 2, 1, h)
        got = mixed_layer_forward(params, 2, [1.0], h)
        np.testing.assert_array_equal(got.data, candidate_forward(params, 2, 0, h).data)
        for layer in (0, 3):
            with pytest.raises(BoundsError):
                mixed_layer_forward(params, layer, [0.5, 0.5], x)

    def test_head_forward(self, small_params):
        _, params = small_params
        feats = rng_stream(12).normal(size=(4, 3))
        got = head_forward(params, 1, feats)
        want = feats @ params.head_weights.data[1] + params.head_biases.data[1]
        assert np.allclose(got.data, want)
        with pytest.raises(BoundsError):
            head_forward(params, 2, feats)


class TestLosses:
    def test_mse_value(self):
        pred = Tensor([[1.0, 2.0], [3.0, 4.0]])
        target = np.array([[1.0, 0.0], [0.0, 4.0]])
        assert float(task_loss(pred, target).data) == pytest.approx((4 + 9) / 4)

    def test_mse_contract(self):
        with pytest.raises(DimensionMismatch):
            task_loss(Tensor([1.0]), np.array([1.0, 2.0]))


def reference_sgd(x0, grads, lr, momentum, weight_decay, steps):
    x, v = np.array(x0, dtype=np.float64), np.zeros_like(np.asarray(x0))
    out = []
    for i in range(steps):
        g = grads[i] + weight_decay * x
        v = momentum * v + g
        x = x - lr * v
        out.append(x.copy())
    return out


class TestSGD:
    def test_matches_reference_sequence(self):
        rng = np.random.default_rng(13)
        x0 = rng.normal(size=(3,))
        grads = [rng.normal(size=(3,)) for _ in range(4)]
        p = Tensor(x0.copy())
        opt = SGD([p], lr=0.1)
        want = reference_sgd(x0, grads, 0.1, SGD_MOMENTUM, SGD_WEIGHT_DECAY, 4)
        for i in range(4):
            opt.step([grads[i]])
            assert np.allclose(p.data, want[i])

    def test_lr_scales(self):
        # from zero, so that the first step is the scaled gradient alone
        p, q = Tensor(np.zeros(1)), Tensor(np.zeros(1))
        opt = SGD([p, q], lr=1.0, lr_scales=[1.0, 0.25])
        opt.step([np.ones(1), np.ones(1)])
        assert p.data[0] == -1.0 and q.data[0] == -0.25
        with pytest.raises(DimensionMismatch):
            SGD([p], lr=1.0, lr_scales=[1.0, 2.0])

    def test_array_lr_scales_scale_each_operation(self):
        # one factor per stacked operation, as retraining's 1/|block|
        w = Tensor(np.zeros((2, 1, 3)))
        opt = SGD([w], lr=1.0, lr_scales=[np.array([[[1.0]], [[0.5]]])])
        opt.step([np.ones((2, 1, 3))])
        np.testing.assert_array_equal(w.data[:, 0], [[-1.0] * 3, [-0.5] * 3])

    def test_reset_momentum(self):
        p = Tensor(np.zeros(2))
        opt = SGD([p], lr=0.1)
        opt.step([np.ones(2)])
        assert np.any(opt.velocity != 0)
        opt.reset_momentum()
        assert np.all(opt.velocity == 0)

    def test_flat_buffer_matches_per_array_steps(self):
        # the per-array update the flat buffer replaced, bit for bit
        rng = np.random.default_rng(15)
        shapes = [(3, 4, 2), (3, 2), (2, 5)]
        scales = [rng.uniform(0.1, 1.0, (3, 1, 1)), rng.uniform(0.1, 1.0, (3, 1)), 1.0]
        want = [rng.normal(size=s) for s in shapes]
        params = [Tensor(a.copy()) for a in want]
        opt = SGD(params, lr=0.3, lr_scales=scales)
        velocity = [np.zeros(s) for s in shapes]
        for step in range(6):
            if step == 3:
                opt.reset_momentum()
                for v in velocity:
                    v[...] = 0.0
            grads = [rng.normal(size=s) for s in shapes]
            opt.step(grads)
            for i, (g, s) in enumerate(zip(grads, scales)):
                g = g + SGD_WEIGHT_DECAY * want[i]
                velocity[i] *= SGD_MOMENTUM
                velocity[i] += g
                want[i] = want[i] - 0.3 * np.asarray(s) * velocity[i]
            for p, w in zip(params, want):
                np.testing.assert_array_equal(p.data, w)
        # parameters and velocity share one buffer, each .data a view of it
        assert opt.flat.base is opt.velocity.base
        assert all(np.shares_memory(p.data, opt.flat) for p in params)


def reference_adam(x0, grads, lr, weight_decay, steps, betas=(0.9, 0.999), eps=1e-8):
    x = np.array(x0, dtype=np.float64)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    out = []
    for i in range(steps):
        g = grads[i] + weight_decay * x
        m = betas[0] * m + (1 - betas[0]) * g
        v = betas[1] * v + (1 - betas[1]) * g * g
        mh = m / (1 - betas[0] ** (i + 1))
        vh = v / (1 - betas[1] ** (i + 1))
        x = x - lr * mh / (np.sqrt(vh) + eps)
        out.append(x.copy())
    return out


class TestAdam:
    def test_matches_reference_sequence(self):
        rng = np.random.default_rng(14)
        x0 = rng.normal(size=(4,))
        grads = [rng.normal(size=(4,)) for _ in range(5)]
        opt = Adam(x0.copy(), lr=0.05)
        want = reference_adam(x0, grads, 0.05, ADAM_WEIGHT_DECAY, 5)
        for i in range(5):
            opt.step(grads[i])
            assert np.allclose(opt.value, want[i])

    def test_minimizes_quadratic(self):
        opt = Adam(np.array([4.0, -3.0]), lr=0.2)
        for _ in range(200):
            p = Tensor(opt.value)
            backward((p * p).mean())
            opt.step(p.grad)
        assert np.abs(opt.value).max() < 1e-3
