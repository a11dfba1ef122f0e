"""The tape invariants: no reference cycles, no tape where no grad flows,
and frozen operands that change nothing but the work done.

A differentiable op records its parents and backward closure only when
its output requires grad, and no closure references the tensor it is
attached to (``repro.autograd.tensor``; reprolint ``TAPE001``). Together
these keep every graph cycle-free, so training graphs and eval
activations are freed by reference count. The cycle tests run with the
GC disabled and require ``gc.collect()`` to find nothing afterwards.
"""

import gc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, functional as F, no_grad
from repro.autograd import tensor as tensor_module
from repro.autograd.tensor import concatenate
from repro.compensation import CompensationPlan, CompensationTrainer
from repro.core.training import Trainer
from repro.data import ArrayDataset, synth_cifar10
from repro.evaluation.vectorized import stacked_accuracies
from repro.hardware.analog_layers import analogize
from repro.lipschitz import OrthogonalityRegularizer
from repro.models import build_model
from repro.nn.module import Parameter
from repro.optim.optimizers import Adam
from repro.rl import ReinforceAgent, RNNPolicy
from repro.utils.rng import new_rng
from repro.variation import LogNormalVariation, VariationInjector


def cyclic_garbage(step):
    """Objects the cyclic GC finds after ``step()`` runs with it disabled."""
    gc.collect()
    gc.disable()
    try:
        step()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def tiny_cifar():
    return synth_cifar10(train_per_class=4, test_per_class=1)[0]


def _batch(data, n=8):
    return data.images[:n], data.labels[:n]


class TestNoCyclicGarbage:
    @pytest.mark.parametrize(
        "name", ["lenet5", "mlp", "resnet8", "attnmlp", "vgg11"]
    )
    def test_training_step_of_every_family(self, name, tiny_train, tiny_cifar):
        data = tiny_train if name in ("lenet5", "mlp") else tiny_cifar
        model = build_model(name, data, width=0.25, seed=0)
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-3), seed=0)
        images, labels = _batch(data)
        assert cyclic_garbage(lambda: trainer._train_batch(images, labels)) == 0
        assert all(p.grad is not None for p in model.parameters())

    def test_lipschitz_regularized_step(self, tiny_train):
        model = build_model("lenet5", tiny_train, width=0.25, seed=0)
        trainer = Trainer(
            model,
            Adam(model.parameters(), lr=1e-3),
            regularizer=OrthogonalityRegularizer(0.5),
            seed=0,
        )
        images, labels = _batch(tiny_train)
        assert cyclic_garbage(lambda: trainer._train_batch(images, labels)) == 0

    def test_compensated_step(self, tiny_train):
        base = build_model("lenet5", tiny_train, width=0.25, seed=0)
        comp = CompensationPlan({0: 1.0, 1: 0.5}).apply(base, seed=1)
        trainer = CompensationTrainer(comp, LogNormalVariation(0.5), seed=0).trainer
        images, labels = _batch(tiny_train)
        assert cyclic_garbage(lambda: trainer._train_batch(images, labels)) == 0

    def test_reinforce_update(self):
        policy = RNNPolicy(
            n_steps=3, ratio_choices=(0.0, 0.5, 1.0), hidden_size=8, seed=1
        )
        agent = ReinforceAgent(policy)
        assert cyclic_garbage(lambda: agent.update(policy.sample(), 0.5)) == 0

    def test_no_grad_eval_forwards(self, tiny_train):
        model = build_model("lenet5", tiny_train, width=0.25, seed=0).eval()
        small = ArrayDataset(*_batch(tiny_train, 16))
        images = Tensor(small.images)

        def plain():
            with no_grad():
                model(images)

        injector = VariationInjector(model, LogNormalVariation(0.5))

        def stacked():
            stacks = injector.stack_for([new_rng(i) for i in range(2)])
            with injector.applied_stack(stacks):
                stacked_accuracies(model, small, 2, len(small))

        analog = analogize(
            build_model("lenet5", tiny_train, width=0.25, seed=0),
            tile_size=32,
            read_noise_sigma=0.01,
        )

        def analog_forward():
            with no_grad():
                analog(images)

        for step in (plain, stacked, analog_forward):
            assert cyclic_garbage(step) == 0, step.__name__


def _ops(x, w):
    """One output of every taped op family, from operands ``x`` and ``w``."""
    img = x.reshape(1, 1, 4, 4)
    kernel = w[:2, :2].reshape(1, 1, 2, 2)
    return [
        x + w, x - w, x * w, x / (w * w + 1.0), x**2, x @ w.T, x.exp(),
        x.tanh(), x.relu(), x.sum(axis=0), x.transpose(), x[1:],
        concatenate([x, w]),
        F.conv2d(img, kernel, w[0, :1]),
        F.conv2d(img, w.reshape(1, 1, 4, 4), w[1, :1], padding=1),
        F.avg_pool2d(img, 2), F.max_pool2d(img, 2),
        F.adaptive_avg_pool2d(img, (3, 3)), F.softmax(x), F.log_softmax(x),
        F.cross_entropy(x, np.array([0, 1, 2, 3])),
    ]


class TestNoTapeWithoutGrad:
    @staticmethod
    def _operands(requires_grad):
        rng = new_rng(0)
        x = Parameter(rng.normal(size=(4, 4)))
        w = Parameter(rng.normal(size=(4, 4)))
        if not requires_grad:
            x.freeze()
            w.freeze()
        return x, w

    @staticmethod
    def _assert_untaped(outputs):
        for out in outputs:
            assert out._backward is None
            assert out._parents == ()
            assert not out.requires_grad

    def test_no_grad_builds_no_tape(self):
        x, w = self._operands(requires_grad=True)
        with no_grad():
            self._assert_untaped(_ops(x, w))

    def test_frozen_operands_build_no_tape(self):
        self._assert_untaped(_ops(*self._operands(requires_grad=False)))

    def test_constant_operands_build_no_tape(self):
        rng = new_rng(0)
        x, w = Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=(4, 4)))
        self._assert_untaped(_ops(x, w))

    def test_grad_flow_builds_the_tape(self):
        for out in _ops(*self._operands(requires_grad=True)):
            assert out.requires_grad
            assert out._backward is not None
            assert out._parents

    def test_second_backward_on_a_retained_graph_accumulates(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x
        y.backward()
        y.backward()  # y.grad is 2 now: x.grad = 6 + 2 * 6
        assert x.grad == 18.0


class TestFrozenOperands:
    """Skipping a frozen operand's gradient product changes nothing else."""

    @staticmethod
    def _input_grad(op, x_data, params, frozen):
        x = Tensor(x_data, requires_grad=True)
        ps = [Parameter(p) for p in params]
        if frozen:
            for p in ps:
                p.freeze()
        (op(x, *ps) ** 2).sum().backward()
        return x.grad, [p.grad for p in ps]

    @pytest.mark.parametrize("kind", ["linear", "conv2d"])
    def test_input_gradient_is_byte_equal(self, kind):
        rng = new_rng(3)
        if kind == "linear":
            op, x = F.linear, rng.normal(size=(5, 6))
            params = [rng.normal(size=(4, 6)), rng.normal(size=4)]
        else:
            op, x = F.conv2d, rng.normal(size=(2, 3, 6, 6))
            params = [rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)]
        live, live_params = self._input_grad(op, x, params, frozen=False)
        frozen, frozen_params = self._input_grad(op, x, params, frozen=True)
        assert frozen.tobytes() == live.tobytes()
        assert all(g is not None for g in live_params)
        assert frozen_params == [None, None]


#: The first gradient write before it became one pass, kept verbatim.
def _old_first_write(data, grad):
    z = np.zeros_like(data, dtype=np.float64)
    z += grad
    return z


_SPECIALS = st.sampled_from([0.0, -0.0, np.inf, -np.inf])


def _signed(rng, shape, dtype=np.float64):
    """Normal entries with about a quarter of them -0.0."""
    a = rng.normal(size=shape)
    a[rng.random(shape) < 0.25] = -0.0
    return a.astype(dtype)


def _conv_case(draw, rng, dtype, c, k, padding):
    n, f = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    h = draw(st.integers(max(1, k - 2 * padding), 6))
    x = _signed(rng, (n, c, h, h), dtype)
    w = _signed(rng, (f, c, k, k), dtype)
    b = _signed(rng, (f,), dtype)
    return [x, w, b], lambda x, w, b: F.conv2d(x, w, b, padding=padding)


def _pool_case(draw, rng, dtype, pool, kernel, ragged=False):
    """A map the kernel tiles, or (``ragged``) one whose last row the
    windows skip, which takes the gather path."""
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h = kernel * draw(st.integers(1, 3)) + ragged
    x = _signed(rng, (n, c, h, h + kernel), dtype)
    return [x], lambda x: pool(x, kernel)


def _matmul_case(draw, rng, dtype, a_shape, b_shape):
    return [_signed(rng, a_shape, dtype), _signed(rng, b_shape, dtype)], Tensor.matmul


#: Each producer that hands a first gradient write a fresh array: a case
#: maker ``(draw, rng, dtype) -> (operand arrays, op)``, and the operands
#: (by position) whose first write adopts it.
_PRODUCERS = {
    # K = 18*3*3 = 162 > BATCHED_CONV_MAX_K: the receptive-field-row GEMM.
    "conv2d": (partial(_conv_case, c=18, k=3, padding=0), (0, 1)),
    "conv2d-small-k": (partial(_conv_case, c=2, k=3, padding=0), (0, 1)),
    # Padding crops the scatter to a view, which the write copies.
    "conv2d-padded": (partial(_conv_case, c=2, k=3, padding=1), (1,)),
    "avg_pool2d-tiled": (partial(_pool_case, pool=F.avg_pool2d, kernel=2), (0,)),
    "avg_pool2d-gather": (
        partial(_pool_case, pool=F.avg_pool2d, kernel=3, ragged=True), (0,)),
    "max_pool2d": (partial(_pool_case, pool=F.max_pool2d, kernel=2), (0,)),
    "matmul": (partial(_matmul_case, a_shape=(3, 4), b_shape=(4, 5)), (0, 1)),
    "matmul-broadcast": (partial(_matmul_case, a_shape=(2, 3, 4), b_shape=(4, 5)), (0, 1)),
    "matmul-vector-left": (partial(_matmul_case, a_shape=(4,), b_shape=(4, 5)), (0, 1)),
    "matmul-vector-right": (partial(_matmul_case, a_shape=(3, 4), b_shape=(4,)), (0, 1)),
}


@st.composite
def _layout_and_grad(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    data = draw(hnp.arrays(dtype, shape, elements=st.floats(-2, 2, width=32)))
    if draw(st.booleans()) and data.ndim >= 2:
        data = data.T  # a non-C-contiguous view: the buffer must keep its layout
    # A shape that broadcasts *to* data.shape: a trailing run of its axes,
    # each kept or squeezed to 1.
    kept = data.shape[data.ndim - draw(st.integers(0, data.ndim)):]
    grad_shape = tuple(draw(st.sampled_from([d, 1])) for d in kept)
    elements = st.one_of(st.floats(-1e3, 1e3, width=32), _SPECIALS)
    grad = draw(hnp.arrays(draw(st.sampled_from([np.float32, np.float64])),
                           grad_shape, elements=elements))
    return data, grad


class TestFirstGradientWrite:
    @settings(max_examples=60, deadline=None)
    @given(_layout_and_grad())
    def test_one_pass_write_is_byte_equal_to_zeros_plus_grad(self, case):
        data, grad = case
        t = Tensor(data, requires_grad=True)
        t._accumulate(grad)
        want = _old_first_write(data, grad)
        assert t.grad.dtype == np.float64
        assert t.grad.strides == want.strides
        assert t.grad.tobytes() == want.tobytes()
        # Every later write still accumulates in place.
        first = t.grad
        t._accumulate(grad)
        want += grad
        assert t.grad is first
        assert t.grad.tobytes() == want.tobytes()

    def test_backward_seed_is_a_fresh_buffer(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        seed = np.array([-0.0, 3.0])
        (x * 1.0).backward(seed)
        assert x.grad.tobytes() == _old_first_write(x.data, seed).tobytes()
        assert x.grad is not seed

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(_PRODUCERS)), st.sampled_from([np.float32, np.float64]),
           st.data())
    def test_adopted_first_writes_are_byte_equal_to_the_copy(self, name, dtype, data):
        """A fresh producer's first write adopts its array, and is byte-equal
        — values, dtype and strides — to the copying write, for an output
        gradient with -0.0 entries; later writes accumulate in place."""
        make, adopters = _PRODUCERS[name]
        seed = data.draw(st.integers(0, 2**16))
        operands, op = make(data.draw, np.random.default_rng(seed), dtype)
        rng = np.random.default_rng(seed + 1)

        def run(copying):
            buffers = []
            with pytest.MonkeyPatch.context() as mp:
                grad_buffer = tensor_module._grad_buffer
                accumulate = Tensor._accumulate

                def spy(grad, like):
                    buffers.append(grad_buffer(grad, like))
                    return buffers[-1]

                mp.setattr(tensor_module, "_grad_buffer", spy)
                if copying:
                    mp.setattr(Tensor, "_accumulate",
                               lambda t, grad, fresh=False: accumulate(t, grad))
                leaves = [Tensor(a, requires_grad=True) for a in operands]
                out = op(*leaves)
                # The closure itself, so -0.0 reaches the producer.
                out._backward(_signed(np.random.default_rng(seed + 2), out.shape))
            return leaves, buffers

        adopted, buffers = run(copying=False)
        copied, _ = run(copying=True)
        for i, (a, b) in enumerate(zip(adopted, copied)):
            assert a.grad.dtype == b.grad.dtype == np.float64
            assert a.grad.strides == b.grad.strides
            assert a.grad.tobytes() == b.grad.tobytes()
            assert any(a.grad is buf for buf in buffers) == (i not in adopters)
            first = a.grad
            for _ in range(2):  # a later write adds in place, fresh or not
                extra = _signed(rng, a.shape)
                a._accumulate(extra, fresh=True)
                b._accumulate(extra)
                assert a.grad is first
                assert a.grad.tobytes() == b.grad.tobytes()

    @pytest.mark.parametrize("op", ["relu", "mul"])
    def test_mask_products_keep_the_copy(self, op):
        """A product with a 0/1 mask can hold -0.0, which the first write
        turns into +0.0, so these producers never adopt."""
        x = Tensor(np.array([-2.0, -1.0, 0.5, 3.0]), requires_grad=True)
        out = {"relu": x.relu,
               "mul": lambda: x * np.array([0.0, 1.0, 0.0, 1.0])}[op]()
        gout = np.array([-1.0, -2.0, -3.0, -4.0])
        out._backward(gout)
        assert not (np.signbit(x.grad) & (x.grad == 0)).any()

    def test_a_non_contiguous_operand_takes_the_copy(self):
        """An adoptable array whose operand is laid out differently is
        copied into the operand's layout, as before."""
        data = np.zeros((4, 3)).T  # F-ordered (3, 4)
        t = Tensor(data, requires_grad=True)
        grad = np.arange(12.0).reshape(3, 4)
        t._accumulate(grad, fresh=True)
        assert t.grad is not grad
        assert t.grad.strides == _old_first_write(data, grad).strides
        assert t.grad.tobytes() == _old_first_write(data, grad).tobytes()

    def test_a_length_one_axis_must_keep_its_stride(self):
        """``flags.c_contiguous`` ignores a length-1 axis's stride; the
        buffer's layout does not, so such an array is copied."""
        data = np.zeros((1, 4))
        grad = np.ones((2, 4))[::2]  # C-contiguous, but axis-0 stride 64
        assert grad.flags.c_contiguous and grad.strides == (64, 8)
        t = Tensor(data, requires_grad=True)
        t._accumulate(grad, fresh=True)
        assert t.grad is not grad
        assert t.grad.strides == _old_first_write(data, grad).strides
