"""Optimizers: convergence, state handling, frozen-parameter skipping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.module import Parameter
from repro.optim import Adam, CosineSchedule, clip_grad_norm


def _quadratic_step(param):
    """Gradient of f(w) = 0.5 ||w - 3||^2."""
    param.grad = param.data - 3.0


def _optimize(opt_cls, steps=300, **kwargs):
    p = Parameter(np.zeros(4))
    opt = opt_cls([p], **kwargs)
    for _ in range(steps):
        opt.zero_grad()
        _quadratic_step(p)
        opt.step()
    return p


class TestAdam:
    def test_converges_on_quadratic(self):
        p = _optimize(Adam, lr=0.05)
        np.testing.assert_allclose(p.data, np.full(4, 3.0), atol=1e-3)

    def test_bias_correction_first_step(self):
        # After one step with unit gradient the update is exactly lr.
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=0.1)
        p.grad = np.ones(1)
        opt.step()
        assert p.data[0] == pytest.approx(-0.1, rel=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple),
        steps=st.integers(1, 6),
        lr=st.floats(1e-4, 0.5),
        beta1=st.floats(0.0, 0.99),
        beta2=st.floats(0.5, 0.9999),
        weight_decay=st.sampled_from([0.0, 1e-4, 0.1]),
        seed=st.integers(0, 2**16),
    )
    def test_trajectory_is_byte_equal_to_the_textbook_step(
        self, shape, steps, lr, beta1, beta2, weight_decay, seed
    ):
        rng = np.random.default_rng(seed)
        p = Parameter(rng.normal(size=shape))
        opt = Adam([p], lr=lr, betas=(beta1, beta2), weight_decay=weight_decay)
        # The pre-in-place step, kept verbatim on plain arrays.
        data, m, v = p.data, np.zeros_like(p.data), np.zeros_like(p.data)
        for t in range(1, steps + 1):
            grad = rng.normal(size=shape)
            before = p.data
            snapshot = before.copy()
            p.grad = grad
            opt.step()
            assert before.tobytes() == snapshot.tobytes()  # rebound, not written

            if weight_decay:
                grad = grad + weight_decay * data
            m = beta1 * m + (1 - beta1) * grad
            v = beta2 * v + (1 - beta2) * grad**2
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            data = data - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert p.data.tobytes() == data.tobytes()


class TestCommon:
    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_nonpositive_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_frozen_params_skipped(self):
        p = Parameter(np.zeros(2))
        p.freeze()
        p.grad = np.ones(2)  # grad present but frozen
        opt = Adam([p], lr=1.0)
        opt.step()
        np.testing.assert_allclose(p.data, np.zeros(2))

    def test_none_grad_skipped(self):
        p = Parameter(np.zeros(2))
        Adam([p], lr=1.0).step()  # must not raise
        np.testing.assert_allclose(p.data, np.zeros(2))


class TestClipGradNorm:
    def test_clips_to_max(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        pre = clip_grad_norm([p], max_norm=1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_no_clip_below_max(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.1)
        clip_grad_norm([p], max_norm=10.0)
        np.testing.assert_allclose(p.grad, np.full(4, 0.1))


class TestSchedulers:
    def _opt(self):
        return Adam([Parameter(np.zeros(1))], lr=1.0)

    def test_cosine_endpoints(self):
        opt = self._opt()
        sched = CosineSchedule(opt, total_epochs=10, min_lr=0.0)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(0.0, abs=1e-12)

    def test_cosine_monotone_decreasing(self):
        opt = self._opt()
        sched = CosineSchedule(opt, total_epochs=8)
        lrs = [sched.step() for _ in range(8)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            CosineSchedule(self._opt(), total_epochs=0)
