import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavtrack.motionmodels import (
    _SMALL_TURN,
    LAYOUT,
    ModelError,
    ModelKind,
    NoiseSigmas,
    noise_rows,
    process_noise_rows,
    propagate_rows,
    sigma_rows,
    state_mask,
)

ALL_MODELS = list(ModelKind)


def _propagate(mm, s, T):
    """(B, n) states ``s`` of model ``mm`` over steps ``T`` (B,) by :func:`propagate_rows` on the
    common layout, and their (B, n, n) Jacobians: the model's rows and columns of its results."""
    s, T, c = np.asarray(s, dtype=float), np.asarray(T, dtype=float), mm.columns
    rows = np.zeros((len(LAYOUT), len(s)))
    rows[c] = s.T
    f, F = propagate_rows(rows, T, np.full(len(T), mm is ModelKind.CT))
    return f[c].T, F[:, c[:, None], c]


def _transition(mm, s, T):
    return _propagate(mm, [s], [T])[0][0]


def _jacobian(mm, s, T):
    return _propagate(mm, [s], [T])[1][0]


def _process_noise(mm, T, sig):
    """Model ``mm``'s (n, n) block of :func:`process_noise_rows` over one step ``T``."""
    c = mm.columns
    return process_noise_rows(np.array([T]), noise_rows(sigma_rows([sig]), state_mask([mm])))[0][c[:, None], c]


def _random_state(mm, rng):
    s = rng.normal(0, 10, mm.state_dim)
    if mm is ModelKind.CT:
        s[4] = rng.uniform(-1.0, 1.0)
    return s


def _fd_jacobian(mm, s, T, h=1e-6):
    n = mm.state_dim
    J = np.empty((n, n))
    for j in range(n):
        hi, lo = np.array(s, float), np.array(s, float)
        hi[j] += h
        lo[j] -= h
        J[:, j] = (_transition(mm, hi, T) - _transition(mm, lo, T)) / (2 * h)
    return J


class TestTransition:
    def test_cv(self):
        out = _transition(ModelKind.CV, [0, 0, 1, 2], 1.5)
        assert np.allclose(out, [1.5, 3, 1, 2])

    def test_ca(self):
        out = _transition(ModelKind.CA, [0, 0, 1, 0, 2, 0], 2.0)
        assert np.allclose(out, [6, 0, 5, 0, 2, 0])

    def test_ct_quarter_turn(self):
        # frozen from an RK4 integration of circular motion at omega = pi/2
        out = _transition(ModelKind.CT, [0, 0, 1, 0, math.pi / 2], 1.0)
        assert np.allclose(out, [2 / math.pi, 2 / math.pi, 0, 1, math.pi / 2], atol=1e-12)

    @pytest.mark.parametrize("mm", ALL_MODELS)
    def test_semigroup(self, mm):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = _random_state(mm, rng)
            one = _transition(mm, _transition(mm, s, 0.4), 0.6)
            both = _transition(mm, s, 1.0)
            assert np.allclose(one, both, rtol=1e-9, atol=1e-9)

    def test_ct_small_omega_matches_cv(self):
        s = [1.0, 2.0, 3.0, -4.0, 1e-12]
        out = _transition(ModelKind.CT, s, 1.0)
        cv = _transition(ModelKind.CV, [1.0, 2.0, 3.0, -4.0], 1.0)
        assert np.allclose(out[:4], cv, atol=1e-6)

    def test_ct_preserves_speed(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = _random_state(ModelKind.CT, rng)
            out = _transition(ModelKind.CT, s, 1.7)
            assert math.hypot(out[2], out[3]) == pytest.approx(math.hypot(s[2], s[3]), abs=1e-9)


class TestJacobian:
    def test_cv_is_transition_matrix(self):
        J = _jacobian(ModelKind.CV, [5, 6, 7, 8], 2.0)
        assert np.allclose(J, [[1, 0, 2, 0], [0, 1, 0, 2], [0, 0, 1, 0], [0, 0, 0, 1]])

    def test_ct_at_zero_omega_embeds_cv(self):
        J = _jacobian(ModelKind.CT, [0, 0, 1, 0, 1e-12], 1.0)
        assert np.allclose(J[:4, :4], _jacobian(ModelKind.CV, [0, 0, 1, 0], 1.0), atol=1e-6)

    def test_ct_matches_finite_differences_at_quarter_turn(self):
        s = [0, 0, 1, 0, math.pi / 2]
        J = _jacobian(ModelKind.CT, s, 1.0)
        fd = _fd_jacobian(ModelKind.CT, s, 1.0)
        assert np.allclose(J, fd, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("mm", ALL_MODELS)
    def test_matches_finite_differences_random(self, mm):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = _random_state(mm, rng)
            T = rng.uniform(0.1, 2.0)
            J = _jacobian(mm, s, T)
            fd = _fd_jacobian(mm, s, T)
            assert np.allclose(J, fd, rtol=1e-5, atol=1e-5)


@settings(deadline=None, max_examples=300)
@given(
    T=st.floats(0.05, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ct_continuous_across_small_turn_switch(T, sign, seed):
    rng = np.random.default_rng(seed)
    s = rng.normal(0, 10, 5)
    below, above, zero = s.copy(), s.copy(), s.copy()
    below[4] = sign * _SMALL_TURN * (1 - 1e-9) / T  # Taylor series
    above[4] = sign * _SMALL_TURN * (1 + 1e-9) / T  # closed form
    zero[4] = 0.0
    assert abs(below[4] * T) < _SMALL_TURN <= abs(above[4] * T)

    for fn in (_transition, _jacobian):
        lo, hi = fn(ModelKind.CT, below, T), fn(ModelKind.CT, above, T)
        assert np.allclose(lo, hi, rtol=1e-9, atol=1e-9 * np.abs(hi).max())

    # each row of a batch is the scalar form, bit for bit
    batch = np.vstack([below, above, zero, rng.normal(0, 10, (5, 5))])
    steps = np.r_[T, T, T, rng.uniform(0.05, 3.0, 5)]
    f, J = _propagate(ModelKind.CT, batch, steps)
    for row, dt, f_row, J_row in zip(batch, steps, f, J):
        assert np.array_equal(f_row, _transition(ModelKind.CT, row, dt))
        assert np.array_equal(J_row, _jacobian(ModelKind.CT, row, dt))

    # omega -> 0 is the CV step; at the switch CT is within first order of it
    cv = _transition(ModelKind.CV, s[:4], T)
    assert np.allclose(_transition(ModelKind.CT, zero, T)[:4], cv, rtol=1e-12, atol=1e-12 * np.abs(cv).max())
    assert np.array_equal(_jacobian(ModelKind.CT, zero, T)[:4, :4], _jacobian(ModelKind.CV, s[:4], T))
    speed = np.hypot(s[2], s[3])
    for state in (below, above):
        assert np.abs(_transition(ModelKind.CT, state, T)[:4] - cv).max() <= 2 * _SMALL_TURN * speed * max(T, 1.0)


@settings(deadline=None, max_examples=200)
@given(mm=st.sampled_from(ALL_MODELS), small_turn=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_states_closed_form_is_the_transition(mm, small_turn, seed):
    rng = np.random.default_rng(seed)
    B = 64
    s = rng.normal(0, 1, (B, mm.state_dim)) * 10.0 ** rng.uniform(-3, 4, (B, mm.state_dim))
    T = rng.uniform(1e-3, 10.0, B)
    if mm is ModelKind.CT:
        # |omega T| below the Taylor switch on every row, or spread across it
        s[:, 4] = rng.uniform(-1, 1, B) * (_SMALL_TURN / T if small_turn else 1.0)
    states, J = _propagate(mm, s, T)
    if mm is not ModelKind.CT:
        # the per-axis chain [[1, T, T^2/2], [0, 1, T], [0, 0, 1]] on the
        # interleaved layout [x, y, vx, vy, (ax, ay)]
        d = mm.state_dim
        F = np.eye(d) + T[:, None, None] * np.eye(d, k=2) + (0.5 * T * T)[:, None, None] * np.eye(d, k=4)
        assert np.array_equal(J, F)
        # F @ s sums the same three terms (bit for bit with numpy 2.4's
        # matmul on x86-64), but a BLAS may fuse or reorder them, so the
        # bound is that of a 3-term sum
        terms = (np.abs(F) @ np.abs(s)[:, :, None])[:, :, 0]
        assert np.all(np.abs(states - (F @ s[:, :, None])[:, :, 0]) <= 2.0**-50 * terms)


class TestProcessNoise:
    @pytest.mark.parametrize("mm", ALL_MODELS)
    def test_zero_sigmas_give_zero(self, mm):
        assert np.all(_process_noise(mm, 1.0, NoiseSigmas()) == 0)

    def test_cv_entries(self):
        Q = _process_noise(ModelKind.CV, 1.0, NoiseSigmas(accel=1.0))
        assert Q[0, 0] == pytest.approx(0.25)
        assert Q[2, 2] == pytest.approx(1.0)
        assert Q[0, 2] == pytest.approx(0.5)
        assert Q[0, 1] == 0.0  # no cross-axis coupling

    def test_ct_turn_rate_entry(self):
        Q = _process_noise(ModelKind.CT, 2.0, NoiseSigmas(accel=0.0, omega=0.3))
        assert Q[4, 4] == pytest.approx(0.3**2 * 4.0)

    @pytest.mark.parametrize("mm", ALL_MODELS)
    def test_symmetric_psd(self, mm):
        rng = np.random.default_rng(5)
        for _ in range(50):
            T = rng.uniform(1e-3, 5.0)
            sig = NoiseSigmas(
                accel=rng.uniform(0, 10), jerk=rng.uniform(0, 10), omega=rng.uniform(0, 10)
            )
            Q = _process_noise(mm, T, sig)
            assert np.allclose(Q, Q.T, atol=1e-12)
            # eigenvalue tolerance relative to matrix scale (entries reach
            # ~1e4 at sigma=10, T=5, where eigensolver noise exceeds 1e-12)
            scale = max(1.0, float(np.linalg.norm(Q, 2)))
            assert np.linalg.eigvalsh(Q).min() >= -1e-12 * scale

    def test_negative_sigma_rejected(self):
        with pytest.raises(ModelError):
            NoiseSigmas(accel=-1.0)


# CV/CA transition matrices and CV/CA/CT process-noise matrices, entry by
# entry, for sigmas accel=0.3, jerk=0.7, omega=0.05. Each value is the
# float the construction Q = sigma^2 * g g^T (g = [T^2/2, T] or
# [T^2/2, T, 1] per axis, axes interleaved [x, y, vx, vy, (ax, ay)])
# rounds to, so the comparison below is exact.
FROZEN_SIGMAS = NoiseSigmas(accel=0.3, jerk=0.7, omega=0.05)
FROZEN = {
    0.1: {
        "F_CV": [
            [1.0, 0, 0.1, 0],
            [0, 1.0, 0, 0.1],
            [0, 0, 1.0, 0],
            [0, 0, 0, 1.0],
        ],
        "F_CA": [
            [1.0, 0, 0.1, 0, 0.005000000000000001, 0],
            [0, 1.0, 0, 0.1, 0, 0.005000000000000001],
            [0, 0, 1.0, 0, 0.1, 0],
            [0, 0, 0, 1.0, 0, 0.1],
            [0, 0, 0, 0, 1.0, 0],
            [0, 0, 0, 0, 0, 1.0],
        ],
        "Q_CV": [
            [2.250000000000001e-06, 0, 4.500000000000001e-05, 0],
            [0, 2.250000000000001e-06, 0, 4.500000000000001e-05],
            [4.500000000000001e-05, 0, 0.0009000000000000002, 0],
            [0, 4.500000000000001e-05, 0, 0.0009000000000000002],
        ],
        "Q_CA": [
            [1.2250000000000005e-05, 0, 0.00024500000000000005, 0, 0.0024500000000000004, 0],
            [0, 1.2250000000000005e-05, 0, 0.00024500000000000005, 0, 0.0024500000000000004],
            [0.00024500000000000005, 0, 0.004900000000000001, 0, 0.048999999999999995, 0],
            [0, 0.00024500000000000005, 0, 0.004900000000000001, 0, 0.048999999999999995],
            [0.0024500000000000004, 0, 0.048999999999999995, 0, 0.48999999999999994, 0],
            [0, 0.0024500000000000004, 0, 0.048999999999999995, 0, 0.48999999999999994],
        ],
        "Q_CT": [
            [2.250000000000001e-06, 0, 4.500000000000001e-05, 0, 0],
            [0, 2.250000000000001e-06, 0, 4.500000000000001e-05, 0],
            [4.500000000000001e-05, 0, 0.0009000000000000002, 0, 0],
            [0, 4.500000000000001e-05, 0, 0.0009000000000000002, 0],
            [0, 0, 0, 0, 2.5000000000000008e-05],
        ],
    },
    1.0: {
        "F_CV": [
            [1.0, 0, 1.0, 0],
            [0, 1.0, 0, 1.0],
            [0, 0, 1.0, 0],
            [0, 0, 0, 1.0],
        ],
        "F_CA": [
            [1.0, 0, 1.0, 0, 0.5, 0],
            [0, 1.0, 0, 1.0, 0, 0.5],
            [0, 0, 1.0, 0, 1.0, 0],
            [0, 0, 0, 1.0, 0, 1.0],
            [0, 0, 0, 0, 1.0, 0],
            [0, 0, 0, 0, 0, 1.0],
        ],
        "Q_CV": [
            [0.0225, 0, 0.045, 0],
            [0, 0.0225, 0, 0.045],
            [0.045, 0, 0.09, 0],
            [0, 0.045, 0, 0.09],
        ],
        "Q_CA": [
            [0.12249999999999998, 0, 0.24499999999999997, 0, 0.24499999999999997, 0],
            [0, 0.12249999999999998, 0, 0.24499999999999997, 0, 0.24499999999999997],
            [0.24499999999999997, 0, 0.48999999999999994, 0, 0.48999999999999994, 0],
            [0, 0.24499999999999997, 0, 0.48999999999999994, 0, 0.48999999999999994],
            [0.24499999999999997, 0, 0.48999999999999994, 0, 0.48999999999999994, 0],
            [0, 0.24499999999999997, 0, 0.48999999999999994, 0, 0.48999999999999994],
        ],
        "Q_CT": [
            [0.0225, 0, 0.045, 0, 0],
            [0, 0.0225, 0, 0.045, 0],
            [0.045, 0, 0.09, 0, 0],
            [0, 0.045, 0, 0.09, 0],
            [0, 0, 0, 0, 0.0025000000000000005],
        ],
    },
    2.5: {
        "F_CV": [
            [1.0, 0, 2.5, 0],
            [0, 1.0, 0, 2.5],
            [0, 0, 1.0, 0],
            [0, 0, 0, 1.0],
        ],
        "F_CA": [
            [1.0, 0, 2.5, 0, 3.125, 0],
            [0, 1.0, 0, 2.5, 0, 3.125],
            [0, 0, 1.0, 0, 2.5, 0],
            [0, 0, 0, 1.0, 0, 2.5],
            [0, 0, 0, 0, 1.0, 0],
            [0, 0, 0, 0, 0, 1.0],
        ],
        "Q_CV": [
            [0.87890625, 0, 0.703125, 0],
            [0, 0.87890625, 0, 0.703125],
            [0.703125, 0, 0.5625, 0],
            [0, 0.703125, 0, 0.5625],
        ],
        "Q_CA": [
            [4.785156249999999, 0, 3.8281249999999996, 0, 1.5312499999999998, 0],
            [0, 4.785156249999999, 0, 3.8281249999999996, 0, 1.5312499999999998],
            [3.8281249999999996, 0, 3.0624999999999996, 0, 1.2249999999999999, 0],
            [0, 3.8281249999999996, 0, 3.0624999999999996, 0, 1.2249999999999999],
            [1.5312499999999998, 0, 1.2249999999999999, 0, 0.48999999999999994, 0],
            [0, 1.5312499999999998, 0, 1.2249999999999999, 0, 0.48999999999999994],
        ],
        "Q_CT": [
            [0.87890625, 0, 0.703125, 0, 0],
            [0, 0.87890625, 0, 0.703125, 0],
            [0.703125, 0, 0.5625, 0, 0],
            [0, 0.703125, 0, 0.5625, 0],
            [0, 0, 0, 0, 0.015625000000000003],
        ],
    },
}


class TestFrozenMatrices:
    @pytest.mark.parametrize("T", sorted(FROZEN))
    @pytest.mark.parametrize("mm", [ModelKind.CV, ModelKind.CA])
    def test_transition_matrix(self, mm, T):
        rng = np.random.default_rng(2)
        F = _jacobian(mm, rng.normal(0, 10, mm.state_dim), T)
        assert F.dtype == float
        assert np.array_equal(F, FROZEN[T][f"F_{mm.value}"])

    @pytest.mark.parametrize("T", sorted(FROZEN))
    @pytest.mark.parametrize("mm", ALL_MODELS)
    def test_process_noise(self, mm, T):
        Q = _process_noise(mm, T, FROZEN_SIGMAS)
        assert Q.dtype == float
        assert np.array_equal(Q, FROZEN[T][f"Q_{mm.value}"])
