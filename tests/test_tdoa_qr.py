"""The closed-form QR Gauss-Newton step of the TDoA solver against LAPACK's SVD and least squares."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavtrack import tdoa
from uavtrack.tdoa import SensorArray

COLLINEAR = SensorArray(np.array([[0.0, 0], [100, 0], [200, 0]]))


def _jacobians(rng, kind, n, m):
    """(N, m, 2) Jacobians and their 2-norm condition numbers (inf where singular)."""
    J = rng.normal(size=(n, m, 2))
    if kind == "zero_row":
        J[:, rng.integers(m)] = 0.0
    elif kind == "collinear":  # every row a multiple of one direction
        J = rng.normal(size=(n, m, 1)) * rng.normal(size=(n, 1, 2))
    elif kind == "conditioned":  # singular values 10^a and 10^(a - b), b in [0, 3]
        s = 10.0 ** rng.uniform(-1.0, 0.5, n)
        s = np.stack([s, s * 10.0 ** -rng.uniform(0.0, 3.0, n)], axis=1)
        U = np.linalg.qr(rng.normal(size=(n, m, 2)))[0]
        V = np.linalg.qr(rng.normal(size=(n, 2, 2)))[0]
        J = U @ (s[:, :, None] * V)
    sv = np.linalg.svd(J, compute_uv=False)
    with np.errstate(divide="ignore"):
        return J, sv[:, 0] / sv[:, -1]


@settings(deadline=None, max_examples=300)
@given(
    kind=st.sampled_from(["random", "zero_row", "collinear", "conditioned"]),
    n=st.integers(1, 12),
    m=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_qr_step_matches_svd_and_lstsq(kind, n, m, seed):
    rng = np.random.default_rng(seed)
    J, cond = _jacobians(rng, kind, n, m)
    r = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))

    full_rank, step, decrease = tdoa._qr_step(J[..., 0].T, J[..., 1].T, r.T)

    U, sv, _ = np.linalg.svd(J, full_matrices=False)
    assert np.array_equal(full_rank, sv[:, -1] >= 1e-9 * np.maximum(sv[:, 0], 1.0))
    if kind == "collinear" or (kind == "zero_row" and m == 2):
        assert not full_rank.any()
    g = np.einsum("nmk,nm->nk", U, r)[full_rank]  # U^T r
    want = np.array([np.linalg.lstsq(Ji, -ri, rcond=None)[0] for Ji, ri in zip(J[full_rank], r[full_rank])])
    assert step.shape == (2, int(full_rank.sum())) and decrease.shape == (int(full_rank.sum()),)
    for got, w, d, gi, c in zip(step.T, want, decrease, g, cond[full_rank]):
        assert np.abs(got - w).max() <= 1e-9 * np.abs(w).max()
        # both sides carry rounding of about cond * eps relative; 1e-12 holds
        # up to a condition number of 10
        assert abs(d - gi @ gi) <= 1e-12 * max(1.0, c / 10.0) * (gi @ gi)


def test_collinear_array_is_rank_deficient_on_its_line():
    # on the line of a collinear array every row of J lies along the line
    sensors, ref = COLLINEAR.positions[1:], COLLINEAR.positions[0]
    # (2, N) points on the line, the last on a sensor
    p = np.array([[50.0, 150.0, -30.0, 260.0, 100.0], [0.0, 0.0, 0.0, 0.0, 0.0]])
    r, d, d_ref = tdoa._range_residuals(sensors, ref, np.zeros((2, 5)), p)
    full_rank, step, _ = tdoa._qr_step(*tdoa._jacobian(sensors, ref, p, d, d_ref), r)
    assert not full_rank.any() and step.shape == (2, 0)
    # off the line the same array gives a full-rank Jacobian
    q = p + np.array([[0.0], [25.0]])
    r, d, d_ref = tdoa._range_residuals(sensors, ref, np.zeros((2, 5)), q)
    assert tdoa._qr_step(*tdoa._jacobian(sensors, ref, q, d, d_ref), r)[0].all()


def test_jacobian_at_a_sensor():
    # on a sensor its unit vector is zero, so its row is u_ref alone
    arr = SensorArray(np.array([[-200.0, -200], [200, -200], [-200, 200], [200, 200]]))
    sensors, ref = arr.positions[1:], arr.positions[0]
    p = sensors[[0]].T.copy()
    _, d, d_ref = tdoa._range_residuals(sensors, ref, np.zeros((3, 1)), p)
    jx, jy = tdoa._jacobian(sensors, ref, p, d, d_ref)
    assert (jx[0, 0], jy[0, 0]) == (1.0, 0.0)
    full_rank, step, _ = tdoa._qr_step(jx, jy, np.ones((3, 1)))
    assert full_rank.all()
    J = np.stack([jx[:, 0], jy[:, 0]], axis=1)
    assert np.allclose(step[:, 0], np.linalg.lstsq(J, -np.ones(3), rcond=None)[0], rtol=1e-12, atol=1e-12)


class _NoLinalg:
    def __getattr__(self, name):
        raise AssertionError(f"np.linalg.{name} called")


def test_solver_calls_no_linalg_routine(monkeypatch):
    arr = SensorArray(np.array([[-200.0, -200], [200, -200], [-200, 200], [200, 200]]))
    rng = np.random.default_rng(0)
    targets = rng.uniform(-400, 400, (50, 2))
    idx, dt = tdoa._arrival_differences(arr, targets, rng.normal(0.0, 3.3e-9, (50, 3)))
    rd = tdoa.SPEED_OF_LIGHT * dt
    starts = tdoa._starts(arr, np.tile(arr.positions.mean(axis=0), (len(rd), 1)))
    args = (arr.positions[idx], arr.positions[arr.reference_idx], rd, starts)
    want = tdoa._solve_batch(*args)
    monkeypatch.setattr(np, "linalg", _NoLinalg())
    got = tdoa._solve_batch(*args)
    monkeypatch.undo()
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.all(want[3] >= 0) and want[2].all()


@pytest.mark.parametrize("m", [2, 3, 5])
def test_exact_singular_values(m):
    # a Jacobian with known singular values: the rank test sits on them
    rng = np.random.default_rng(m)
    U = np.linalg.qr(rng.normal(size=(m, 2)))[0]
    for s_min, expect in ((1e-9 * 2.0 * 1.001, True), (1e-9 * 2.0 * 0.999, False)):
        J = U @ np.diag([2.0, s_min])
        full_rank, _, _ = tdoa._qr_step(J[:, :1].copy(), J[:, 1:].copy(), np.ones((m, 1)))
        assert full_rank[0] == expect
