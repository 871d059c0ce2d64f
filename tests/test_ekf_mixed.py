"""The EKF sweep on batches that mix CV, CA and CT segments."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavtrack import ekf
from uavtrack.dataio import Segment
from uavtrack.ekf import FilterConfig
from uavtrack.motionmodels import ModelKind, NoiseSigmas


def _mixed_flight(rng, lengths):
    """Fixes at jittered times over consecutive slices of ``lengths`` rows."""
    t = np.cumsum(rng.integers(100, 2000, sum(lengths))).astype(np.int64)
    z = np.cumsum(rng.normal(0, 5, (sum(lengths), 2)), axis=0)
    edges = np.concatenate([[0], np.cumsum(lengths)])
    return t, z, [slice(a, b) for a, b in zip(edges, edges[1:])]


@settings(deadline=None, max_examples=100)
@given(
    lengths=st.lists(st.integers(2, 40), min_size=3, max_size=9),
    seed=st.integers(0, 2**32 - 1),
)
def test_segment_alone_equals_segment_inside_mixed_batch(lengths, seed):
    # every batch holds CV, CA and CT segments, which share one padded state layout
    rng = np.random.default_rng(seed)
    t, z, slices = _mixed_flight(rng, lengths)
    models = [list(ModelKind)[i % 3] for i in range(len(lengths))]
    rng.shuffle(models)
    segs = [
        Segment(f"S{i}", sl.start, sl.stop - 1, mm,
                NoiseSigmas(*rng.uniform(0.01, 1.0, 2), omega=rng.uniform(1e-3, 0.1)))
        for i, (sl, mm) in enumerate(zip(slices, models))
    ]
    cfg = FilterConfig(R=np.diag(rng.uniform(1, 50, 2)), omega_var=0.01)

    batch = ekf._run_batch(segs, t, z, slices, cfg)
    for seg, sl, (states, covs) in zip(segs, slices, batch):
        alone_s, alone_P = ekf._run_batch([seg], t, z, [sl], cfg)[0]
        assert states.shape == (sl.stop - sl.start, seg.mm.state_dim)
        assert covs.shape == (sl.stop - sl.start, seg.mm.state_dim, seg.mm.state_dim)
        assert np.array_equal(states, alone_s) and np.array_equal(covs, alone_P)


@pytest.mark.parametrize("mm", list(ModelKind))
@pytest.mark.parametrize("failure", ["repeated", "singular"])
def test_failed_segment_leaves_neighbours_of_other_models_bit_identical(mm, failure):
    # the failed segment is the longest, so it steps on to its end beside a
    # neighbour of every model
    rng = np.random.default_rng(7)
    t, z, slices = _mixed_flight(rng, [30, 12, 20, 8])
    models = [mm, *ModelKind]
    sigmas = [NoiseSigmas(0.3, 0.1, omega=0.02)] * 4
    cfg = FilterConfig(R=np.diag([9.0, 16.0]))
    if failure == "repeated":
        t[3] = t[2]
        message = f"non-increasing timestamps at {t[3]}"
    else:
        # a zero prior and no process noise: S = 0 at the first step
        sigmas[0] = NoiseSigmas()
        cfg = FilterConfig(R=np.zeros((2, 2)), v_max=0.0, accel_var=0.0, omega_var=0.0)
        message = f"singular innovation covariance: {np.zeros((2, 2))}"
    segs = [Segment(f"S{i}", sl.start, sl.stop - 1, m, sig)
            for i, (sl, m, sig) in enumerate(zip(slices, models, sigmas))]

    failed, *batch = ekf._run_batch(segs, t, z, slices, cfg)
    assert isinstance(failed, ekf.FilterError) and str(failed) == message
    for got, want in zip(batch, ekf._run_batch(segs[1:], t, z, slices[1:], cfg)):
        assert np.isfinite(got[0]).all()
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
