import numpy as np
import pytest

import fluoinv as fv
from fluoinv.presets import example2_problem, smooth_source
from fluoinv.verify import run_battery

from conftest import stacked_levels


@pytest.mark.parametrize("flip_boundary, tau", [(False, 0.1), (True, 0.1), (False, 1.0)],
                         ids=["default", "flipped", "one-step"])
def test_streamed_reductions_match_the_stacked_levels(flip_boundary, tau):
    # the battery reduces the coupled march level by level; its values are
    # the min and max over the stacked levels, the zero level 0 included
    # (one step has no second time difference)
    results = {r.name: r for r in run_battery(grid_cells=16, tau=tau,
                                              flip_boundary=flip_boundary)}
    grid = fv.Grid(2, 16)
    data = example2_problem(grid, tau=tau, flip_boundary=flip_boundary)
    u_e, u_m = stacked_levels(data, smooth_source(grid))
    dt = np.diff(u_e, axis=0) / data.tau
    d2t = np.diff(dt, axis=0) / data.tau
    assert results["field-positivity"].value == min(u_e.min(), u_m.min())
    assert results["derivative-bounds"].value == np.concatenate([u_e, dt, d2t]).max()
