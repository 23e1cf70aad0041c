"""Brute-force oracles the tests hold jumplab to; nothing in src/jumplab
calls them."""

import math

import numpy as np

from jumplab import harnack as H


def caloric_box_ratio(fld, box) -> float:
    """sup_{Q-} u / inf_{Q+} u for a caloric field on the box's grid: 0 if
    the sup is not positive, inf if the inf is below FLOOR."""
    half = fld.fm.ball_slots(box.x0, box.R / 2)
    sup = fld.values[np.ix_(list(box.minus_steps()), half)].max()
    inf = fld.values[np.ix_(list(box.plus_steps()), half)].min()
    if not sup > 0.0:
        return 0.0
    return math.inf if inf < H.FLOOR else float(sup / inf)


def harmonic_partition_residual(model, x0, R) -> float:
    """max_x |sum_w h_w(x) + h_rem(x) - 1| over B(x0,R): the harmonic
    generators of data == 1 must sum to the constant function."""
    h = H._ehi_once(model, x0, R, H.LAM_EXT)[3]
    return float(np.abs(h.sum(axis=1) - 1.0).max())
