"""Aggregation AMG: shift-independent aggregates and a symmetric V-cycle."""

import numpy as np
import pytest

from ratexpint.amg import AmgPreconditioner, build_aggregates
from ratexpint.problems import allen_cahn_2d, fd_laplacian_2d
from ratexpint.solvers import shifted_matrix


@pytest.mark.parametrize("make_op", [lambda: fd_laplacian_2d(48, 1.0, "neumann"),
                                     lambda: allen_cahn_2d(128).A],
                         ids=["fd2d-48", "ac2d-128"])
@pytest.mark.parametrize("pole,scale", [(3.0, 0.25), (2.0 + 5.0j, 0.5)])
def test_aggregates_ignore_shift_and_scale(make_op, pole, scale):
    op = make_op()
    plain = build_aggregates(op.tocsr())
    shifted = build_aggregates(shifted_matrix(op, pole, scale))
    assert len(plain) >= 1
    assert len(shifted) == len(plain)
    for a, b in zip(plain, shifted):
        assert np.array_equal(a, b)


def test_vcycle_is_symmetric_for_real_shift():
    # CG relies on a symmetric preconditioner
    op = fd_laplacian_2d(48, 1.0, "neumann")
    amg = AmgPreconditioner(shifted_matrix(op, 2.0, 0.25), build_aggregates(op.tocsr()))
    rng = np.random.default_rng(12)
    v, w = rng.standard_normal(op.n), rng.standard_normal(op.n)
    mv, mw = amg.matvec(v), amg.matvec(w)
    assert abs(v @ mw - w @ mv) <= 1e-12 * np.linalg.norm(v) * np.linalg.norm(mw)
