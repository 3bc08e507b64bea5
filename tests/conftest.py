import pytest

from invdeg.poly import xvar, yvar


@pytest.fixture
def pair_assignment():
    """X[i,j] -> m[i][j] and Y[i,j] -> y[i][j] on the upper triangle: the
    point (m, y) as an assignment for ``SparsePoly.substitute``."""

    def assign(m, y):
        n = len(m)
        out = {}
        for i in range(n):
            for j in range(i, n):
                out[xvar(i + 1, j + 1)] = m[i][j]
                out[yvar(i + 1, j + 1)] = y[i][j]
        return out

    return assign
