"""Dense reference form of the mixture statistic, for the tests only."""
import numpy as np


def dense_selection_matrix(y, g: int):
    """The (g + p g) x g matrix [I_g ; I_g kron y]: times the responsibility
    vector of y, it gives y's statistic row."""
    p = y.size
    top = np.eye(g)
    bottom = np.kron(np.eye(g), y.reshape(p, 1))
    return np.vstack([top, bottom])
