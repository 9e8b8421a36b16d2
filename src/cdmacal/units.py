"""Decibel and linear-scale conversions used throughout the package."""
import numpy as np


def db_to_linear(x_db):
    """Convert a power ratio from dB to linear scale. -inf dB maps to 0."""
    # a float short of overflow skips NumPy, whose array power can differ by an ulp
    if isinstance(x_db, float) and x_db < 3000.0:
        return 10.0 ** (float(x_db) / 10.0)
    out = 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)
    return out if out.ndim else float(out)
