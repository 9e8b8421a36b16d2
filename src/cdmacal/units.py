"""Decibel and linear-scale conversions used throughout the package."""
import numpy as np


def db_to_linear(x_db):
    """Convert a power ratio from dB to linear scale. -inf dB maps to 0."""
    x_db = np.asarray(x_db, dtype=float)
    out = np.where(np.isneginf(x_db), 0.0, 10.0 ** (x_db / 10.0))
    return out if out.ndim else float(out)
