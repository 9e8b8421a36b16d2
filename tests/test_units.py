import math

import numpy as np
import pytest

from cdmacal.units import db_to_linear

from oracles import linear_to_db


def test_known_conversions():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15, abs=0)
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-15, abs=0)
    assert linear_to_db(1.0) == 0.0
    assert linear_to_db(100.0) == pytest.approx(20.0, rel=1e-15, abs=0)


def test_roundtrip_scalar_and_array():
    xs = np.array([-37.2, -3.0, 0.0, 0.19, 6.2, 14.37, 55.0])
    assert np.allclose(linear_to_db(db_to_linear(xs)), xs, rtol=0, atol=1e-12)
    assert linear_to_db(db_to_linear(-2.8)) == pytest.approx(-2.8, abs=1e-12)


def test_edge_values():
    assert db_to_linear(-math.inf) == 0.0
    assert linear_to_db(0.0) == -math.inf
    arr = db_to_linear(np.array([-math.inf, 0.0]))
    assert arr[0] == 0.0 and arr[1] == 1.0
    back = linear_to_db(np.array([0.0, 1.0]))
    assert back[0] == -math.inf and back[1] == 0.0
