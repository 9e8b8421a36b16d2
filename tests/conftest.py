import numpy as np
import pytest

import cdmacal as cc

# reference operating point used across the suite: 6 dB average SNR,
# half-load, 20 Hz Doppler, default slot/bandwidth/block parameters
REF_SNR_DB = 6.0
REF_ALPHA = 0.5
REF_DOPPLER_HZ = 20.0


@pytest.fixture(scope="session")
def ref_cfg():
    return cc.SystemConfig(snr_avg_db=REF_SNR_DB, alpha=REF_ALPHA,
                           f_m_hz=REF_DOPPLER_HZ)


@pytest.fixture(scope="session")
def ref_channel(ref_cfg):
    return cc.solve_fixed_point(ref_cfg)


@pytest.fixture(scope="session")
def ref_model(ref_cfg, ref_channel):
    return cc.build_fsmc(ref_cfg, ref_channel)


def single_state_model(rate_blocks):
    """Degenerate one-state server used for closed-form queueing checks."""
    return cc.FsmcModel(
        transition=np.array([[1.0]]),
        pi=np.array([1.0]),
        rates_blocks=np.array([float(rate_blocks)]),
    )
