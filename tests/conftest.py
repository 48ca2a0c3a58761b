from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from emgdecode import RunConfig, SynthConfig, fit_ridge, generate_tasks, r2_vw, signal_core

# desk-scale dataset reused across pipeline-level tests: short tasks, small
# crop margins, default spatial layout and noise
SMALL_SYNTH = SynthConfig(seed=123, duration_s=8.0)
SMALL_RUN = RunConfig(crop_s=(0.5, 7.5), seed=3)


@pytest.fixture(scope="session")
def small_tasks():
    return generate_tasks(SMALL_SYNTH)


@pytest.fixture()
def small_config():
    return SMALL_RUN


def ridge_scorer(alpha: float = 1.0):
    """From-scratch ridge fit + ``r2_vw`` score of one column subset: the
    reference that ``sfbs_select``'s scores are checked against."""

    def fit_score(x_tr, y_tr, x_te, y_te) -> float:
        return r2_vw(y_te, fit_ridge(x_tr, y_tr, alpha).predict(x_te))

    return fit_score


@contextmanager
def pool_of(workers: int):
    """The process-wide pool (``filtfilt``, MLD-BFM omega items) swapped for
    one of ``workers`` threads, as on a machine with that many cores."""
    with pytest.MonkeyPatch.context() as mp, ThreadPoolExecutor(workers) as pool:
        mp.setattr(signal_core, "_pool", (workers, pool))
        yield
