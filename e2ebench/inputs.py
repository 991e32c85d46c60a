"""Seeded inputs with ground truth, and the output checks against them.

Every measurement comes from ``repro.mea.wetlab``: a paper-like field
(2,000-11,000 kOhm baseline with anomaly blobs) read through the exact
crossbar forward map plus lognormal instrument noise.  The benchmark
uses 0.01 % instrument noise rather than the simulator's 0.5 % default:
at 0.5 % the inverse problem amplifies noise past 30 % field error from
n = 12 up, and past 100 % at n = 40, so no output check could tell a
correct solve from a wrong one.  At 0.01 % the recovered field's worst
site error grows roughly like ``8 * n * noise``; the check allows five
times that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mea.synthetic import paper_like_spec
from repro.mea.wetlab import WetLabConfig, run_campaign

NOISE_REL = 1e-4
TOLERANCE_PER_SITE = 40.0
#: Fields per size: more than the 8-entry Laplacian-factor LRU, so
#: every operation brings a measurement the solver cache has not seen
#: within its last eight fields.
POOL_PER_SIZE = 16


@dataclass(frozen=True)
class Case:
    """One measurement with the field that produced it."""

    z: np.ndarray
    voltage: float
    hour: float
    truth: np.ndarray

    @property
    def n(self) -> int:
        return self.z.shape[0]


def _seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def device_run(seed: int, n: int, index: int, hours: tuple[float, ...]):
    """The simulated day of pool entry ``index`` at side ``n``."""
    s = _seed(seed, n, index)
    config = WetLabConfig(noise_rel=NOISE_REL, hours=hours)
    return run_campaign(paper_like_spec(n, seed=s), config, seed=s)


def pool(seed: int, sizes) -> dict[int, list[Case]]:
    """``POOL_PER_SIZE`` single readings (hour 0) for each side in ``sizes``."""
    out: dict[int, list[Case]] = {}
    for n in sizes:
        cases = []
        for index in range(POOL_PER_SIZE):
            run = device_run(seed, n, index, hours=(0.0,))
            meas = run.campaign.measurements[0]
            cases.append(Case(meas.z_kohm, meas.voltage, meas.hour, run.ground_truth[0]))
        out[n] = cases
    return out


def tolerance(n: int) -> float:
    """Largest relative site error a correct solve may show at side n."""
    return max(1e-9, TOLERANCE_PER_SITE * n * NOISE_REL)


def field_ok(field, truth: np.ndarray) -> bool:
    """True when ``field`` recovers ``truth`` within :func:`tolerance`."""
    if field is None:
        return False
    field = np.asarray(field, dtype=np.float64)
    if field.shape != truth.shape or not np.all(np.isfinite(field)):
        return False
    err = np.max(np.abs(field - truth) / truth)
    return bool(err <= tolerance(truth.shape[0]))


def same_field(a, b, rtol: float = 1e-9) -> bool:
    """True when two recovered fields agree to ``rtol`` at every site."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.abs(b)))
