"""The per-path simulators' output, pinned bit for bit.

``simulate_mpp`` (ramp-rate thinning) and ``simulate_hawkes`` (Ogata) are
the per-path second routes to the batch oracle.  A faster path build must
hand over the same draws: the digests below were recorded from the
simulators before they passed their arrays to ``hand_over`` and drew their
uniforms with ``Generator.random``.
"""

import hashlib

import numpy as np

from snoise.affine import HawkesParams, simulate_hawkes
from snoise.kernels import exponential
from snoise.marks import Exponential
from snoise.point_process import CompensatorSpec, simulate_mpp
from snoise.shotnoise import ShotNoiseProcess, eval_shotnoise

SEED, N_PATHS = 14, 200
RAMP = CompensatorSpec(rate=lambda t: 1.0 + 2.0 * np.asarray(t, dtype=float),
                       rate_bound=5.0, marks=Exponential(1.0))
PROC = ShotNoiseProcess(exponential(1.0, 1.0), RAMP)
HAWKES = HawkesParams(kappa=2.0, theta_bar=0.5, lambda0=1.0)

# path_loop's pair mix over 2000 path indices, recorded from the simulators
# and readers before they checked, handed over and read a short path on
# Python floats
PAIR_SEED, PAIR_PATHS = 22, 2000
PAIR_MIX_DIGEST = "b278aa4c8078c1422ab3f6a7cf50d4a936a4a8dc6caa655554fff8b5c293cbd2"

DIGESTS = {
    "simulate_mpp": "4adc2f26a0c0cb6926978f5dca4214855f40228a72b3d3ed29e41346876b375e",
    "simulate_hawkes": "a9755a17369dab278b15cafd3f37299d150b7169b02eb57eebcbc57f1320e741",
    "eval_shotnoise": "fe7876f3436dbc5880b221758376a2cbd4dd3d6a225f7756df9baab9f04f6317",
    "intensity": "d82225f8abd8f849bf0732f29b8a1681ed1b6a70e2c6dcc1d770411e8e41851d",
}


def _digest(*arrays) -> str:
    """sha256 of each array's length and float64 bytes, in turn."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(np.int64(a.size).tobytes())
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def test_per_path_simulators_keep_their_bits():
    mpp, hawkes = hashlib.sha256(), hashlib.sha256()
    s_T, lam_T, arrays = [], [], []
    for i in range(N_PATHS):
        path = simulate_mpp(RAMP, 2.0, SEED, path_index=i)
        mpp.update(_digest(path.times, path.marks).encode())
        s_T.append(eval_shotnoise(PROC, path, 2.0))
        hp = simulate_hawkes(HAWKES, 1.0, SEED, path_index=i)
        hawkes.update(_digest(hp.events.times, hp.events.marks,
                              hp.intensities).encode())
        lam_T.append(hp.intensity(1.0))
        arrays.extend((path.times, path.marks, path.offsets, hp.events.times,
                       hp.events.marks, hp.events.offsets, hp.intensities))
    got = {"simulate_mpp": mpp.hexdigest(), "simulate_hawkes": hawkes.hexdigest(),
           "eval_shotnoise": _digest(s_T), "intensity": _digest(lam_T)}
    assert got == DIGESTS
    # handed over, not copied: nothing may write into a simulated path
    assert not any(arr.flags.writeable for arr in arrays)


def test_pair_mix_keeps_its_bits():
    # a ramp-rate path with its S_T and an Ogata path with its lambda_T, as
    # the path_loop benchmark pairs them
    h = hashlib.sha256()
    for i in range(PAIR_PATHS):
        path = simulate_mpp(RAMP, 2.0, PAIR_SEED, path_index=i)
        s_T = eval_shotnoise(PROC, path, 2.0)
        hp = simulate_hawkes(HAWKES, 1.0, PAIR_SEED, path_index=i)
        lam_T = hp.intensity(1.0)
        assert type(s_T) is float
        h.update(_digest(path.times, path.marks, [s_T], hp.events.times,
                         hp.intensities, [lam_T]).encode())
    assert h.hexdigest() == PAIR_MIX_DIGEST
