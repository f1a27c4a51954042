"""Counter-based random streams built on the SplitMix64 mixer.

Every stochastic quantity in the package is derived from a 64-bit master
seed through explicit mixing, so datasets and sweeps are reproducible under
any evaluation order: draw ``k`` of stream ``s`` is ``mix64(s + (k+1)*GOLDEN)``
and never depends on other draws.  Gaussian variates use the Box-Muller
transform on 53-bit uniforms.  Each dataset row has its own stream, so a
dataset drawn a block of rows at a time (as ``datagen.generate_blocks``
does, to bound its memory) has the bytes of one draw over every row,
whatever the block size.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_U64_GOLDEN = np.uint64(GOLDEN)
_TWO_NEG53 = 2.0 ** -53


def mix64(x: int) -> int:
    """SplitMix64 finalizer: bijective avalanche mix of a 64-bit integer."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def derive_stream(*parts: int) -> int:
    """Fold integers into one 64-bit stream id (order-sensitive)."""
    state = 0
    for p in parts:
        state = mix64((state + (p & MASK64) * GOLDEN) & MASK64)
    return state


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied in place to a uint64 array; returns ``x``."""
    t = x >> np.uint64(30)
    x ^= t
    x *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(x, np.uint64(27), out=t)
    x ^= t
    x *= np.uint64(0x94D049BB133111EB)
    np.right_shift(x, np.uint64(31), out=t)
    x ^= t
    return x


def stream_uniforms(streams: np.ndarray, n_draws: int) -> np.ndarray:
    """Uniform (0, 1] draws, shape ``(len(streams), n_draws)``.

    Draw ``k`` of a stream is independent of every other draw, so rows can
    be generated in any order (or in parallel) with identical results.
    """
    streams = np.asarray(streams, dtype=np.uint64)
    counters = (np.arange(1, n_draws + 1, dtype=np.uint64)) * _U64_GOLDEN
    raw = _mix64_array(streams[:, None] + counters[None, :])
    # Top 53 bits, shifted into (0, 1] so log() is always finite.
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u += 1.0
    u *= _TWO_NEG53
    return u


def stream_normals(streams: np.ndarray, n_draws: int) -> np.ndarray:
    """Standard normal draws via Box-Muller, shape ``(len(streams), n_draws)``.

    Consumes ``2*ceil(n_draws/2)`` uniforms per stream; the trailing variate
    of an odd request is discarded, so the first draws are unaffected by how
    many are requested.  ``r = sqrt(-2 log u1)`` is formed in place and ``u``
    is freed before the cos/sin products.
    """
    n_pairs = (n_draws + 1) // 2
    u = stream_uniforms(streams, 2 * n_pairs)
    r = np.log(u[:, 0::2])
    r *= -2.0
    np.sqrt(r, out=r)
    theta = u[:, 1::2] * (2.0 * np.pi)
    del u
    out = np.empty((r.shape[0], 2 * n_pairs))
    trig = np.cos(theta)
    trig *= r
    out[:, 0::2] = trig
    np.sin(theta, out=trig)
    trig *= r
    out[:, 1::2] = trig
    return out[:, :n_draws]


def row_streams(master_seed: int, scope: int, n_rows: int, start: int = 0) -> np.ndarray:
    """Stream ids of rows ``start`` to ``start + n_rows`` of a dataset scope
    (split), as uint64 array."""
    base = derive_stream(master_seed, scope)
    idx = np.arange(start, start + n_rows, dtype=np.uint64)
    return _mix64_array(np.uint64(base) + (idx + np.uint64(1)) * _U64_GOLDEN)
