import numpy as np
import pytest

from shiftlab.rng import (GOLDEN, MASK64, derive_stream, mix64, row_streams,
                          stream_normals, stream_uniforms)


def _mix64_reference(x: int) -> int:
    # Independent scalar transcription of the SplitMix64 finalizer, used to
    # cross-check the vectorized implementation.
    x &= MASK64
    x = ((x >> 30) ^ x) * 0xBF58476D1CE4E5B9 & MASK64
    x = ((x >> 27) ^ x) * 0x94D049BB133111EB & MASK64
    return (x >> 31) ^ x


@pytest.mark.parametrize("value", [0, 1, 42, 2**63, MASK64, 0xDEADBEEFCAFEBABE])
def test_mix64_matches_reference(value):
    assert mix64(value) == _mix64_reference(value)


def test_mix64_range_and_dispersion():
    outs = {mix64(i) for i in range(1000)}
    assert len(outs) == 1000
    assert all(0 <= v <= MASK64 for v in outs)


def test_derive_stream_order_sensitive():
    assert derive_stream(1, 2) != derive_stream(2, 1)
    assert derive_stream(1, 2, 3) != derive_stream(1, 2)


def test_stream_uniforms_match_scalar_path():
    streams = np.array([derive_stream(99, k) for k in range(4)], dtype=np.uint64)
    grid = stream_uniforms(streams, 6)
    for i, s in enumerate(streams):
        for k in range(6):
            raw = mix64((int(s) + (k + 1) * GOLDEN) & MASK64)
            expected = ((raw >> 11) + 1) * 2.0**-53
            assert grid[i, k] == expected


def test_uniform_bounds_and_determinism():
    streams = row_streams(123, 0x5452, 500)
    u = stream_uniforms(streams, 8)
    assert np.all(u > 0.0) and np.all(u <= 1.0)
    assert np.array_equal(u, stream_uniforms(streams, 8))


def test_uniform_marginal_moments():
    streams = row_streams(5, 0x5452, 20_000)
    u = stream_uniforms(streams, 2).ravel()
    assert abs(u.mean() - 0.5) < 4 * np.sqrt(1 / 12 / u.size)
    assert abs(u.var() - 1 / 12) < 5e-4


def test_normals_moments_and_shape():
    streams = row_streams(11, 0x4F4F, 30_000)
    z = stream_normals(streams, 4)
    assert z.shape == (30_000, 4)
    flat = z.ravel()
    n = flat.size
    assert abs(flat.mean()) < 4 / np.sqrt(n)
    assert abs(flat.var() - 1.0) < 4 * np.sqrt(2.0 / n)
    # Box-Muller pairs are independent: correlation within pairs ~ 0.
    corr = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
    assert abs(corr) < 4 / np.sqrt(z.shape[0])


def test_normals_prefix_stable_under_draw_count():
    streams = row_streams(3, 0x4944, 10)
    a = stream_normals(streams, 4)
    b = stream_normals(streams, 10)
    assert np.array_equal(a, b[:, :4])


def _normals_reference(streams, n_draws):
    # The out-of-place Box-Muller construction, kept as the reference for the
    # in-place one: every uniform, r, theta and product is its own array.
    n_pairs = (n_draws + 1) // 2
    counters = np.arange(1, 2 * n_pairs + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    x = (streams[:, None] + counters[None, :]).astype(np.uint64, copy=True)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    u = ((x >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    theta = (2.0 * np.pi) * u[:, 1::2]
    out = np.empty((u.shape[0], 2 * n_pairs))
    out[:, 0::2] = r * np.cos(theta)
    out[:, 1::2] = r * np.sin(theta)
    return out[:, :n_draws]


@pytest.mark.parametrize("n_draws", [1, 3, 150, 151])
def test_normals_match_out_of_place_reference(n_draws):
    for n_rows in (0, 1, 128, 513):
        streams = row_streams(12, 0x4F4F, n_rows)
        got = stream_normals(streams, n_draws)
        assert got.shape == (n_rows, n_draws)
        assert got.tobytes() == _normals_reference(streams, n_draws).tobytes()


def test_row_streams_from_an_offset_are_a_slice_of_the_whole():
    whole = row_streams(9, 0x4F4F, 1000)
    for start, n in ((0, 1000), (1, 5), (512, 488), (999, 1), (300, 0)):
        assert row_streams(9, 0x4F4F, n, start).tobytes() == whole[start:start + n].tobytes()


def test_row_streams_distinct_across_seeds_and_scopes():
    a = row_streams(1, 0x5452, 100)
    b = row_streams(2, 0x5452, 100)
    c = row_streams(1, 0x4944, 100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert len(np.unique(a)) == 100
