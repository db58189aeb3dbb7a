"""Tests for the synthetic sample generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import channel_sd_percentile, swh_from_nbrcs
from swhnet import container
from swhnet.config import SynthSpec
from swhnet.pipeline import SCHEMA_VERSION, parse_time, read_samples, write_samples
from swhnet.synth import generate, nbrcs_from_swh


def spec(**kw):
    base = dict(n_samples=50, width=4, height=5, seed=0)
    base.update(kw)
    return SynthSpec(**base)


def test_perfect_correlation_zero_spread():
    samples = generate(spec(channel_corr=1.0, noise_sd=0.0))
    refs = np.array([s.refs() for s in samples])
    assert np.all(refs == refs[:, :1])
    assert channel_sd_percentile(refs, 0.95) == 0.0


def test_planted_signal_invertible_without_noise():
    samples = generate(spec(noise_sd=0.0, channel_corr=0.9, swh_lo=0.3, swh_hi=7.9))
    for s in samples:
        for ch in s.channels:
            recovered = swh_from_nbrcs(ch.aps[0])
            assert recovered == pytest.approx(ch.swh_ref, abs=1e-10)


def test_planted_map_monotone():
    swh = np.linspace(0.2, 8.0, 100)
    vals = nbrcs_from_swh(swh)
    assert np.all(np.diff(vals) < 0)


def test_fixed_seed_byte_identical(tmp_path):
    for name in ("a.jsonl", "b.jsonl"):
        write_samples(str(tmp_path / name), generate(spec(seed=7)), {"config_hash": "x"})
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_refs_respect_range_and_timestamps_sorted():
    samples = generate(spec(swh_lo=0.5, swh_hi=6.0, noise_sd=0.3))
    refs = np.array([s.refs() for s in samples])
    assert refs.min() >= 0.5 and refs.max() <= 6.0
    times = [s.timestamp for s in samples]
    assert times == sorted(times)
    assert times[0] >= parse_time("2019-08-01")
    assert times[-1] < parse_time("2022-08-01")


def test_mass_concentrates_between_one_and_three():
    samples = generate(spec(n_samples=2000, noise_sd=0.0, channel_corr=1.0))
    refs = np.array([s.refs()[0] for s in samples])
    frac = np.mean((refs >= 1.0) & (refs <= 3.0))
    assert 0.8 < frac < 0.95  # qualitative long-tail shape, not asserted tightly


def test_wind_column_present_only_when_requested():
    without = generate(spec())
    assert all(ch.wind_speed is None for s in without for ch in s.channels)
    with_wind = generate(spec(include_wind=True))
    winds = np.array([ch.wind_speed for s in with_wind for ch in s.channels])
    refs = np.array([ch.swh_ref for s in with_wind for ch in s.channels])
    assert np.all(np.isfinite(winds))
    assert np.corrcoef(winds, refs)[0, 1] > 0.9


def test_unplanted_signal_uninformative():
    samples = generate(spec(planted_signal=False, n_samples=400))
    nbrcs = np.array([ch.aps[0] for s in samples for ch in s.channels])
    refs = np.array([ch.swh_ref for s in samples for ch in s.channels])
    assert abs(np.corrcoef(nbrcs, refs)[0, 1]) < 0.15


def test_roundtrip_through_canonical_file(tmp_path):
    samples = generate(spec(include_wind=True, seed=3))
    path = tmp_path / "synth.jsonl"
    write_samples(str(path), samples, {"config_hash": "h"})
    loaded, manifest = read_samples(str(path))
    assert len(loaded) == len(samples)
    assert loaded[0].channels[0].wind_speed == pytest.approx(samples[0].channels[0].wind_speed)
    assert manifest == {"config_hash": "h", "n_samples": 50}
    header, _ = container.read(str(path), "samples", SCHEMA_VERSION)
    assert header["manifest"] == {"config_hash": "h"}


def bits(x):
    """A float field as its bytes, or None."""
    return None if x is None else np.float64(x).tobytes()


def assert_samples_identical(got, want):
    """Every field bit for bit, with its Python type; the arrays' bytes,
    shapes and dtypes; and C-contiguous arrays."""
    assert len(got) == len(want)
    for s, t in zip(got, want):
        assert (type(s.timestamp), bits(s.timestamp), s.source) == (type(t.timestamp), bits(t.timestamp), t.source)
        assert len(s.channels) == len(t.channels)
        for a, b in zip(s.channels, t.channels):
            assert (type(a.channel), a.channel) == (type(b.channel), b.channel)
            for f in ("sp_lat", "sp_lon", "swh_ref", "wind_speed"):
                x, y = getattr(a, f), getattr(b, f)
                assert (type(x), bits(x)) == (type(y), bits(y)), f
            for f in ("ddms", "aps"):
                x, y = getattr(a, f), getattr(b, f)
                assert (type(x), x.shape, x.dtype, x.tobytes()) == (type(y), y.shape, y.dtype, y.tobytes()), f
                assert x.flags.c_contiguous, f


@st.composite
def synth_specs(draw):
    lo = draw(st.floats(0.0, 2.5))
    start = draw(st.sampled_from(["2019-08-01", "2021-03-04T05:06:07"]))
    return SynthSpec(
        n_samples=draw(st.integers(0, 39)), width=draw(st.integers(1, 11)), height=draw(st.integers(1, 17)),
        seed=draw(st.integers(0, 2**32 - 1)), noise_sd=draw(st.floats(0.0, 2.0)),
        channel_corr=draw(st.floats(0.0, 1.0)), swh_lo=lo, swh_hi=draw(st.floats(lo + 0.1, 8.0)),
        planted_signal=draw(st.booleans()), include_wind=draw(st.booleans()),
        time_start=start, time_end=draw(st.sampled_from([start, "2022-08-01"])))


@settings(max_examples=200, deadline=None)
@given(synth_specs())
def test_generate_matches_the_per_channel_loop_bit_for_bit(s):
    assert_samples_identical(generate(s), oracles.generate(s))


@pytest.mark.parametrize("planted", [True, False])
def test_generate_matches_the_per_channel_loop_on_eight_thousand_channels(planted):
    # About 8 in 10,000 map widths square differently under C pow (Python's
    # `sigma ** 2`) and numpy's square; 12 of these 8,000 channels do, and
    # their off-centre map cells show it.
    s = spec(n_samples=2000, width=2, height=3, seed=11, include_wind=True, planted_signal=planted)
    assert_samples_identical(generate(s), oracles.generate(s))
