"""The counter-addressed attempt stream: attempt i's words depend on (base seed, i) only."""

import inspect
import pickle

import numpy as np
import pytest

from repro.core.mechanism import SynthesisMechanism
from repro.core.stream import STREAM_VERSION, attempt_stream, stream_width
from repro.generative.bayesian_network import BayesianNetworkSynthesizer
from repro.generative.parameters import ConditionalParameters
from repro.privacy.plausible_deniability import DeterministicPrivacyTest, RandomizedPrivacyTest


def _raw_words(base_seed: int, count: int) -> np.ndarray:
    key = np.random.SeedSequence(base_seed).generate_state(4, np.uint64)[:2]
    return np.random.Philox(key=key, counter=0).random_raw(count)


class TestLayout:
    @pytest.mark.parametrize("m,width", [(1, 4), (2, 8), (4, 8), (5, 8), (6, 12), (11, 16)])
    def test_width_is_whole_philox_blocks_of_m_plus_3_slots(self, m, width):
        assert stream_width(m) == width

    def test_numpy_counter_offset_is_pinned(self):
        # numpy advances the Philox counter before computing its first block,
        # so counter=c yields words [4c, ...) of the counter=0 stream; the
        # stream's block addressing relies on exactly that.
        key = np.array([12345, 678], dtype=np.uint64)
        long = np.random.Philox(key=key, counter=0).random_raw(4 * 64)
        for block in (0, 1, 7, 50):
            part = np.random.Philox(key=key, counter=block).random_raw(12)
            assert np.array_equal(part, long[4 * block : 4 * block + 12])

    def test_attempt_i_owns_words_i_s_to_i_plus_one_s(self):
        m = 11
        width = stream_width(m)
        raw = _raw_words(77, 40 * width)
        words = attempt_stream(77).take(40, m)
        expected = (raw.reshape(40, width) >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(words.uniforms, expected)

    def test_every_slice_matches_one_long_draw(self):
        m = 6
        whole = attempt_stream(5).take(300, m).uniforms
        rng = np.random.default_rng(0)
        for _ in range(40):
            start, stop = sorted(rng.integers(0, 301, size=2))
            part = attempt_stream(5, start=int(start)).take(int(stop - start), m).uniforms
            assert np.array_equal(part, whole[start:stop])

    def test_take_advances_and_at_shares_the_lane(self):
        stream = attempt_stream(9)
        first = stream.take(3, 4)
        second = stream.take(2, 4)
        assert (first.start, second.start, stream.position) == (0, 3, 5)
        assert np.array_equal(stream.at(0).take(5, 4).uniforms, np.vstack(
            [first.uniforms, second.uniforms]
        ))
        assert stream.at(2).key is stream.key

    def test_streams_differ_across_base_seeds(self):
        a = attempt_stream(0).take(4, 4).uniforms
        b = attempt_stream(1).take(4, 4).uniforms
        assert not np.any(a == b)

    def test_stream_pickles_with_its_position(self):
        stream = attempt_stream(3, start=17)
        clone = pickle.loads(pickle.dumps(stream))
        assert clone.position == 17
        assert np.array_equal(clone.take(5, 4).uniforms, stream.take(5, 4).uniforms)

    def test_version_names_this_layout(self):
        assert STREAM_VERSION == 2


class TestDraws:
    def test_indices_stay_in_range(self):
        words = attempt_stream(11).take(20_000, 4)
        for n in (1, 3, 7, 1000):
            indices = words.seed_indices(n)
            assert indices.min() >= 0 and indices.max() <= n - 1
        assert set(words.omega_indices(3).tolist()) == {0, 1, 2}

    def test_index_of_the_largest_uniform_is_clamped(self):
        words = attempt_stream(0).take(1, 4)
        words.uniforms[0, 0] = 1.0 - 2.0**-53
        assert words.seed_indices(3)[0] == 2

    def test_laplace_is_exactly_symmetric_and_finite(self):
        words = attempt_stream(0).take(3, 4)
        slot = 4 + 2
        words.uniforms[:, slot] = [0.0, 1.0 - 2.0**-53, 0.5]
        noise = words.laplace(2.0)
        assert np.all(np.isfinite(noise))
        assert noise[0] == -noise[1]
        assert noise[0] < 0 < noise[2]
        assert noise[0] == pytest.approx(-2.0 * np.log(2.0**52 / 0.5))

    def test_laplace_matches_its_cdf(self):
        noise = attempt_stream(21).take(200_000, 4).laplace(1.0)
        for x in (-2.0, -0.5, 0.0, 0.7, 3.0):
            cdf = 0.5 * np.exp(x) if x < 0 else 1 - 0.5 * np.exp(-x)
            assert abs(np.mean(noise <= x) - cdf) < 0.005

    def test_scan_generators_are_per_attempt(self):
        block = attempt_stream(4, start=10).take(3, 4)
        again = attempt_stream(4, start=12).take(1, 4)
        assert np.array_equal(block.scan_rng(2).random(5), again.scan_rng(0).random(5))
        assert not np.array_equal(block.scan_rng(0).random(5), block.scan_rng(1).random(5))
        # The scan key is not the attempt key: scan draws never alias words.
        stream = attempt_stream(4)
        assert not np.array_equal(stream.key, stream.scan_key)


class TestSingleRandomnessPath:
    def test_no_mechanism_method_takes_an_rng(self):
        # Every draw of Mechanism 1 (seed, ω, re-sampled values, threshold
        # noise, scan subset) is read from an attempt's words, so no method
        # on its path may accept a generator of its own.
        classes = (
            BayesianNetworkSynthesizer,
            ConditionalParameters,
            DeterministicPrivacyTest,
            RandomizedPrivacyTest,
            SynthesisMechanism,
        )
        offenders = [
            f"{cls.__name__}.{name}"
            for cls in classes
            for name, member in inspect.getmembers(cls)
            if (inspect.isfunction(member) or inspect.ismethod(member))
            and "rng" in inspect.signature(member).parameters
        ]
        assert offenders == []
