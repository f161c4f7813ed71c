"""Counter-addressed randomness: every draw of attempt i is a function of (base seed, i, slot).

Mechanism 1's attempts are independent, so the engine may cut a release into
batches, chunks, folds and workers however it likes, as long as no cut moves
a random draw.  This module makes that hold by construction.  One lane (a
release, identified by its base seed) owns one Philox4x64-10 stream, keyed
once from the base seed.  Attempt ``i`` owns the 64-bit words
``[i*S, (i+1)*S)`` of that stream, ``S = 4 * ceil((m + 3) / 4)`` for ``m``
attributes (a whole number of Philox blocks), and reads them by slot:

====================  ======================================================
slot                  draw
====================  ======================================================
0                     the seed index, ``floor(u * |D|)``
1                     the ω choice, ``floor(u * |Ω|)`` (unused for one ω)
2 + p                 the inverse-CDF uniform of re-sampling position p of σ
m + 2                 the randomized test's Laplace threshold noise
====================  ======================================================

A uniform ``u`` is the word's top 53 bits times 2^-53, numpy's own
``Generator.random`` conversion.  ``floor(u * n)`` favours some indices over
others by at most n/2^53 in probability.  The Laplace noise inverts the CDF
at a *centred* 53-bit uniform, the half-integers in (-2^52, 2^52) scaled by
2^-53, so it is exactly symmetric and never takes ``log(0)``.

A block of attempts ``[a, b)`` is one ``np.random.Philox(key, counter=a*S/4)``
and one ``random_raw((b - a) * S)`` call in C.  numpy advances the counter
before computing its first block, so the words of ``counter=c`` are words
``[4c, ...)`` of the stream that ``counter=0`` starts; that offset is pinned
by a test.

The subset-scan knobs (``max_check_plausible``, ``max_plausible``) need O(|D|)
draws per attempt.  They come from attempt ``i``'s own
``Generator(Philox(scan_key, counter=i * 2^64))``, under a second key derived
with the first, so they never alias attempt words.

:data:`STREAM_VERSION` names this layout.  Anything that regenerates rows
from a stored base seed (run checkpoints, journaled releases, cached
experiment releases) records it, so rows drawn under an older layout are
never silently re-drawn under this one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["STREAM_VERSION", "AttemptStream", "AttemptWords", "attempt_stream", "stream_width"]

#: Version of the attempt-stream layout.  Version 1 drew each engine chunk
#: from ``SeedSequence(base_seed, spawn_key=(chunk,))``, so rows depended on
#: the batch and chunk sizes.
STREAM_VERSION = 2

_SEED_SLOT = 0
_OMEGA_SLOT = 1
_POSITION_SLOT = 2
_UNIT = 2.0**-53
_HALF = 2.0**52


def stream_width(num_attributes: int) -> int:
    """Words per attempt, ``S = 4 * ceil((m + 3) / 4)``."""
    return 4 * -(-(num_attributes + 3) // 4)


def attempt_stream(base_seed: int, start: int = 0) -> "AttemptStream":
    """The stream of the lane keyed by ``base_seed``, positioned at attempt ``start``.

    The attempt key and the subset-scan key are the first and second pair of
    words of ``SeedSequence(base_seed)``.
    """
    keys = np.random.SeedSequence(base_seed).generate_state(4, np.uint64)
    return AttemptStream(keys[:2], keys[2:], start)


class AttemptStream:
    """A cursor on one lane's stream: its keys and the next attempt index.

    It takes an rng's place in the proposal loop: :meth:`take` hands out the
    words of the next ``count`` attempts and advances, and :meth:`at` starts
    another cursor on the same lane, so a chunk or a retry reads exactly the
    attempts it covers.
    """

    __slots__ = ("key", "scan_key", "position")

    def __init__(self, key: np.ndarray, scan_key: np.ndarray, position: int = 0):
        if position < 0:
            raise ValueError("the attempt position must be non-negative")
        self.key = key
        self.scan_key = scan_key
        self.position = position

    def at(self, position: int) -> "AttemptStream":
        """A cursor on the same lane at attempt ``position``."""
        return AttemptStream(self.key, self.scan_key, position)

    def take(self, count: int, num_attributes: int) -> "AttemptWords":
        """The words of the next ``count`` attempts of an ``m``-attribute layout."""
        if count < 0:
            raise ValueError("count must be non-negative")
        width = stream_width(num_attributes)
        words = np.random.Philox(
            key=self.key, counter=self.position * width // 4
        ).random_raw(count * width)
        block = AttemptWords(
            self.position,
            (words.reshape(count, width) >> np.uint64(11)) * _UNIT,
            num_attributes,
            self.scan_key,
        )
        self.position += count
        return block


class AttemptWords:
    """The draws of attempts ``[start, start + n)``; row ``j`` is attempt ``start + j``.

    ``uniforms`` holds every word as a 53-bit uniform in [0, 1), one row per
    attempt and one column per slot (see the module docstring).
    """

    __slots__ = ("start", "uniforms", "num_attributes", "_scan_key")

    def __init__(self, start: int, uniforms: np.ndarray, num_attributes: int, scan_key):
        self.start = start
        self.uniforms = uniforms
        self.num_attributes = num_attributes
        self._scan_key = scan_key

    def __len__(self) -> int:
        return self.uniforms.shape[0]

    def _index(self, slot: int, n: int) -> np.ndarray:
        indices = (self.uniforms[:, slot] * n).astype(np.int64)
        return np.minimum(indices, n - 1, out=indices)

    def seed_indices(self, num_seeds: int) -> np.ndarray:
        """Each attempt's seed record, uniform over ``num_seeds``."""
        return self._index(_SEED_SLOT, num_seeds)

    def omega_indices(self, num_omegas: int) -> np.ndarray:
        """Each attempt's position in the ω set, uniform over ``num_omegas``."""
        return self._index(_OMEGA_SLOT, num_omegas)

    def position(self, position: int) -> np.ndarray:
        """Each attempt's inverse-CDF uniform for re-sampling position ``position`` of σ."""
        return self.uniforms[:, _POSITION_SLOT + position]

    def laplace(self, scale: float) -> np.ndarray:
        """Each attempt's Laplace(``scale``) noise, from its centred 53-bit uniform."""
        centred = self.uniforms[:, _POSITION_SLOT + self.num_attributes] * 2.0**53 - (_HALF - 0.5)
        tail = (_HALF - np.abs(centred)) * 2.0**-52
        return np.copysign(-scale * np.log(tail), centred)

    def scan_rng(self, row: int) -> np.random.Generator:
        """Attempt ``start + row``'s own generator for a subset scan."""
        return np.random.Generator(
            np.random.Philox(key=self._scan_key, counter=(self.start + row) << 64)
        )
