"""Look-up-table construction and the FFLUT / hFFLUT structures.

The heart of FIGLUT (Section III-A, III-C, III-D): for a group of µ input
activations ``(x_1, …, x_µ)`` the inner product against any µ-long ±1 weight
pattern is one of 2^µ precomputable signed sums.  A table keyed by the µ-bit
weight pattern therefore replaces µ-1 additions per pattern with a single
read.

Two table organisations are modelled:

* :class:`FFLUT` — the full flip-flop LUT with 2^µ entries, read through a
  per-reader multiplexer (conflict-free: any number of RACs can read
  different keys in the same cycle).
* :class:`HalfFFLUT` — the half-size LUT (hFFLUT) exploiting vertical sign
  symmetry (Table II): entry(key) == -entry(~key), so only the half with
  MSB = 0 is stored and the MSB of the key selects a sign flip in a small
  decoder (Fig. 10).

Keys follow the paper's Table II convention: bit value 1 → weight +1,
bit value 0 → weight −1, with the first element of the group mapped to the
most significant key bit.
"""

# repro: bit-exact — LUT construction is the numerical root of the
# compiled == reference contract: tables accumulate
# sequentially over µ, never via a reassociating reduction.

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "pattern_to_key",
    "key_to_pattern",
    "build_lut_values",
    "build_lut_tables",
    "lut_table_rows",
    "FFLUT",
    "HalfFFLUT",
]


def pattern_to_key(pattern: np.ndarray) -> int:
    """Encode a ±1 weight pattern as an integer key (Table II convention)."""
    arr = np.asarray(pattern).ravel()
    if arr.size == 0:
        raise ValueError("pattern must be non-empty")
    if not np.all(np.isin(arr, (-1, 1))):
        raise ValueError("pattern entries must be -1 or +1")
    key = 0
    for value in arr:
        key = (key << 1) | (1 if value == 1 else 0)
    return key


def key_to_pattern(key: int, mu: int) -> np.ndarray:
    """Decode an integer key back into its ±1 weight pattern of length µ."""
    if mu < 1:
        raise ValueError("mu must be >= 1")
    if not 0 <= key < (1 << mu):
        raise ValueError(f"key {key} out of range for mu={mu}")
    bits = [(key >> (mu - 1 - i)) & 1 for i in range(mu)]
    return np.array([1 if b else -1 for b in bits], dtype=np.int8)


@lru_cache(maxsize=None)
def _sign_matrix(mu: int, integer: bool) -> np.ndarray:
    """Read-only ``(2^µ, µ)`` ±1 pattern matrix of every key, per µ.

    ``signs[key, i]`` is +1 if bit ``µ-1-i`` of ``key`` is set, else −1
    (Table II convention) — int64 for integer LUTs, float64 otherwise.
    Built once per ``(µ, integer)`` and shared by every table build.
    """
    keys = np.arange(1 << mu, dtype=np.int64)
    bit_positions = mu - 1 - np.arange(mu)
    sign_bits = ((keys[:, None] >> bit_positions[None, :]) & 1) == 1
    signs = (np.where(sign_bits, 1, -1).astype(np.int64) if integer
             else np.where(sign_bits, 1.0, -1.0))
    signs.setflags(write=False)
    return signs


def build_lut_tables(groups: np.ndarray, dtype: np.dtype | type = np.float64,
                     axis: int = -1) -> np.ndarray:
    """Compute LUT contents for a whole stack of µ-long activation groups.

    ``groups`` holds the µ inputs of each group along ``axis``; the result
    has the same shape with that axis widened to ``2^µ`` entries, e.g.
    ``(..., µ) → (..., 2^µ)`` with ``out[..., key] = Σ_i pattern(key)_i ·
    groups[..., i]`` (Table II convention).  The sum is accumulated
    *sequentially* over the µ inputs with elementwise operations, so every
    entry goes through the same rounding sequence no matter how many groups
    are stacked or which axis holds the entries:
    :func:`build_lut_values` is exactly the single-group case, and the
    batched MPU executor relies on that bit-for-bit equivalence.
    """
    g = np.asarray(groups)
    if g.ndim < 1 or g.shape[axis] < 1:
        raise ValueError("activation groups must contain at least one element")
    mu = g.shape[axis]
    if mu > 16:
        raise ValueError("mu > 16 would require a 64Ki-entry LUT; refusing")
    integer = bool(np.issubdtype(np.dtype(dtype), np.integer))
    signs = _sign_matrix(mu, integer)
    work = np.int64 if integer else np.float64
    shape = list(g.shape)
    shape[axis] = 1 << mu
    values = np.zeros(shape, dtype=work)
    x = g.astype(work)
    # Input i keeps its (size-1) axis and the sign column broadcasts along
    # it, so every term is built in the output's own memory layout.
    ax = axis % g.ndim
    lead = (slice(None),) * ax
    sign_col = (slice(None),) + (None,) * (g.ndim - 1 - ax)
    for i in range(mu):
        values += signs[:, i][sign_col] * x[lead + (slice(i, i + 1),)]
    return values.astype(dtype)


def build_lut_values(activations: np.ndarray, dtype: np.dtype | type = np.float64) -> np.ndarray:
    """Compute all 2^µ signed sums of a µ-long activation group.

    ``values[key] = Σ_i pattern(key)_i · x_i`` — exactly Table II for µ=3.
    The group length µ is taken from ``len(activations)``.  The result dtype
    controls the precision the LUT entries are stored in (e.g. float32 for
    FIGLUT-F, int64 for FIGLUT-I operating on pre-aligned mantissas).
    Single-group case of :func:`build_lut_tables`.

    .. note::
       Entries are accumulated sequentially over the µ inputs (see
       :func:`build_lut_tables`) rather than via a BLAS dot product, so
       float results can differ from earlier releases in the last ulp.  The
       trade is deliberate: a batch-size-independent rounding sequence is
       what lets the batched MPU executor stay bit-exact with its scalar
       reference.
    """
    x = np.asarray(activations).ravel()
    if x.size < 1:
        raise ValueError("activation group must contain at least one element")
    return build_lut_tables(x[None, :], dtype=dtype)[0]


def lut_table_rows(activations: np.ndarray) -> list[tuple[tuple[int, ...], int, float]]:
    """Render the LUT as (binary pattern, key, value) rows, like Table II."""
    x = np.asarray(activations).ravel()
    values = build_lut_values(x)
    rows = []
    for key in range(values.size):
        pattern = tuple(int(v) for v in key_to_pattern(key, x.size))
        rows.append((pattern, key, float(values[key])))
    return rows


@dataclass
class FFLUT:
    """Full flip-flop LUT holding all 2^µ precomputed sums.

    The FFLUT is conflict-free: each reader has its own multiplexer over the
    flip-flop outputs, so reads never serialise.  ``read_count`` tracks the
    number of look-ups for the energy model.
    """

    values: np.ndarray
    mu: int
    read_count: int = 0
    write_count: int = 0

    @classmethod
    def from_activations(cls, activations: np.ndarray,
                         dtype: np.dtype | type = np.float64) -> FFLUT:
        x = np.asarray(activations).ravel()
        values = build_lut_values(x, dtype=dtype)
        lut = cls(values=values, mu=int(x.size))
        lut.write_count = values.size
        return lut

    @property
    def num_entries(self) -> int:
        return int(self.values.size)

    def read(self, key: int) -> float:
        """Read one entry by key."""
        if not 0 <= key < self.num_entries:
            raise KeyError(f"key {key} out of range for mu={self.mu}")
        self.read_count += 1
        return self.values[key]

    def read_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised multi-key read (models k RACs reading concurrently)."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and (keys.min() < 0 or keys.max() >= self.num_entries):
            raise KeyError("one or more keys out of range")
        self.read_count += int(keys.size)
        return self.values[keys]

    def storage_entries(self) -> int:
        """Number of flip-flop words the table occupies."""
        return self.num_entries


@dataclass
class HalfFFLUT:
    """Half-size flip-flop LUT (hFFLUT) with MSB sign-flip decoding.

    Only the 2^(µ-1) entries whose key MSB is 0 are stored.  A key with MSB=1
    selects the complementary entry (bitwise-NOT of the low µ-1 bits) and
    negates it — the decoder of Fig. 10(b).
    """

    values: np.ndarray
    mu: int
    read_count: int = 0
    write_count: int = 0

    @classmethod
    def from_activations(cls, activations: np.ndarray,
                         dtype: np.dtype | type = np.float64) -> HalfFFLUT:
        x = np.asarray(activations).ravel()
        full = build_lut_values(x, dtype=dtype)
        half = full[: full.size // 2] if full.size > 1 else full
        lut = cls(values=half, mu=int(x.size))
        lut.write_count = half.size
        return lut

    @property
    def num_entries(self) -> int:
        return int(self.values.size)

    def _decode(self, key: int) -> tuple[int, int]:
        """Map a full key to (stored index, sign)."""
        if self.mu == 1:
            # Degenerate case: the single stored entry is -x (key 0); key 1
            # is its sign-flipped mirror (+x).
            return 0, (-1 if key == 1 else 1)
        msb = (key >> (self.mu - 1)) & 1
        low = key & ((1 << (self.mu - 1)) - 1)
        if msb == 0:
            # Stored half has MSB = 0 → first weight = -1.
            return low, 1
        # Symmetric entry: flip every bit of the key, read, and negate.
        mirrored = (~key) & ((1 << self.mu) - 1)
        return mirrored & ((1 << (self.mu - 1)) - 1), -1

    def read(self, key: int) -> float:
        """Read one entry by full µ-bit key, applying the sign-flip decode."""
        if not 0 <= key < (1 << self.mu):
            raise KeyError(f"key {key} out of range for mu={self.mu}")
        index, sign = self._decode(key)
        self.read_count += 1
        return sign * self.values[index]

    def read_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised multi-key read with sign-flip decoding."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and (keys.min() < 0 or keys.max() >= (1 << self.mu)):
            raise KeyError("one or more keys out of range")
        self.read_count += int(keys.size)
        if self.mu == 1:
            signs = np.where(keys == 1, -1, 1)
            return signs * self.values[np.zeros_like(keys)]
        msb = (keys >> (self.mu - 1)) & 1
        low_mask = (1 << (self.mu - 1)) - 1
        low = keys & low_mask
        mirrored = (~keys) & low_mask
        index = np.where(msb == 0, low, mirrored)
        sign = np.where(msb == 0, 1, -1)
        return sign * self.values[index]

    def storage_entries(self) -> int:
        """Number of flip-flop words the table occupies (half of the FFLUT)."""
        return self.num_entries
