"""Differential tests: the guide-table rank draw against the full-CDF
binary search it replaced.

``reference_sample_ranks`` is the pre-optimisation
``ZipfDistribution.sample_ranks`` kept verbatim: one ``rng.random(size)``
and one ``np.searchsorted`` into the whole CDF. The chunked guide search
must return **the same rank for the same uniform** and leave the
generator in the same state — ``==`` on every rank and on
``rng.bit_generator.state`` — or every seeded stream, pinned capture and
stored sweep cell moves. The one intended difference is the clamp: a
uniform above the last CDF entry (``cumsum`` stops a few ulp short of 1)
is the last rank, where the reference returned ``n_keys + 1`` and the
callers then raised ``IndexError``.

The hypothesis worlds shrink ``DRAW_CHUNK`` and ``GUIDE_MIN_DRAW`` so a
few hundred draws cross many chunk edges and both sides of the cutoff;
``test_real_block_sizes`` repeats the check with the shipped constants.

Mutations of ``src/repro/analysis/zipf.py`` these tests were run
against, and what failed (13 of this module's test cases are on the
draw; the other 10 on the guide build, below):

* off-by-one bucket (``table[bucket + 1]`` as the lower bound):
  ``test_draw_equals_reference``, ``test_real_block_sizes``,
  ``test_injected_uniforms_equal_full_search`` and all three
  ``test_draw_rounds_equals_per_round_reference`` (9 cases);
* ``side="right"`` guide: ``test_guide_brackets_every_bucket`` and
  ``test_injected_uniforms_equal_full_search`` (a uniform exactly on a
  bucket edge that is also a CDF value comes back one rank high);
* non-power-of-two ``K`` (``buckets = n_keys``): the same two —
  hypothesis shrinks the second to ``n_keys=6, alpha=0``, where a
  uniform beside a rounded bucket edge is drawn as rank 6, not 5;
* dropped final refine step (``while stride > 2``): the four tests of
  the first mutation (8 cases);
* chunk boundary reseeding (a generator re-derived for every chunk after
  the first): the same four, on ranks and on generator state (10 cases);
* no clamp: ``test_injected_uniforms_equal_full_search``,
  ``test_top_sliver_is_the_only_difference`` and the stub-generator
  tests in ``tests/analysis/test_zipf.py``,
  ``tests/workloads/test_queries.py`` and
  ``tests/fastsim/test_workload.py``.

``reference_build_guide`` is the guide build ISSUE 19 replaced, kept
verbatim: full ``edges``, an int64 ``table`` and ``np.diff(table)`` —
6 MiB of transients at 2^18 buckets, which is what made ``sweep_cold``'s
peak RSS depend on heap layout. The chunked build must return the same
``(buckets, table, stride)``, dtype included, inside a bounded
transient. Mutations run against ``_build_guide``: ``widest`` taken per
chunk without the seam entry (``test_guide_build_equals_reference`` —
hypothesis shrinks to a CDF whose widest bucket straddles a chunk
edge), ``side="right"`` (same test, plus the real-chunk and int64
cases), one chunk spanning the whole table
(``test_guide_build_transient_is_bounded``).

The table is one gather since ISSUE 63: a bucket's entry is its answer
where the reference's bounds meet and ``~lower`` (negative) where they
do not, and ``encode_signed`` turns the reference's table into that
form for the comparison. The bounds are now counted over the CDF's
entries rather than searched per edge. Mutations run on a scratch copy,
each caught:

* an entry counted at its own bucket's edge instead of the next
  (``+ 1`` dropped): 24 cases, ``test_guide_build_equals_reference``
  and ``test_guide_build_int64_branch`` among them;
* entries of 1.0 counted in the last bucket instead of dropped:
  ``test_guide_brackets_every_bucket``,
  ``test_guide_build_equals_reference``, ``test_guide_build_real_chunk``
  (``1-0.0``) and ``test_guide_build_int64_branch``;
* the whole CDF counted in one chunk:
  ``test_guide_build_transient_is_bounded``;

* the clamp dropped from the refined entries:
  ``test_injected_uniforms_equal_full_search``,
  ``test_top_sliver_is_the_only_difference``,
  ``test_only_the_descent_reaches_past_the_last_key`` and the
  5,000-uniform stub-generator tests of ``tests/analysis/test_zipf.py``
  and ``tests/fastsim/test_workload.py``;
* ``index <= 0`` for ``index < 0`` as the unsettled test (a settled
  answer 0 descends from -1): 13 cases, among them
  ``test_draw_equals_reference``, ``test_real_block_sizes``,
  ``test_uniforms_on_every_bucket_edge`` and
  ``test_identity_copy_equals_the_gather``;
* the identity copy taken after a shift (``BatchWorkload.draw_rounds``
  passing no mapping to ``draw_into``): the ``shuffled`` and
  ``flash_crowd`` cases of
  ``test_draw_rounds_equals_per_round_reference``,
  ``TestIdentityMapping::test_a_shift_ends_the_copy`` in
  ``tests/fastsim/test_workload.py`` and the legacy-equivalence tests in
  ``tests/workloads``;
* a keys-only draw sized from its missing rank buffer (so drawing
  nothing): ``test_a_keys_only_draw_equals_the_keys_of_a_full_draw``.
"""

from __future__ import annotations

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis import zipf as zipf_module
from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.workloads import FlashCrowd, RankSwap, StationaryZipf


# ----------------------------------------------------------------------
# The replaced code, verbatim
# ----------------------------------------------------------------------
def reference_sample_ranks(
    zipf: ZipfDistribution, rng: np.random.Generator, size: int
) -> np.ndarray:
    if size < 0:
        raise ParameterError(f"size must be >= 0, got {size}")
    uniforms = rng.random(size)
    return np.searchsorted(zipf._cumulative, uniforms) + 1


def expected_ranks(zipf, rng, size) -> np.ndarray:
    """The reference, with the top sliver folded onto the last rank."""
    return np.minimum(reference_sample_ranks(zipf, rng, size), zipf.n_keys)


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------
SMALL_CHUNK = 64
SMALL_CUTOFF = 16


@contextlib.contextmanager
def block_sizes(chunk: int, cutoff: int):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zipf_module, "DRAW_CHUNK", chunk)
        patch.setattr(zipf_module, "GUIDE_MIN_DRAW", cutoff)
        yield


n_keys_st = st.one_of(
    st.sampled_from([1, 2, 3, 255, 256, 257, 1000]), st.integers(1, 3000)
)
# 0 is uniform (bucket edges land on CDF values when n_keys is a power
# of two). From 8 up the tail's steps vanish below an ulp and the CDF
# ends in a run of ties — a few ulp under 1 at 8 and 12, at exactly 1
# from 40 — where side="left" must pick the first.
alpha_st = st.one_of(
    st.sampled_from([0.0, 0.8, 1.0, 1.2, 8.0, 12.0, 40.0]),
    st.floats(0.0, 4.0, allow_nan=False),
)
size_st = st.one_of(
    st.sampled_from(
        [0, 1, SMALL_CUTOFF - 1, SMALL_CUTOFF, SMALL_CUTOFF + 1,
         SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1,
         2 * SMALL_CHUNK - 1, 2 * SMALL_CHUNK, 2 * SMALL_CHUNK + 1]
    ),
    st.integers(0, 5 * SMALL_CHUNK),
)
seed_st = st.integers(0, 2**32 - 1)


def _same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


# ----------------------------------------------------------------------
# The guide itself
# ----------------------------------------------------------------------
@given(n_keys_st, alpha_st)
@example(1, 1.2)
@example(1024, 0.0)
@example(3, 0.0)  # bucket 0 unsettled from lower bound 0: entry ~0 == -1
@settings(max_examples=60, deadline=None)
def test_guide_brackets_every_bucket(n_keys, alpha):
    zipf = ZipfDistribution(n_keys, alpha)
    buckets, table, stride = zipf._guide()
    # A power of two: u * buckets and b / buckets are exact.
    assert buckets >= 1 and buckets & (buckets - 1) == 0
    assert buckets <= n_keys
    edges = np.arange(buckets + 1) / buckets
    assert (edges * buckets == np.arange(buckets + 1)).all()
    bounds = np.searchsorted(zipf._cumulative, edges, side="left")
    lower, upper = bounds[:-1], bounds[1:]
    settled = upper == lower
    # One entry per bucket: the answer where the bounds meet, the lower
    # bound's complement (negative) where they do not.
    assert table.size == buckets
    assert np.array_equal(table >= 0, settled)
    assert np.array_equal(table[settled], lower[settled])
    assert np.array_equal(~table[~settled], lower[~settled])
    # A settled answer is a key: only the descent can pass the last one.
    assert (table < n_keys).all()
    # The descent from the lower bound reaches the upper one.
    assert stride & (stride - 1) == 0
    assert stride - 1 >= np.diff(bounds).max(initial=0)


def reference_build_guide(cdf: np.ndarray) -> tuple[int, np.ndarray, int]:
    """The replaced ``_build_guide`` body, verbatim."""
    buckets = min(1 << (cdf.size.bit_length() - 1), zipf_module._GUIDE_MAX_BUCKETS)
    edges = np.arange(buckets + 1) / buckets
    table = np.searchsorted(cdf, edges, side="left")
    widest = int(np.diff(table).max())
    table = table.astype(np.int32 if 4 * cdf.size < 2**31 else np.int64)
    table.flags.writeable = False
    return buckets, table, 1 << widest.bit_length()


def encode_signed(
    guide: tuple[int, np.ndarray, int]
) -> tuple[int, np.ndarray, int]:
    """A reference guide encoded the way the one-gather table is: per
    bucket the answer where its bounds meet, else ``~lower``; same dtype."""
    buckets, table, stride = guide
    lower, upper = table[:-1], table[1:]
    signed = np.where(upper == lower, lower, ~lower).astype(table.dtype)
    return buckets, signed, stride


def _assert_same_guide(cdf: np.ndarray) -> None:
    buckets, table, stride = zipf_module._build_guide(cdf)
    want_buckets, want_table, want_stride = encode_signed(
        reference_build_guide(cdf)
    )
    assert (buckets, stride) == (want_buckets, want_stride)
    assert table.dtype == want_table.dtype
    assert np.array_equal(table, want_table)
    assert not table.flags.writeable


@given(n_keys_st, alpha_st, st.sampled_from([1, 2, 3, 7, SMALL_CHUNK]))
@example(1, 0.0, 1)
@example(7, 3.0, 2)  # n_keys < a chunk of buckets; widest bucket at a seam
@example(300, 40.0, 3)  # ties: every entry from rank 2 on is 1.0
@settings(max_examples=150, deadline=None)
def test_guide_build_equals_reference(n_keys, alpha, chunk):
    with block_sizes(chunk, SMALL_CUTOFF):
        _assert_same_guide(ZipfDistribution(n_keys, alpha)._cumulative)


@pytest.mark.parametrize(
    "n_keys, alpha",
    [(1, 0.0), (7, 3.0), (800, 1.2), (40_000, 1.2), (320_000, 0.8),
     (320_000, 1.2), (2_000_000, 0.8)],
)
def test_guide_build_real_chunk(n_keys, alpha):
    _assert_same_guide(ZipfDistribution(n_keys, alpha)._cumulative)


class _ClaimsToBeHuge(np.ndarray):
    """A CDF whose ``size`` says 2^29 entries: the int64 table branch
    without a 4 GiB array."""

    @property
    def size(self) -> int:
        return 1 << 29


def test_guide_build_int64_branch():
    cdf = ZipfDistribution(1000, 1.2)._cumulative.view(_ClaimsToBeHuge)
    _assert_same_guide(cdf)
    assert zipf_module._build_guide(cdf)[1].dtype == np.int64


def test_guide_build_transient_is_bounded():
    """Building a 2^18-bucket guide allocates ~1 MiB of chunk temporaries
    above the table it returns (the replaced body: 6 MiB)."""
    cdf = ZipfDistribution(2_000_000, 0.8)._cumulative
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        buckets, table, _ = zipf_module._build_guide(cdf)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert buckets == zipf_module._GUIDE_MAX_BUCKETS
    assert peak - table.nbytes < 1.5 * 2**20


# ----------------------------------------------------------------------
# Ranks and generator state
# ----------------------------------------------------------------------
@given(n_keys_st, alpha_st, size_st, seed_st)
@example(1, 0.0, 2 * SMALL_CHUNK + 1, 0)
@example(257, 12.0, 5 * SMALL_CHUNK, 1)
@settings(max_examples=150, deadline=None)
def test_draw_equals_reference(n_keys, alpha, size, seed):
    zipf = ZipfDistribution(n_keys, alpha)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with block_sizes(SMALL_CHUNK, SMALL_CUTOFF):
        ranks = zipf.sample_ranks(rng, size)
    assert ranks.dtype == np.int64
    assert np.array_equal(ranks, expected_ranks(zipf, ref_rng, size))
    assert _same_state(rng, ref_rng)


@pytest.mark.parametrize(
    "n_keys, alpha",
    [(1, 1.2), (1000, 0.0), (777, 50.0), (40_000, 1.2), (320_000, 0.8)],
)
def test_real_block_sizes(n_keys, alpha):
    chunk, cutoff = zipf_module.DRAW_CHUNK, zipf_module.GUIDE_MIN_DRAW
    zipf = ZipfDistribution(n_keys, alpha)
    for size in (
        0, 1, cutoff - 1, cutoff, cutoff + 1,
        chunk - 1, chunk, chunk + 1, 2 * chunk + 7,
    ):
        rng, ref_rng = np.random.default_rng(size), np.random.default_rng(size)
        ranks = zipf.sample_ranks(rng, size)
        assert np.array_equal(ranks, expected_ranks(zipf, ref_rng, size)), size
        assert _same_state(rng, ref_rng), size


def test_negative_size_is_rejected_like_the_reference(rng):
    zipf = ZipfDistribution(10, 1.2)
    with pytest.raises(ParameterError):
        reference_sample_ranks(zipf, rng, -1)
    with pytest.raises(ParameterError):
        zipf.sample_ranks(rng, -1)


# ----------------------------------------------------------------------
# Injected uniforms: zero, bucket edges, CDF values, the top sliver
# ----------------------------------------------------------------------
def _with_neighbours(values: np.ndarray) -> np.ndarray:
    spread = np.concatenate(
        [values, np.nextafter(values, 0.0), np.nextafter(values, 1.0)]
    )
    # rng.random draws from [0, 1).
    return spread[(spread >= 0.0) & (spread < 1.0)]


@given(n_keys=n_keys_st, alpha=alpha_st)
@example(n_keys=1, alpha=1.2)
@example(n_keys=256, alpha=0.0)  # every bucket edge is a CDF value
@example(n_keys=1024, alpha=0.0)
@example(n_keys=300, alpha=8.0)  # 193 tied CDF entries, 5 ulp under 1
@example(n_keys=300, alpha=40.0)  # every entry from rank 2 on is 1.0
@settings(
    max_examples=60,
    deadline=None,
    # The fixture is a class, not state: nothing to reset between inputs.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_injected_uniforms_equal_full_search(
    n_keys, alpha, scripted_uniforms
):
    zipf = ZipfDistribution(n_keys, alpha)
    cdf = zipf._cumulative
    buckets, _, _ = zipf._guide()
    uniforms = np.concatenate(
        [
            [0.0, np.nextafter(1.0, 0.0)],
            _with_neighbours(np.arange(buckets + 1) / buckets),
            _with_neighbours(cdf),
        ]
    )
    want = np.minimum(np.searchsorted(cdf, uniforms, side="left") + 1, n_keys)
    # Through the guide, in several chunks; then through the small-draw
    # path, which must clamp the same way.
    for cutoff in (1, uniforms.size + 1):
        with block_sizes(SMALL_CHUNK, cutoff):
            stream = scripted_uniforms(uniforms)
            got = zipf.sample_ranks(stream, uniforms.size)
        assert stream.served == uniforms.size
        assert np.array_equal(got, want), cutoff


def test_top_sliver_is_the_only_difference(scripted_uniforms):
    # At the paper's default scale the CDF ends below the largest double
    # under 1: the reference leaves the key universe there, the sampler
    # does not, and they agree everywhere else.
    zipf = ZipfDistribution(40_000, 1.2)
    last = float(zipf._cumulative[-1])
    assert last < np.nextafter(1.0, 0.0)
    uniforms = np.tile([last, np.nextafter(last, 1.0)], 1000)
    reference = reference_sample_ranks(
        zipf, scripted_uniforms(uniforms), uniforms.size
    )
    ranks = zipf.sample_ranks(scripted_uniforms(uniforms), uniforms.size)
    assert (reference[1::2] == zipf.n_keys + 1).all()
    assert (ranks[1::2] == zipf.n_keys).all()
    assert np.array_equal(ranks[0::2], reference[0::2])


@pytest.mark.parametrize("n_keys, alpha", [(320_000, 0.8), (320_000, 1.2)])
def test_uniforms_on_every_bucket_edge(
    n_keys, alpha, scripted_uniforms, telemetry
):
    # Each edge b / buckets opens bucket b: through the guide it must
    # invert as the full search does, settled bucket or not. One uniform
    # a bucket, so the refined ones are the unsettled buckets.
    zipf = ZipfDistribution(n_keys, alpha)
    buckets, table, _ = zipf._guide()
    uniforms = np.arange(buckets) / buckets
    assert (table < 0).any() and (table >= 0).any()
    want = np.searchsorted(zipf._cumulative, uniforms, side="left") + 1
    ranks = zipf.sample_ranks(scripted_uniforms(uniforms), uniforms.size)
    assert np.array_equal(ranks, want)
    refined = telemetry.counters["workload.draw.refined"]
    assert refined == np.count_nonzero(table < 0)


def test_a_bucket_refined_from_lower_bound_zero(scripted_uniforms):
    # Uniform law over 3 keys, 2 buckets: bucket 0 holds the CDF entry
    # 1/3, so it is refined from lower bound 0, stored as ~0 == -1.
    zipf = ZipfDistribution(3, 0.0)
    buckets, table, _ = zipf._guide()
    assert buckets == 2 and table[0] == -1
    third = float(zipf._cumulative[0])
    uniforms = np.array(
        [0.0, np.nextafter(third, 0.0), third, np.nextafter(third, 1.0),
         np.nextafter(0.5, 0.0)]
    )
    with block_sizes(SMALL_CHUNK, 1):
        ranks = zipf.sample_ranks(scripted_uniforms(uniforms), uniforms.size)
    assert ranks.tolist() == [1, 1, 1, 2, 2]


def test_only_the_descent_reaches_past_the_last_key(scripted_uniforms):
    # The top bucket holds the CDF's last entries, so it is refined, and
    # a uniform in the sliver above cdf[-1] is clamped there; every
    # settled answer is already a key.
    zipf = ZipfDistribution(40_000, 1.2)
    buckets, table, _ = zipf._guide()
    last = float(zipf._cumulative[-1])
    assert table[-1] < 0 and (table < zipf.n_keys).all()
    assert int(last * buckets) == buckets - 1
    uniforms = np.tile([np.nextafter(last, 1.0), np.nextafter(1.0, 0.0)], 600)
    ranks = zipf.sample_ranks(scripted_uniforms(uniforms), uniforms.size)
    assert (ranks == zipf.n_keys).all()


@given(n_keys_st, alpha_st, size_st, seed_st)
@example(1, 0.0, 2 * SMALL_CHUNK + 1, 0)
@settings(max_examples=60, deadline=None)
def test_identity_copy_equals_the_gather(n_keys, alpha, size, seed):
    # draw_into without a mapping copies each rank index as the key; with
    # an explicit arange it gathers. Same ranks, keys and generator state.
    zipf = ZipfDistribution(n_keys, alpha)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ranks, keys = np.empty(size, np.int64), np.empty(size, np.int64)
    want_ranks, want_keys = np.empty(size, np.int64), np.empty(size, np.int64)
    with block_sizes(SMALL_CHUNK, SMALL_CUTOFF):
        zipf.draw_into(rng, ranks, keys)
        zipf.draw_into(ref_rng, want_ranks, want_keys, np.arange(n_keys))
    assert np.array_equal(ranks, want_ranks)
    assert np.array_equal(keys, want_keys)
    assert np.array_equal(keys, ranks - 1)
    assert _same_state(rng, ref_rng)


@given(n_keys_st, alpha_st, size_st, seed_st, st.booleans())
@settings(max_examples=60, deadline=None)
def test_a_keys_only_draw_equals_the_keys_of_a_full_draw(
    n_keys, alpha, size, seed, mapped
):
    # draw_into without a rank buffer writes the keys a full draw writes,
    # copied or gathered, and leaves the generator where it leaves it.
    zipf = ZipfDistribution(n_keys, alpha)
    mapping = np.random.default_rng(seed).permutation(n_keys) if mapped else None
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    keys = np.empty(size, np.int64)
    want_ranks, want_keys = np.empty(size, np.int64), np.empty(size, np.int64)
    with block_sizes(SMALL_CHUNK, SMALL_CUTOFF):
        zipf.draw_into(rng, None, keys, mapping)
        zipf.draw_into(ref_rng, want_ranks, want_keys, mapping)
    assert np.array_equal(keys, want_keys)
    assert _same_state(rng, ref_rng)


# ----------------------------------------------------------------------
# The batch workloads: draw_rounds(out=...) vs the per-round reference
# ----------------------------------------------------------------------
WORKLOADS = {
    "stationary": lambda zipf, rng, shift: StationaryZipf().build(zipf, rng),
    "shuffled": lambda zipf, rng, shift: RankSwap(shift).build(zipf, rng),
    "flash_crowd": lambda zipf, rng, shift: FlashCrowd(shift).build(zipf, rng),
}


def _reference_rounds(workload, start, counts):
    """Successive pre-optimisation ``draw_round`` calls, which gather
    every key from the mapping (the identity, ``None``, as an array)."""
    if workload.rank_to_key is None:
        workload.rank_to_key = np.arange(workload.n_keys)
    ranks_parts, keys_parts = [], []
    for i, count in enumerate(counts):
        workload.maybe_shift(start + i + 1.0)
        ranks = np.minimum(
            reference_sample_ranks(workload.zipf, workload.rng, int(count)),
            workload.n_keys,
        )
        ranks_parts.append(ranks)
        keys_parts.append(workload.rank_to_key[ranks - 1])
    return np.concatenate(ranks_parts), np.concatenate(keys_parts)


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
@given(
    n_keys=n_keys_st,
    alpha=alpha_st,
    counts=st.lists(st.integers(0, 3 * SMALL_CHUNK), min_size=1, max_size=8),
    shift=st.integers(0, 9),
    supply_out=st.booleans(),
    seed=seed_st,
)
@settings(max_examples=60, deadline=None)
def test_draw_rounds_equals_per_round_reference(
    kind, n_keys, alpha, counts, shift, supply_out, seed
):
    zipf = ZipfDistribution(n_keys, alpha)
    counts = np.asarray(counts)
    total = int(counts.sum())
    batched = WORKLOADS[kind](zipf, np.random.default_rng(seed), float(shift))
    looped = WORKLOADS[kind](zipf, np.random.default_rng(seed), float(shift))
    stepped = WORKLOADS[kind](zipf, np.random.default_rng(seed), float(shift))
    out = (
        (np.full(total + 3, -1), np.full(total + 3, -1)) if supply_out else None
    )
    with block_sizes(SMALL_CHUNK, SMALL_CUTOFF):
        ranks, keys, offsets = batched.draw_rounds(0.0, counts, out=out)
        rounds = [
            stepped.draw_round(i + 1.0, int(count))
            for i, count in enumerate(counts)
        ]
    want_ranks, want_keys = _reference_rounds(looped, 0.0, counts)
    assert np.array_equal(ranks, want_ranks)
    assert np.array_equal(keys, want_keys)
    assert np.array_equal(np.concatenate([r for r, _ in rounds]), want_ranks)
    assert np.array_equal(np.concatenate([k for _, k in rounds]), want_keys)
    assert np.array_equal(offsets, np.concatenate(([0], np.cumsum(counts))))
    mapping = batched.rank_to_key
    assert np.array_equal(
        np.arange(n_keys) if mapping is None else mapping, looped.rank_to_key
    )
    assert _same_state(batched.rng, looped.rng)
    assert _same_state(stepped.rng, looped.rng)
    if supply_out:
        assert ranks.base is out[0] and keys.base is out[1]
        assert (out[0][total:] == -1).all() and (out[1][total:] == -1).all()
