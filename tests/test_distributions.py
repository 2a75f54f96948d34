"""Tests for probability tables, sampling, and distance computation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from passv import distributions, errors
from passv.configurations import (
    ModeConfiguration,
    ParityPattern,
    bounded_occupations,
    collision_free_array,
    configuration_array,
    enumerate_configurations,
    parity_array,
)
from passv.distributions import (
    DRAW_BLOCK,
    DRAW_BYTES,
    OutputDistribution,
    draw_indices,
    draw_samples,
    inverse_cdf,
    total_variation_distance,
)
from passv.errors import SizeLimitError, ValidationError
from passv.evolution import build_passv_input, parity_distribution
from passv.experiments import brute_force_parity, predicted_parity_distribution
from passv.networks import haar_special_orthogonal

A = ModeConfiguration((1, 0))
B = ModeConfiguration((0, 1))


def _array_table(occupations, probs, **kwargs):
    return OutputDistribution(np.array(occupations, dtype=np.intp), probs, **kwargs)


def _coin(p: float) -> OutputDistribution:
    return _array_table([[1, 0], [0, 1]], [p, 1.0 - p])


def test_defect_is_computed_when_not_supplied():
    dist = _array_table([[1, 0], [0, 1]], [0.25, 0.25])
    assert dist.normalization_defect == pytest.approx(0.5)
    assert dist.total() == pytest.approx(0.5)


def test_declared_defect_is_kept():
    dist = _array_table([[1, 0]], [0.25], normalization_defect=0.75)
    assert dist.normalization_defect == 0.75


def test_duplicate_keys_rejected():
    with pytest.raises(ValidationError):
        _array_table([[1, 0], [1, 0]], [0.5, 0.5])
    with pytest.raises(ValidationError, match=r"duplicate .*\(0, 1\)"):
        _array_table([[0, 1], [1, 0], [0, 1], [1, 0]], [0.2, 0.3, 0.1, 0.4])


def test_negative_probability_rejected_but_noise_clipped():
    with pytest.raises(ValidationError):
        _array_table([[1, 0]], [-0.1])
    with pytest.raises(ValidationError, match=r"-0.25 for key .*\(0, 1\)"):
        _array_table([[1, 0], [0, 1]], [0.5, -0.25])
    dist = _array_table([[1, 0], [0, 1]], [-1e-15, 1.0])
    assert dist.probability(A) == 0.0
    assert dist.probabilities.tolist() == [0.0, 1.0]
    assert dist.normalization_defect == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_probability_or_defect_rejected_naming_the_key(bad):
    with pytest.raises(ValidationError, match=r"non-finite probability .* for key .*\(0, 1\)"):
        _array_table([[1, 0], [0, 1]], [1.0, bad])
    with pytest.raises(ValidationError, match=r"non-finite probability .*\(0,\)"):
        OutputDistribution(np.array([[0], [1]]), [bad, 1.0])
    with pytest.raises(ValidationError, match="non-finite normalization_defect"):
        _array_table([[1, 0], [0, 1]], [0.5, 0.5], normalization_defect=bad)


def test_probabilities_are_the_tables_own_read_only_vector():
    dist = _array_table([[1, 0], [0, 1]], [0.25, 0.75])
    assert dist.probabilities is dist.probabilities
    with pytest.raises(ValueError):
        dist.probabilities[0] = 0.5
    assert dist.normalized().probabilities.tolist() == [0.25, 0.75]


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 5), (4, 4), (2, 12)])
def test_builders_rows_are_distinct(n, m):
    """The rows that tables take without the duplicate check differ by construction."""
    layouts = [bounded_occupations(m, n + 3, parity).T for parity in (None, 0, 1)]
    for rows in [configuration_array(n, m), collision_free_array(n, m), parity_array(m), *layouts]:
        assert distributions._duplicate_row(distributions._occupation_rows(rows)) is None


def test_lazy_index_answers_lookups_like_a_dict():
    keys = enumerate_configurations(3, 4)
    probs = np.random.default_rng(3).random(len(keys))
    dist = OutputDistribution(configuration_array(3, 4), probs)
    assert dist._index is None  # built on the first lookup, not by the constructor
    reference = dict(zip(keys, probs.tolist()))
    for key in keys:
        assert key in dist
        assert dist.probability(key) == reference[key]
    for absent in (ModeConfiguration((4, 0, 0, 0, 0)), ModeConfiguration((1, 0)), "3,0,0,0"):
        assert absent not in dist
        assert dist.probability(absent, default=-1.0) == -1.0


# ------------------------------------------------------------- array-backed form


def test_array_form_rejects_duplicate_rows_naming_the_configuration():
    with pytest.raises(ValidationError, match=r"duplicate .*\(0, 1\)"):
        _array_table([[0, 1], [1, 0], [0, 1]], [0.2, 0.3, 0.5])
    rows = configuration_array(3, 4)
    _array_table(rows, np.full(len(rows), 1.0 / len(rows)))  # distinct rows pass
    assert rows[7].tolist() == [1, 0, 2, 0]
    with pytest.raises(ValidationError, match=r"duplicate .*\(1, 0, 2, 0\)"):
        _array_table(np.vstack((rows, rows[7:8])), np.full(len(rows) + 1, 0.01))


def _first_duplicate(rows) -> list | None:
    ordered = sorted(map(tuple, rows))
    return next((list(a) for a, b in zip(ordered, ordered[1:]) if a == b), None)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(st.integers(0, 6), min_size=3, max_size=3),
                     min_size=0, max_size=40))
def test_duplicate_row_is_the_first_repeat_in_lexicographic_order(rows):
    # The same rows beside a column of 2^40, too wide for the rows to be read
    # as one int64 key each, must name the same first repeat.
    narrow = np.array(rows, dtype=np.intp).reshape(-1, 3)
    wide = np.hstack((narrow, np.full((len(narrow), 1), 2 ** 40, dtype=np.intp)))
    assert 7 ** 3 < 2 ** 63 <= (2 ** 40 + 1) ** 4
    expected = _first_duplicate(rows)
    found = distributions._duplicate_row(narrow)
    assert (found if found is None else found.tolist()) == expected
    found = distributions._duplicate_row(wide)
    assert (found if found is None else found[:3].tolist()) == expected


def test_duplicate_row_key_widths():
    # A repeat is found whether (max + 1)^m is just under 2^63, so that each
    # row would fit one int64 key, or past it, where no such key fits.
    fits = np.array([[0, 3], [2, 1], [0, 3], [2, 1]]) * (2 ** 31 - 1) // 3
    assert (int(fits.max()) + 1) ** 2 == 2 ** 62
    assert distributions._duplicate_row(fits).tolist() == fits[0].tolist()
    assert distributions._duplicate_row(np.array([[2 ** 62, 0], [0, 1]])) is None
    wide = np.array([[5, 2 ** 62], [1, 2 ** 62], [5, 2 ** 62], [1, 2 ** 62]])
    assert distributions._duplicate_row(wide).tolist() == [1, 2 ** 62]
    with pytest.raises(ValidationError, match=r"duplicate .*\(1, 4611686018427387904\)"):
        _array_table(wide, [0.25] * 4)


def test_array_form_rejects_negative_entries_naming_the_key_and_clamps_noise():
    with pytest.raises(ValidationError, match=r"-0.25 for key .*\(0, 1\)"):
        _array_table([[1, 0], [0, 1]], [0.5, -0.25])
    dist = _array_table([[1, 0], [0, 1]], [-1e-15, 1.0])
    assert dist.probabilities.tolist() == [0.0, 1.0]
    assert dist.probability(A) == 0.0
    assert dist.normalization_defect == 0.0


def test_array_form_rejects_malformed_input():
    for bad in (np.array([1, 0]), np.array([[1.0, 0.0]]), np.array([[1, -1]]),
                np.zeros((1, 0), dtype=np.intp)):
        with pytest.raises(ValidationError):
            OutputDistribution(bad, [1.0])
    with pytest.raises(ValidationError):
        _array_table([[1, 0], [0, 1]], [1.0])
    with pytest.raises(ValidationError):  # (key, p) pairs are not rows
        OutputDistribution([(A, 1.0)], [1.0])
    with pytest.raises(TypeError):
        OutputDistribution(np.array([[1, 0]]))


def test_array_form_answers_like_a_dict_of_its_keys():
    rows = configuration_array(3, 4)
    probs = np.random.default_rng(5).random(len(rows))
    probs[[0, 4, len(rows) - 1]] = 0.0
    keys = enumerate_configurations(3, 4)
    reference = dict(zip(keys, probs.tolist()))
    dist = OutputDistribution(rows, probs)
    assert len(dist) == len(reference)
    assert dist.total() == float(probs.sum())
    assert dist.normalization_defect == abs(1.0 - float(probs.sum()))
    assert dist._keys is None  # nothing above needed a key object
    assert dist.keys == keys
    assert list(dist.items()) == list(reference.items())
    assert dist.support == list(reference.items())
    for key in keys + [ModeConfiguration((4, 0, 0, 0)), ModeConfiguration((1, 0)), "3,0,0,0"]:
        assert (key in dist) == (key in reference)
        assert dist.probability(key, default=-1.0) == reference.get(key, -1.0)
    normalized = dist.normalized()
    assert np.array_equal(normalized.occupations, rows) and normalized._keys is None
    assert list(normalized.items()) == list(zip(keys, (probs / dist.total()).tolist()))
    assert normalized.normalization_defect == 0.0


def test_array_form_keeps_a_read_only_view_of_the_rows():
    rows = configuration_array(2, 3)
    dist = OutputDistribution(rows, np.full(len(rows), 1 / 6))
    assert np.array_equal(dist.occupations, rows)
    with pytest.raises(ValueError):
        dist.occupations[0, 0] = 9


def test_array_form_builds_keys_once_on_first_use(monkeypatch):
    calls = []
    original = distributions.configurations_from_array

    def counting(occupations):
        calls.append(len(occupations))
        return original(occupations)

    monkeypatch.setattr(distributions, "configurations_from_array", counting)
    dist = _array_table([[1, 0], [0, 1]], [0.25, 0.75])
    assert dist.probabilities.tolist() == [0.25, 0.75]
    assert len(dist) == 2 and dist.total() == 1.0
    assert calls == []
    assert dist.probability(B) == 0.75
    assert dist.keys == [A, B]
    assert draw_samples(dist, 3, 5)
    assert calls == [2]


def test_parity_table_refuses_rows_above_one_and_other_keys():
    assert _array_table([[1, 0], [0, 2]], [0.5, 0.5]).keys[1] == ModeConfiguration((0, 2))
    with pytest.raises(ValidationError, match="0 .*or 1"):
        _array_table([[1, 0], [0, 2]], [0.5, 0.5], key=ParityPattern)
    parity = _array_table([[1, 0], [0, 1], [0, 0]], [0.5, 0.5, 0.0], key=ParityPattern)
    assert parity.keys == [ParityPattern((-1, 1)), ParityPattern((1, -1)), ParityPattern((1, 1))]
    with pytest.raises(ValidationError, match=r"duplicate .*\(1, -1\)"):
        _array_table([[0, 1], [0, 1]], [0.5, 0.5], key=ParityPattern)
    for key in (tuple, str, "ParityPattern", None):
        with pytest.raises(ValidationError, match="key must be"):
            _array_table([[1, 0]], [1.0], key=key)


@pytest.mark.parametrize("build", ["predicted", "brute_force", "state"])
def test_parity_tables_make_no_pattern_until_keys_are_used(monkeypatch, build):
    lookup = ParityPattern((-1, -1, 1))
    made, built = [], []
    post_init = ParityPattern.__post_init__
    monkeypatch.setattr(ParityPattern, "__post_init__",
                        lambda self: made.append(self) or post_init(self))
    original = distributions.patterns_from_array
    monkeypatch.setattr(distributions, "patterns_from_array",
                        lambda rows: built.append(len(rows)) or original(rows))
    if build == "predicted":
        dist = predicted_parity_distribution(haar_special_orthogonal(3, 2), 2)
    elif build == "brute_force":
        dist, _, _ = brute_force_parity(2, 3, 0.4, seed=2)
    else:
        dist = parity_distribution(build_passv_input(2, 3, 0.4, "added", 6))
    assert len(dist) == len(dist.occupations) and dist.total() > 0
    assert dist.key is ParityPattern and dist.normalized().key is ParityPattern
    assert made == [] and built == []
    assert dist.probability(lookup) > 0
    assert made == [] and built == [len(dist)]
    assert lookup in dist.keys and built == [len(dist)]


# ------------------------------------------------------------------- lookups


def test_lookup_and_container_protocol():
    dist = _coin(0.75)
    assert dist.probability(A) == 0.75
    assert dist.probability(ModeConfiguration((2, 0))) == 0.0
    assert dist.probability(ModeConfiguration((2, 0)), default=-1.0) == -1.0
    assert A in dist
    assert ModeConfiguration((2, 0)) not in dist
    assert len(dist) == 2
    assert dist.keys == [A, B]
    assert list(dist.items()) == [(A, 0.75), (B, 0.25)]


def test_zero_probabilities_are_retained():
    dist = _array_table([[1, 0], [0, 1]], [0.0, 1.0])
    assert len(dist) == 2
    assert dist.support[0] == (A, 0.0)


def test_normalized_rescales_to_unit_mass():
    dist = _array_table([[1, 0], [0, 1]], [0.2, 0.6]).normalized()
    assert dist.probability(A) == pytest.approx(0.25)
    assert dist.probability(B) == pytest.approx(0.75)
    assert dist.normalization_defect == 0.0
    with pytest.raises(ValidationError):
        _array_table([[1, 0]], [0.0]).normalized()


def test_restrict_filters_and_recomputes_defect():
    dist = _coin(0.75).restrict(lambda k: k == A)
    assert dist.keys == [A]
    assert dist.normalization_defect == pytest.approx(0.25)


def test_draw_samples_deterministic_per_seed():
    dist = _coin(0.5)
    first = draw_samples(dist, 42, 100)
    second = draw_samples(dist, 42, 100)
    assert first == second
    assert draw_samples(dist, 43, 100) != first
    assert draw_samples(dist, 42, 0) == []


def test_draw_samples_frequencies_near_probabilities():
    shots = 40000
    samples = draw_samples(_coin(0.5), 77, shots)
    freq = sum(1 for k in samples if k == A) / shots
    # five binomial standard errors at p = 1/2
    assert abs(freq - 0.5) < 5.0 * 0.5 / np.sqrt(shots)


def test_draw_samples_point_mass():
    dist = _array_table([[1, 0], [0, 1]], [1.0, 0.0])
    assert set(draw_samples(dist, 5, 50)) == {A}


def _reference_indices(cdf, draws):
    return np.minimum(np.searchsorted(cdf, draws, side="right"), len(cdf) - 1)


def _cdf(weights):
    probs = np.asarray(weights, dtype=np.float64)
    cdf = np.cumsum(probs / probs.sum())
    cdf[-1] = 1.0
    return cdf


def _probing_draws(cdf, shots, seed):
    """Uniform draws plus every tie with a CDF entry and every bucket boundary."""
    buckets = 1 << (len(cdf) - 1).bit_length()
    return np.concatenate((np.random.default_rng(seed).random(shots), cdf[cdf < 1.0],
                           np.arange(buckets) / buckets, np.nextafter(cdf[cdf < 1.0], 0.0)))


WEIGHT = st.one_of(st.just(0.0), st.floats(1e-300, 1e-200), st.floats(1e-9, 1.0))


@settings(max_examples=120, deadline=None)
@given(weights=st.lists(WEIGHT, min_size=1, max_size=300).filter(lambda w: sum(w) > 0),
       shots=st.integers(0, 2 * DRAW_BLOCK + 5), seed=st.integers(0, 2**32 - 1))
@example(weights=[1.0], shots=0, seed=0)  # K = 1, no shots
@example(weights=[1.0], shots=DRAW_BLOCK + 1, seed=1)
@example(weights=[1.0] + [0.0] * 99, shots=7, seed=2)  # point mass on the first entry
@example(weights=[0.0] * 99 + [1.0], shots=7, seed=3)  # point mass on the last entry
@example(weights=[0.0] * 40 + [1.0] * 3 + [0.0] * 40 + [2.0] + [0.0] * 20, shots=500, seed=4)
@example(weights=[1e-9] * 255 + [1.0], shots=3 * DRAW_BLOCK - 1, seed=5)  # one bucket
# Steps of 1/100 over 128 buckets: every bracket holds at most one index, so
# every draw is closed by the one probe.
@example(weights=[1.0] * 100, shots=2 * DRAW_BLOCK + 5, seed=6)
# Each step of 1/40 carries two entries 1e-9 above it into its bucket: 40 of
# the 128 brackets are 3 wide, and a third of the draws of every block is bisected.
@example(weights=[1.0, 1e-9, 1e-9] * 40, shots=2 * DRAW_BLOCK + 5, seed=7)
def test_guide_table_search_equals_searchsorted(weights, shots, seed):
    cdf = _cdf(weights)
    draws = _probing_draws(cdf, shots, seed)
    assert np.array_equal(inverse_cdf(cdf, draws), _reference_indices(cdf, draws))


def test_the_examples_have_the_bracket_widths_they_claim():
    def widths(weights):
        cdf = _cdf(weights)
        buckets = 1 << (len(cdf) - 1).bit_length()
        guide = np.minimum(np.searchsorted(cdf, np.arange(buckets + 1) / buckets, side="right"),
                           len(cdf) - 1)
        return np.diff(guide)

    assert widths([1.0] * 100).max() == 1
    wide = widths([1.0, 1e-9, 1e-9] * 40)
    assert wide.max() == 3 and np.count_nonzero(wide > 1) == 40


def test_guide_table_search_with_every_entry_in_one_bucket():
    # 255 entries below 1/256 share bucket 0, the widest bracket there can be.
    cdf = _cdf([1e-9] * 255 + [1.0])
    assert cdf[-2] < 1 / 256
    draws = np.concatenate((np.linspace(0.0, cdf[-2] * 1.01, 2 * DRAW_BLOCK + 3), cdf[:-1]))
    found = inverse_cdf(cdf, draws)
    assert np.array_equal(found, _reference_indices(cdf, draws))
    assert set(found.tolist()) == set(range(256))


@pytest.mark.parametrize("shots", [0, 1, DRAW_BLOCK, DRAW_BLOCK + 1, 3 * DRAW_BLOCK - 7,
                                   4 * DRAW_BLOCK + 3])
def test_draw_indices_equal_searchsorted_over_the_same_stream(shots):
    rows = configuration_array(3, 5)
    probs = np.random.default_rng(9).random(len(rows)) ** 4
    probs[10:20] = 0.0
    dist = OutputDistribution(rows, probs / probs.sum())
    cdf = _cdf(dist.probabilities)
    draws = np.random.default_rng(11).random(shots)
    found = draw_indices(dist, 11, shots)
    assert found.dtype == np.intp and found.shape == (shots,)
    assert np.array_equal(found, _reference_indices(cdf, draws))


def test_draw_samples_refuses_subnormalized_tables():
    with pytest.raises(ValidationError):
        draw_samples(_array_table([[1, 0]], [0.7]), 1, 10)
    with pytest.raises(ValidationError):
        draw_samples(_coin(0.5), -3, 10)
    with pytest.raises(ValidationError):
        draw_samples(_coin(0.5), 1, -1)


def test_shots_guard_fires_before_allocation(monkeypatch):
    dist = _coin(0.5)
    # Draws are counted at DRAW_BYTES each: a limit of three admits three.
    monkeypatch.setattr(errors, "MEMORY_LIMIT", 3 * DRAW_BYTES)
    assert len(draw_indices(dist, 1, 3)) == 3
    with pytest.raises(SizeLimitError):
        draw_indices(dist, 1, 4)
    # 10 million draws are admitted, and the next is refused before any is made.
    monkeypatch.setattr(errors, "MEMORY_LIMIT", 10_000_000 * DRAW_BYTES)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError):
            draw_indices(dist, 1, 10_000_001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_tvd_identical_distributions():
    assert total_variation_distance(_coin(0.3), _coin(0.3)) == 0.0


def test_tvd_known_value():
    assert total_variation_distance(_coin(0.6), _coin(0.4)) == pytest.approx(0.2)


def test_tvd_disjoint_supports():
    p = _array_table([[1, 0]], [1.0])
    q = _array_table([[0, 1]], [1.0])
    assert total_variation_distance(p, q) == pytest.approx(1.0)


def test_tvd_is_symmetric():
    p = _coin(0.9)
    q = _coin(0.1)
    assert total_variation_distance(p, q) == total_variation_distance(q, p)


def test_tvd_rejects_mixed_key_domains():
    p = _array_table([[1, 0]], [1.0])
    q = _array_table([[1, 0]], [1.0], key=ParityPattern)
    assert q.keys == [ParityPattern((-1, 1))]
    with pytest.raises(ValidationError):
        total_variation_distance(p, q)
