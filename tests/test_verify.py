import math

import numpy as np
import pytest

from menhir import calculus, lorentz, verify
from menhir.algebra import COMPLEX, RESIDUE_BOUND, Algebra, algebra_for_dimension, vector_embed, vector_part
from menhir.calculus import compose_menhirs, menhir_of, thomas_rotation, velocity_of
from util import (
    exact_polar_split,
    needs_extended_split,
    reference_boost_matrix,
    reference_polar_decompose,
)

_TRIAL = verify.composition_trial


def _drawn_pairs(monkeypatch, seed, trials=1000, key="clifford3"):
    """(v, w) of every trial a run draws, via the per-trial function it calls."""
    pairs = []

    def recording(rng, key, tier="normal"):
        result = _TRIAL(rng, key, tier)
        pairs.append((tuple(result[2]), tuple(result[3])))
        return result

    monkeypatch.setattr(verify, "composition_trial", recording)
    verify.run_equivalence(key, trials, seed)
    return pairs


def test_a_trial_checks_each_input_once(monkeypatch):
    """A trial runs the ball check at most five times: on its two velocities
    (`menhir_of`), on the composite (`velocity_of`) and in the oracle's own
    two; the menhirs are not checked again."""
    checked, check = [], calculus._check_ball

    def counting(x, what):
        checked.append(what)
        return check(x, what)

    for module in (calculus, lorentz):
        monkeypatch.setattr(module, "_check_ball", counting)
    for key in verify.CONFIGS:
        for tier in verify.TIERS:
            checked.clear()
            _TRIAL(np.random.default_rng([2902, 0]), key, tier)
            assert len(checked) <= 5, (key, tier, checked)


def test_sample_velocity_draws_as_uniform():
    """The sampling helpers are their plain forms written out, bit for bit,
    over 2000 trial keys for each n = 1..5 and tier: `sample_direction` is
    d / np.linalg.norm(d), and `sample_velocity` that direction times
    rng.uniform(lo, hi), each from a generator seeded alike and left in the
    same state."""
    for index in range(2000):
        for n in range(1, 6):
            for lo, hi, _ in verify.TIERS.values():
                ours, plain = (np.random.default_rng([3401, index]) for _ in range(2))
                d = plain.standard_normal(n)
                direction = d / np.linalg.norm(d)
                velocity = direction * plain.uniform(lo, hi)
                assert verify.sample_velocity(ours, n, lo, hi).tobytes() == velocity.tobytes()
                assert ours.random() == plain.random()
                ours = np.random.default_rng([3401, index])
                assert verify.sample_direction(ours, n).tobytes() == direction.tobytes()


class _StubGenerator:
    """Hands out the given standard normal draws in turn."""

    def __init__(self, *draws):
        self.draws = [np.array(d, dtype=float) for d in draws]

    def standard_normal(self, n):
        d = self.draws.pop(0)
        assert d.size == n
        return d


@pytest.mark.parametrize("short", [[0.0], [verify._MIN_DIRECTION_NORM], [0.0, -verify._MIN_DIRECTION_NORM],
                                   [6e-7, 8e-7], [0.0, 0.0, 0.0]])
def test_a_short_draw_is_drawn_again(short):
    """A first draw with a norm of at most `_MIN_DIRECTION_NORM` is drawn
    again, and the next one is normalised."""
    n = len(short)
    again = np.arange(1.0, n + 1.0)
    rng = _StubGenerator(short, again)
    assert verify.sample_direction(rng, n).tobytes() == (again / np.linalg.norm(again)).tobytes()
    assert not rng.draws


def test_master_seeds_draw_independent_trials(monkeypatch):
    first = _drawn_pairs(monkeypatch, 42)
    second = _drawn_pairs(monkeypatch, 43)
    assert len(set(first)) == len(first) == 1000
    assert not set(first) & set(second)


def test_nan_error_fails_its_trial(monkeypatch):
    calls = []

    def nan_first(rng, key, tier="normal"):
        """A NaN velocity (clifford3) or rotation error in the first trial only."""
        v_err, r_err, v, w = _TRIAL(rng, key, tier)
        calls.append(key)
        if len(calls) == 1:
            return (math.nan, r_err, v, w) if key == "clifford3" else (v_err, math.nan, v, w)
        return v_err, r_err, v, w

    monkeypatch.setattr(verify, "composition_trial", nan_first)
    for key, field in (("clifford3", "max_velocity_error"), ("complex", "max_rotation_error")):
        calls.clear()
        report = verify.run_equivalence(key, 3, 42)
        assert not report.ok and [k[1] for k, _, _ in report.failures] == [0]
        assert math.isnan(getattr(report, field))


def test_nan_residue_is_kept(monkeypatch):
    # a NaN off the velocity model fails its trial and is the reported max,
    # and the three-way spread is NaN; `max(x, nan)` would have kept x
    split = Algebra.model_split
    monkeypatch.setattr(Algebra, "model_split",
                        lambda self, coeffs, n: (split(self, coeffs, n)[0], math.nan))
    report = verify.run_equivalence("clifford3", 3, 42)
    assert [k[1] for k, _, _ in report.failures] == [0, 1, 2]
    assert math.isnan(report.max_velocity_error)
    stars = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert math.isnan(verify.aberration_spread(np.array([0.6, 0.0]), stars, COMPLEX))


def test_aberration_spread_of_no_stars_is_zero():
    for v in (np.array([0.6, 0.0]), np.array([0.3, -0.2, 0.5])):
        stars = np.empty((0, v.size))
        assert verify.aberration_spread(v, stars, algebra_for_dimension(v.size)) == 0.0


def test_tolerance_must_be_finite_and_non_negative():
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError):
            verify.run_equivalence("complex", 1, 42, tolerance=bad)
    assert verify.run_equivalence("complex", 1, 42, tolerance=0.0).trials == 1


def test_run_rejects_zero_trials_and_unknown_names():
    with pytest.raises(ValueError, match="at least one trial"):
        verify.run_equivalence("complex", 0, 42)
    with pytest.raises(ValueError, match="unknown configuration 'octonion'"):
        verify.run_equivalence("octonion", 1, 42)
    with pytest.raises(ValueError, match="unknown tier 'gentle'"):
        verify.run_equivalence("complex", 1, 42, "gentle")


def test_failure_key_replays_its_trial():
    report = verify.run_equivalence("clifford3", 5, 42, tolerance=0.0)
    assert len(report.failures) == 5
    for key, inputs, _ in report.failures:
        _, _, v, w = verify.composition_trial(np.random.default_rng(key), "clifford3")
        assert key[0] == 42 and inputs == {"v": v.tolist(), "w": w.tolist()}


@needs_extended_split
def test_stress_failure_of_key_1765266107_40_is_the_oracles():
    """Trial 40 of master seed 1765266107 (|v| = 0.9999983, |w| = 0.9999952)
    failed the stress tier's 1e-6 in the quaternion and clifford4 lanes, with
    a rotation error of 1.8e-6, while the trial's oracle was the float64
    split of the first version, `reference_polar_decompose` of the reference
    boosts.  That oracle still misses a 50-digit polar split of L(w) L(v) by
    the whole 1.8e-6: its `L @ B(-u)` cancels entries of size gamma^2.  The
    menhir velocity and rotation matrix are within 1e-13 of the 50-digit
    split, and the trial, now split by `composition_split`, passes with
    errors within 1e-13 of the menhir side's own: the miss was the oracle's."""
    for key in ("quaternion", "clifford4"):
        algebra, n = verify.CONFIGS[key]
        v_err, r_err, v, w = verify.composition_trial(
            np.random.default_rng([1765266107, 40]), key, "stress")
        assert abs(np.linalg.norm(v) - 0.9999983) <= 1e-7
        assert abs(np.linalg.norm(w) - 0.9999952) <= 1e-7
        u_exact, r_exact = exact_polar_split(v, w)

        ev = menhir_of(vector_embed(v, algebra))
        ew = menhir_of(vector_embed(w, algebra))
        u_menhir = vector_part(velocity_of(compose_menhirs(ev, ew)), n, RESIDUE_BOUND)
        menhir_v_err = np.abs(u_menhir - u_exact).max()
        menhir_r_err = np.abs(thomas_rotation(ev, ew).matrix(n) - r_exact).max()
        assert max(menhir_v_err, menhir_r_err) <= 1e-13
        assert abs(v_err - menhir_v_err) <= 1e-13
        assert abs(r_err - menhir_r_err) <= 1e-13
        assert verify.run_equivalence(key, 41, 1765266107, "stress", tolerance=1e-12).ok

        L = reference_boost_matrix(w) @ reference_boost_matrix(v)
        rotation, _ = reference_polar_decompose(L)
        oracle_err = np.abs(rotation[1:, 1:] - r_exact).max()
        assert abs(oracle_err - 1.8e-6) <= 1e-7


# -- one oracle split per velocity pair --------------------------------------------

_SHARING_TRIALS = 200


def _empty_stores():
    for store, _ in verify._SPLITS.values():
        store.clear()


def _trial_bytes(v_err, r_err, v, w):
    return np.float64(v_err).tobytes(), np.float64(r_err).tobytes(), v.tobytes(), w.tobytes()


@pytest.fixture
def split_calls(monkeypatch):
    """Every store emptied, before and after; the list that each
    `composition_split` call in `verify` appends its lane's dimension to."""
    calls, split = [], verify.composition_split

    def counting(v, w):
        calls.append(np.size(v))
        return split(v, w)

    monkeypatch.setattr(verify, "composition_split", counting)
    _empty_stores()
    yield calls
    _empty_stores()


def _producers_and_consumers():
    lanes = {}
    for key, (_, n) in verify.CONFIGS.items():
        lanes.setdefault(n, []).append(key)
    return {n: keys for n, keys in lanes.items() if len(keys) > 1}


def test_lanes_of_one_dimension_split_each_pair_once(monkeypatch, split_calls):
    """Run in `CONFIGS` order, the eight lanes split 5T pairs, not 8T: each
    consumer takes its producer's splits.  Each lane's report equals the lane
    run alone on an empty store, and every consumer trial replayed alone
    gives the shared run's four values bit for bit."""
    T = _SHARING_TRIALS
    shared = _producers_and_consumers()
    assert sorted(shared) == [2, 3, 4]
    consumers = [key for _, *rest in shared.values() for key in rest]
    values = {}

    def recording(rng, key, tier="normal"):
        result = _TRIAL(rng, key, tier)
        values.setdefault(key, []).append(_trial_bytes(*result))
        return result

    monkeypatch.setattr(verify, "composition_trial", recording)
    for seed in (42, 2102):
        for tier in verify.TIERS:
            split_calls.clear()
            values.clear()
            reports = {key: verify.run_equivalence(key, T, seed, tier) for key in verify.CONFIGS}
            assert len(split_calls) == 5 * T, (seed, tier)
            assert sorted(set(split_calls)) == [1, 2, 3, 4, 5]
            shared_values = dict(values)
            for key in verify.CONFIGS:
                _empty_stores()
                values.clear()
                assert verify.run_equivalence(key, T, seed, tier) == reports[key], (seed, tier, key)
                assert values[key] == shared_values[key], (seed, tier, key)
            for key in consumers:
                for index in range(T):
                    replayed = _TRIAL(np.random.default_rng([seed, index]), key, tier)
                    assert _trial_bytes(*replayed) == shared_values[key][index], (seed, tier, key, index)


def test_split_stores_are_bounded(split_calls):
    """A producer run alone past the bound keeps at most `_STORE_SIZE`
    splits; its consumer takes what is held, splits the rest itself and
    inserts none.  The lanes of dimensions 1 and 5 have no store."""
    assert verify._STORE_SIZE == 1024
    assert {key for key, (_, n) in verify.CONFIGS.items() if n in (1, 5)} == {"real", "clifford5"}
    assert "real" not in verify._SPLITS and "clifford5" not in verify._SPLITS
    T = 3000
    for producer, consumer in _producers_and_consumers().values():
        store, keeps = verify._SPLITS[producer]
        assert keeps and verify._SPLITS[consumer] == (store, False)
        verify.run_equivalence(producer, T, 7, "normal")
        assert len(store) == verify._STORE_SIZE
        split_calls.clear()
        verify.run_equivalence(consumer, T, 7, "normal")
        assert len(split_calls) == T - verify._STORE_SIZE and not store
    for key in ("real", "clifford5"):
        verify.run_equivalence(key, 10, 7, "normal")
    assert not any(store for store, _ in verify._SPLITS.values())


def test_a_split_of_another_dtype_is_not_taken(monkeypatch, split_calls):
    """A store is keyed on `lorentz.SPLIT_DTYPE` too: with it set to float64
    after the producer ran, the consumer splits every pair itself."""
    T = _SHARING_TRIALS
    for producer, consumer in _producers_and_consumers().values():
        verify.run_equivalence(producer, T, 42, "stress")
        with monkeypatch.context() as patch:
            patch.setattr(lorentz, "SPLIT_DTYPE", np.float64)
            split_calls.clear()
            verify.run_equivalence(consumer, T, 42, "stress")
        assert len(split_calls) == T, (producer, consumer)
        assert len(verify._SPLITS[producer][0]) == T
