import numpy as np

from menhir import verify

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


def test_master_seeds_draw_independent_trials(monkeypatch):
    first = _drawn_pairs(monkeypatch, 42)
    second = _drawn_pairs(monkeypatch, 43)
    assert len(set(first)) == len(first) == 1000
    assert not set(first) & set(second)


def test_failure_key_replays_its_trial():
    report = verify.run_equivalence("clifford3", 5, 42, tolerance=0.0)
    assert len(report.failures) == 5
    for key, inputs, _ in report.failures:
        _, _, v, w = verify.composition_trial(np.random.default_rng(key), "clifford3")
        assert key[0] == 42 and inputs == {"v": v.tolist(), "w": w.tolist()}
