import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fluctwalk import certify, increments
from fluctwalk.conditioning import meander_sample, survival_probability
from fluctwalk.errors import BudgetError, ParameterError
from fluctwalk.experiments import windowed_ladder_pairs
from fluctwalk.fluctuation import ladder_epochs, local_time_strict, local_time_verbatim
from fluctwalk.increments import (IncrementLaw, WalkPath, _derived_seeds, _lattice_steps,
                                  _pcg64_states, _rng, derive_seed, iter_rows,
                                  sample_rows, sample_walk)
from fluctwalk.oracle import iter_paths
from fluctwalk.transforms import future_min_local_time, tanaka_transform


def test_point_mass_walk_is_deterministic_ramp():
    law = IncrementLaw.lattice([1], [1])
    w = sample_walk(law, 3, seed=7)
    assert w.values == (0.0, 1.0, 2.0, 3.0)


@pytest.mark.parametrize("law", [IncrementLaw.fair_pm1(),
                                 IncrementLaw.lattice(["-1/2", "1/2"], ["1/2", "1/2"]),
                                 IncrementLaw.lattice([-1, 0, 1], ["1/2", 0, "1/2"]),
                                 IncrementLaw.lattice([-1, "1/2", 1], ["1/2", 0, "1/2"])],
                         ids=["pm1", "pm-half", "zero-atom", "zero-atom-off-lattice"])
def test_fair_walk_encodings_are_simple_symmetric(law):
    # the one fair-walk test, and sigma the lattice unit u of +-u
    assert law.is_simple_symmetric()
    assert law.sigma() == float(law.lattice_integer_form()[0])


def test_other_laws_are_not_simple_symmetric():
    biased, u3 = IncrementLaw.biased_pm1(Fraction(3, 4)), IncrementLaw.uniform3()
    for law in (biased, u3, IncrementLaw.gaussian(), IncrementLaw.lattice([1], [1])):
        assert not law.is_simple_symmetric()
    assert biased.sigma() == math.sqrt(0.75)
    # the float sum sqrt(sum p s^2) that uniform3's windowed route read
    assert u3.sigma() == math.sqrt(sum(float(p) * float(s) ** 2
                                       for s, p in zip(u3.support, u3.probs)))
    assert IncrementLaw.gaussian(0.0, 2.5).sigma() == 2.5
    with pytest.raises(ParameterError):
        IncrementLaw.heavy_tail(1.0).sigma()


def test_same_seed_gives_identical_paths():
    law = IncrementLaw.gaussian(0.0, 1.0)
    a = sample_walk(law, 500, seed=123)
    b = sample_walk(law, 500, seed=123)
    assert a.values == b.values
    c = sample_walk(law, 500, seed=124)
    assert a.values != c.values


def test_derived_seeds_are_stable_and_distinct():
    s = [derive_seed(42, i) for i in range(100)]
    assert s == [derive_seed(42, i) for i in range(100)]
    assert len(set(s)) == 100


def test_endpoint_clt_band():
    # 1000 independent walks of length 10^4; the scaled endpoint mean must sit
    # inside the 4-sigma band implied by unit step variance
    law = IncrementLaw.fair_pm1()
    m = 10_000
    ends = np.array([sample_walk(law, m, derive_seed(99, t)).values[-1]
                     for t in range(1000)])
    scaled = ends / math.sqrt(m)
    assert abs(scaled.mean()) < 4.0 / math.sqrt(1000)


def test_lattice_probabilities_must_sum_to_one():
    with pytest.raises(ParameterError):
        IncrementLaw.lattice([-1, 1], [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ParameterError):
        IncrementLaw.lattice([-1, 1], [Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(ParameterError):
        IncrementLaw.gaussian(0.0, 0.0)
    with pytest.raises(ParameterError):
        IncrementLaw.heavy_tail(2.5)


def test_json_round_trip_keeps_exact_fractions():
    law = IncrementLaw.lattice([-1, 0, 2], ["3/8", "1/8", "1/2"])
    text = json.dumps(law.describe())
    again = IncrementLaw.from_json(text)
    assert again.support == law.support
    assert again.probs == law.probs
    assert "3/8" in text
    g = IncrementLaw.gaussian(0.5, 2.0)
    assert IncrementLaw.from_json(json.dumps(g.describe())) == g
    h = IncrementLaw.heavy_tail(1.0)
    assert "parametrization" in h.describe()


def test_lattice_integer_form_normalizes_gcd():
    law = IncrementLaw.lattice(["-1/2", "1/2"], ["1/2", "1/2"])
    unit, steps, probs = law.lattice_integer_form()
    assert unit == Fraction(1, 2)
    assert steps == (-1, 1)


def test_zero_mass_atoms_are_dropped():
    # a zero-mass atom carries no path, so it sets neither the unit nor a step
    law = IncrementLaw.lattice([-1, "1/2", 1], ["1/2", 0, "1/2"])
    assert law.support == (-1, 1) and law.probs == (Fraction(1, 2), Fraction(1, 2))
    assert law.lattice_integer_form()[:2] == (1, (-1, 1))


def test_walk_must_start_at_zero():
    with pytest.raises(ParameterError):
        WalkPath(values=(1, 2))


# ---------------------------------------------------------------------------
# batched per-trial streams against numpy's own per-row seeding

STREAM_LAWS = [
    IncrementLaw.fair_pm1(),
    IncrementLaw.uniform3(),
    IncrementLaw.lattice([-1, 0, 2, 5], ["1/4", "0", "1/2", "1/4"]),  # zero-mass atom
    IncrementLaw.lattice(["-1/2", "3/2"], ["3/4", "1/4"]),            # unit 1/2
    IncrementLaw.gaussian(0.3, 2.5),
    IncrementLaw.heavy_tail(1.0),
    IncrementLaw.heavy_tail(1.5),
    IncrementLaw.heavy_tail(0.5),
    IncrementLaw.heavy_tail(2.0),
]
MASTERS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 0x5DEECE66D3A9F21B]


def oracle_seed(master, t):
    ss = np.random.SeedSequence(entropy=(master, t))
    return int(ss.generate_state(1, np.uint64)[0])


def oracle_steps(law, length, seed):
    """Per-row sampler as written before batching: a fresh PCG64 per seed."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if law.kind == "lattice":
        cum = np.cumsum([float(p) for p in law.probs])
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(length), side="right")
        return np.array([float(s) for s in law.support])[idx]
    if law.kind == "gaussian":
        return law.mean + law.stddev * rng.standard_normal(length)
    u = rng.random(length)
    if law.alpha == 1.0:
        return np.tan(np.pi * (u - 0.5))
    signs = np.where(rng.random(length) < 0.5, -1.0, 1.0)
    return signs * (1.0 - u) ** (-1.0 / law.alpha)


def oracle_rows(law, length, master, first, count):
    return np.vstack([oracle_steps(law, length, oracle_seed(master, first + i))
                      for i in range(count)])


def oracle_walk(law, length, seed):
    vals = np.concatenate([[0.0], np.cumsum(oracle_steps(law, length, seed))])
    return WalkPath(values=tuple(vals.tolist()))


@pytest.mark.parametrize("master", MASTERS)
def test_batched_derivation_matches_seed_sequence(master):
    expected = [oracle_seed(master, t) for t in range(3000)]
    assert _derived_seeds(master, 0, 3000).tolist() == expected
    assert [derive_seed(master, t) for t in range(0, 3000, 97)] == expected[::97]
    # a batch across 2**32 mixes one- and two-word trial indices
    first = 2**32 - 4
    assert _derived_seeds(master, first, 8).tolist() == [
        oracle_seed(master, first + i) for i in range(8)]


def test_pcg64_states_match_numpy_seeding():
    seeds = [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1] + _derived_seeds(3, 0, 300).tolist()
    states = _pcg64_states(np.array(seeds, dtype=np.uint64))
    for seed, (state, inc) in zip(seeds, states):
        assert _rng(seed).bit_generator.state["state"] == {"state": state, "inc": inc}


@pytest.mark.parametrize("law", STREAM_LAWS, ids=lambda law: law.describe()["kind"])
def test_sample_rows_equal_per_row_sampling(law):
    master, first, count, length = 0x5DEECE66D3A9F21B, 40, 25, 57
    S = sample_rows(law, length, master, first, count)
    assert S.shape == (count, length + 1)
    assert (S[:, 0] == 0.0).all() and not np.signbit(S[:, 0]).any()
    for i, row in enumerate(S):
        seed = derive_seed(master, first + i)
        assert tuple(row.tolist()) == sample_walk(law, length, seed).values
        walk = np.concatenate([[0.0], np.cumsum(oracle_steps(law, length, seed))])
        assert np.array_equal(row, walk)
    assert sample_rows(law, length, master, first, 0).shape == (0, length + 1)


def test_lattice_map_matches_searchsorted_at_atom_boundaries():
    law = IncrementLaw.lattice([-1, 0, 2, 5], ["1/4", "0", "1/2", "1/4"])
    cum = np.cumsum([float(p) for p in law.probs])
    cum[-1] = 1.0
    sup = np.array([float(s) for s in law.support])
    u = np.concatenate([cum[:-1], np.nextafter(cum[:-1], 0.0),
                        np.nextafter(cum[:-1], 1.0), [0.0, np.nextafter(1.0, 0.0)]])
    expected = sup[np.searchsorted(cum, u, side="right")]
    assert np.array_equal(_lattice_steps(law, u.copy()), expected)


# caller-level equality: each reference loop is the caller as written before
# batching, drawing its rows from the oracle above


def test_survival_montecarlo_matches_per_row_loop():
    law, k, budget, seed = IncrementLaw.fair_pm1(), 12, 3000, 5
    S = np.cumsum(oracle_rows(law, k, seed, 0, budget), axis=1)
    p = int((S.min(axis=1) >= 0).sum()) / budget
    est = survival_probability(law, k, "montecarlo", budget=budget, seed=seed)
    assert est.probability == p
    assert est.error == math.sqrt(max(p * (1 - p), 1e-12) / budget)


def test_windowed_ladder_pairs_match_per_row_loop():
    law, n, block, count, seed = IncrementLaw.uniform3(), 8, 4, 60, 17
    width = 2 * n
    Ts, Hs, oks, got, attempted = [], [], [], 0, 0
    while got < count:
        b = int((count - got) * 1.2) + 8
        S = np.cumsum(oracle_rows(law, width, seed, attempted, b), axis=1)
        attempted += b
        M = np.maximum(np.maximum.accumulate(S, axis=1), 0.0)
        cnt = np.cumsum(np.concatenate([S[:, :1] > 0, S[:, 1:] > M[:, :-1]], axis=1),
                        axis=1)
        ok = cnt[:, -1] >= block
        oks.append(ok)
        idx = np.argmax(cnt[ok] >= block, axis=1)
        take = min(int(ok.sum()), count - got)
        Ts.append(idx[:take] + 1)
        Hs.append(S[ok][np.arange(take), idx[:take]])
        got += take
    # the fraction counts failures among the rows up to the count-th success
    ok = np.concatenate(oks)
    used = int(np.flatnonzero(ok)[count - 1]) + 1
    failed = used - int(ok[:used].sum())
    T, H, frac = windowed_ladder_pairs(law, n, block, count, seed, window_mult=2)
    assert np.array_equal(T, np.concatenate(Ts))
    assert np.array_equal(H, np.concatenate(Hs))
    assert failed > 0 and frac == failed / used


@pytest.mark.parametrize("law,k", [(IncrementLaw.fair_pm1(), 2),
                                   (IncrementLaw.fair_pm1(), 9),
                                   (IncrementLaw.gaussian(), 40)])
def test_meander_rejection_matches_per_row_loop(law, k):
    for seed in range(6):
        attempt = 0
        while True:
            w = oracle_walk(law, k, oracle_seed(seed, attempt))
            if min(w.values[1:]) >= 0:
                break
            attempt += 1
        assert meander_sample(law, k, seed) == w


def test_meander_rejection_budget_counts_attempts(monkeypatch):
    law = IncrementLaw.lattice([-1], [1])
    drawn = []

    def counting_rows(law, length, master, first, count):
        drawn.append((first, count))
        return sample_rows(law, length, master, first, count)

    monkeypatch.setattr(increments, "sample_rows", counting_rows)
    with pytest.raises(BudgetError, match="no meander accepted in 100000 attempts"):
        meander_sample(law, 20, 3)
    firsts = [0] + list(np.cumsum([c for _, c in drawn]))
    assert [f for f, _ in drawn] == firsts[:-1] and firsts[-1] == 100_000


def _recording_rebuild(seen):
    """certify's batched rebuild, recording the Gaussian rows (length 31) it gets."""
    rebuild = certify.tanaka_transform_np

    def recording(V):
        if V.shape[-1] == 31:
            seen.extend(map(tuple, V.tolist()))
        return rebuild(V)

    return recording


def test_idloc_checks_the_per_row_paths(monkeypatch):
    seen = []
    monkeypatch.setattr(certify, "tanaka_transform_np", _recording_rebuild(seen))
    res = certify.certify_idloc(enum_length=4, gaussian_paths=40, gaussian_length=30,
                                seed=8)
    law = IncrementLaw.gaussian(0.0, 1.0)
    assert seen == [oracle_walk(law, 30, oracle_seed(8, t)).values for t in range(40)]
    assert res.passed and res.rows[-1] == ["gaussian_sampled_verbatim", 0]


def _idloc_with_weak(monkeypatch, weak):
    """certify_idloc at length 6 with the batched functional ``weak`` (the
    local time or the future minimum) forced to its verbatim variant on the
    lattice; also the scalar loop's first-difference offsets from T_last of
    the violating paths.  The Gaussian part runs verbatim either way.
    """
    batched = getattr(certify, weak)
    monkeypatch.setattr(certify, weak, lambda V, variant: batched(V, "verbatim"))
    local = local_time_verbatim if weak == "local_time_curve_np" else local_time_strict
    future = "verbatim" if weak == "future_min_local_time_np" else "strict"
    res = certify.certify_idloc(enum_length=6, gaussian_paths=20, gaussian_length=30,
                                seed=8)
    offsets = []
    for _, vals, _ in iter_paths(IncrementLaw.fair_pm1(), 6):
        a = local(vals)
        b = future_min_local_time(tanaka_transform(vals), variant=future)
        t_last = ladder_epochs(vals)[-1]
        bad = [j for j in range(t_last) if a[j] != b[j]]
        if bad:
            offsets.append(t_last - bad[0])
    return res, offsets


def test_idloc_fails_with_weak_future_minima_on_the_lattice(monkeypatch):
    # counted against the strict local time at the maximum, the verbatim
    # future-minimum count breaks the identity on lattice ties: the
    # certificate must report exactly the paths the scalar loop finds
    res, offsets = _idloc_with_weak(monkeypatch, "future_min_local_time_np")
    assert offsets
    assert res.rows[1:] == [["lattice_enumeration_strict", len(offsets)],
                            ["gaussian_sampled_verbatim", 0]]
    assert res.passed is False


def test_idloc_fails_with_weak_local_time_on_the_lattice(monkeypatch):
    # the other mismatched pairing, verbatim local time against the strict
    # future minimum: 21 violating paths, 9 of which first differ at
    # T_last - 1, so the certificate's comparison must reach that index
    res, offsets = _idloc_with_weak(monkeypatch, "local_time_curve_np")
    assert len(offsets) == 21 and offsets.count(1) == 9
    assert res.rows[1:] == [["lattice_enumeration_strict", 21],
                            ["gaussian_sampled_verbatim", 0]]
    assert res.passed is False


# ---------------------------------------------------------------------------
# the row-batch cap of iter_rows changes no result


@pytest.mark.parametrize("cap", [1, 100, 1 << 20])
def test_iter_rows_batches_are_capped_slices_of_sample_rows(monkeypatch, cap):
    monkeypatch.setattr(increments, "_BATCH_STEPS", cap)
    law, length, master, count = IncrementLaw.uniform3(), 30, 9, 123
    batches = list(iter_rows(law, length, master, count))
    assert all(b.shape[1] == length + 1 for b in batches)
    # a batch holds at most ``cap`` steps, length per walk
    assert all(1 <= len(b) and (len(b) == 1 or len(b) * length <= cap) for b in batches)
    assert len(batches[0]) == min(16, max(1, cap // length))
    assert np.array_equal(np.concatenate(batches),
                          sample_rows(law, length, master, 0, count))
    assert list(iter_rows(law, length, master, 0)) == []


def _batch_dependent_outputs():
    seen = []
    T, H, frac = windowed_ladder_pairs(IncrementLaw.uniform3(), 8, 4, 60, 17,
                                       window_mult=2)
    surv = survival_probability(IncrementLaw.fair_pm1(), 12, "montecarlo",
                                budget=3000, seed=5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "tanaka_transform_np", _recording_rebuild(seen))
        certify.certify_idloc(enum_length=4, gaussian_paths=40, gaussian_length=30,
                              seed=8)
    meander = meander_sample(IncrementLaw.fair_pm1(), 25, 6)
    return T.tolist(), H.tolist(), frac, surv, seen, meander.values


def test_outputs_do_not_depend_on_the_batch_cap(monkeypatch):
    default = _batch_dependent_outputs()
    assert len(default[4]) == 40 and default[2] > 0
    for cap in (1, 1 << 40):
        monkeypatch.setattr(increments, "_BATCH_STEPS", cap)
        assert _batch_dependent_outputs() == default
