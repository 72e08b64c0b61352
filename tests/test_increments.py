import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fluctwalk import certify, conditioning, increments
from fluctwalk.conditioning import meander_sample, survival_probability
from fluctwalk.errors import BudgetError, ParameterError
from fluctwalk.increments import (STREAMS, IncrementLaw, _lattice_steps, iter_rows,
                                  sample_rows, stream)
from fluctwalk.oracle import path_matrix
from reference import (future_min_local_time, ladder_epochs, local_time_strict,
                       local_time_verbatim, oracle_steps, oracle_walk,
                       tanaka_transform)


def test_point_mass_walk_is_deterministic_ramp():
    law = IncrementLaw.lattice([1], [1])
    w = oracle_walk(law, 3, master=7)
    assert w == (0.0, 1.0, 2.0, 3.0)


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
    # the float sum sqrt(sum p s^2), the sigma that scales uniform3's walks
    assert u3.sigma() == math.sqrt(sum(float(p) * float(s) ** 2
                                       for s, p in zip(u3.support, u3.probs)))
    assert IncrementLaw.gaussian(0.0, 2.5).sigma() == 2.5
    with pytest.raises(ParameterError):
        IncrementLaw.heavy_tail(1.0).sigma()


def test_same_seed_gives_identical_paths():
    law = IncrementLaw.gaussian(0.0, 1.0)
    a = oracle_walk(law, 500, master=123)
    b = oracle_walk(law, 500, master=123)
    assert a == b
    c = oracle_walk(law, 500, master=124)
    assert a != c


def test_endpoint_clt_band():
    # 1000 independent walks of length 10^4; the scaled endpoint mean must sit
    # inside the 4-sigma band implied by unit step variance
    law = IncrementLaw.fair_pm1()
    m = 10_000
    ends = np.array([oracle_walk(law, m, 99, t)[-1]
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


# ---------------------------------------------------------------------------
# named streams and batched rows against numpy's own per-row seeding

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
MASTERS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 0x5DEECE66D3A9F21B, 2**64 + 12345]


def oracle_rows(law, length, master, first, count):
    return np.vstack([oracle_steps(law, length, master, first + i) for i in range(count)])


def test_stream_is_numpys_seeding_of_tag_and_jump():
    for master in MASTERS:
        for k, tag in enumerate(STREAMS):
            for index in (0, 1, 2**64 + 3):
                bit_gen = np.random.PCG64DXSM(np.random.SeedSequence((master, k)))
                expected = np.random.Generator(bit_gen.jumped(index)).random(4)
                assert np.array_equal(stream(master, tag, index).random(4), expected)
    assert stream(5, "rows").random(4).tolist() == stream(5, "rows", 0).random(4).tolist()


def test_unknown_stream_tag_raises():
    with pytest.raises(ParameterError, match="unknown stream tag 'row'"):
        stream(3, "row")


def test_streams_are_stable_and_distinct():
    # the four tags, and two indices of one tag, start with different draws
    firsts = [stream(42, tag).random() for tag in STREAMS]
    firsts += [stream(42, "heights", 1).random()]
    assert firsts == [stream(42, tag).random() for tag in STREAMS] + [
        stream(42, "heights", 1).random()]
    assert len(set(firsts)) == len(STREAMS) + 1


@pytest.mark.parametrize("master", MASTERS[:6])
def test_batched_derivation_matches_seed_sequence(master):
    # each row's state is reset and advanced by its trial's jump, also for
    # trial indices past 2**32 and 2**64
    law, length = IncrementLaw.uniform3(), 5
    for first in (0, 2**32 - 2, 2**64 - 2):
        assert np.array_equal(np.diff(sample_rows(law, length, master, first, 4), axis=1),
                              oracle_rows(law, length, master, first, 4))


@pytest.mark.parametrize("law", STREAM_LAWS, ids=lambda law: law.describe()["kind"])
def test_sample_rows_equal_per_row_sampling(law):
    first, count, length = 40, 25, 57
    for master in MASTERS:
        S = sample_rows(law, length, master, first, count)
        assert S.shape == (count, length + 1)
        assert (S[:, 0] == 0.0).all() and not np.signbit(S[:, 0]).any()
        for i, row in enumerate(S):
            assert tuple(row.tolist()) == oracle_walk(law, length, master, first + i)
    assert sample_rows(law, length, master, first, 0).shape == (0, length + 1)


@pytest.mark.parametrize("law", [IncrementLaw.gaussian(), IncrementLaw.heavy_tail(1.5)],
                         ids=["gaussian", "signed"])
def test_rows_do_not_depend_on_the_batch_cap(monkeypatch, law):
    # a row is its trial's stream, whichever batch draws it: also for laws
    # whose rows take a varying number of draws or two draws a step
    whole = sample_rows(law, 9, 77, 0, 40)
    for cap in (1, 50, 1 << 20):
        monkeypatch.setattr(increments, "_BATCH_STEPS", cap)
        assert np.array_equal(np.concatenate(list(iter_rows(law, 9, 77, 40))), whole)


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


@pytest.mark.parametrize("law,k", [(IncrementLaw.fair_pm1(), 2),
                                   (IncrementLaw.fair_pm1(), 9),
                                   (IncrementLaw.gaussian(), 40)])
def test_meander_rejection_matches_per_row_loop(law, k):
    # the batch is the first ``count`` per-row walks that stay >= 0
    count = 4
    for seed in range(6):
        rows, attempt = [], 0
        while len(rows) < count:
            w = oracle_walk(law, k, seed, attempt)
            if min(w[1:]) >= 0:
                rows.append(list(w))
            attempt += 1
        assert meander_sample(law, k, count, seed).tolist() == rows


def test_meander_rejection_budget_counts_attempts(monkeypatch):
    law = IncrementLaw.lattice([-1], [1])
    drawn = []

    def counting_rows(law, length, master, first, count):
        drawn.append((first, count))
        return sample_rows(law, length, master, first, count)

    monkeypatch.setattr(increments, "sample_rows", counting_rows)
    with pytest.raises(BudgetError, match="only 0 of 2 meanders accepted in 200000 attempts"):
        meander_sample(law, 20, 2, 3)
    firsts = [0] + list(np.cumsum([c for _, c in drawn]))
    assert [f for f, _ in drawn] == firsts[:-1] and firsts[-1] == 200_000


def test_meander_rejection_budget_error_reports_the_observed_rate(monkeypatch):
    # two attempts per meander: 50 fair meanders of 20 steps (P(C_20) =
    # C(20, 10) 2^-20, about 0.18) fall short in 100 attempts, and the error
    # carries the share of those 100 walks that stayed >= 0
    monkeypatch.setattr(conditioning, "_MEANDER_ATTEMPTS", 2)
    law = IncrementLaw.fair_pm1()
    with pytest.raises(BudgetError) as exc:
        meander_sample(law, 20, 50, 3)
    accepted = int((sample_rows(law, 20, 3, 0, 100).min(axis=1) >= 0).sum())
    assert 0 < accepted < 50 and exc.value.acceptance_rate == accepted / 100


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
    assert seen == [oracle_walk(law, 30, 8, t) for t in range(40)]
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
    for vals in map(tuple, path_matrix(IncrementLaw.fair_pm1(), 6)[0].tolist()):
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
    surv = survival_probability(IncrementLaw.fair_pm1(), 12, "montecarlo",
                                budget=3000, seed=5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "tanaka_transform_np", _recording_rebuild(seen))
        certify.certify_idloc(enum_length=4, gaussian_paths=40, gaussian_length=30,
                              seed=8)
    meander = meander_sample(IncrementLaw.fair_pm1(), 25, 40, 6)
    return surv, seen, meander.tolist()


def test_idloc_working_set_is_a_few_cache_sized_batches():
    # at a 2^16-step cap a batch array is 512 KiB and the functionals hold a
    # few arrays of that size (about 3 MiB traced in all); 8 MiB is sixteen
    # of them, and a 2^20-step cap traces about 32 MiB
    tracemalloc.start()
    try:
        certify.certify_idloc(enum_length=4, gaussian_paths=2000, gaussian_length=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_outputs_do_not_depend_on_the_batch_cap(monkeypatch):
    default = _batch_dependent_outputs()
    assert len(default[1]) == 40
    for cap in (1, 1 << 40):
        monkeypatch.setattr(increments, "_BATCH_STEPS", cap)
        assert _batch_dependent_outputs() == default
