import hashlib
import math
import re
from collections import Counter
from fractions import Fraction

import pytest

from wreathchar import stats, wreath_chars
from wreathchar.base_group import BUILTIN_NAMES, builtin
from wreathchar.congruence import mash_canonical
from wreathchar.partitions import (
    MultiPartition,
    count_multipartitions,
    count_partitions,
    multipartitions_of,
    unrank_multipartition,
)
from wreathchar.stats import (
    CSV_COLUMNS,
    CounterStream,
    asymptotic_check,
    certificate_census,
    concentration_check,
    exact_census,
    ln_big,
    random_multipartition,
    sampled_census,
    wilson_interval,
)
from wreathchar.weyl_d import dn_irrep_census, dn_restricted_census
from wreathchar.wreath_chars import character_table

import oracles

Z2 = builtin("Z2")
TRIVIAL = builtin("trivial")


class TestCounterStream:
    def test_reproducible(self):
        a = CounterStream(123, 5).take(64)
        b = CounterStream(123, 5).take(64)
        assert a == b

    def test_distinct_indices_differ(self):
        assert CounterStream(123, 5).take(32) != CounterStream(123, 6).take(32)
        assert CounterStream(123, 5).take(32) != CounterStream(124, 5).take(32)

    def test_below_in_range(self):
        s = CounterStream(7, 0)
        for bound in (1, 2, 5, 97, 2**80):
            for _ in range(50):
                v = s.below(bound)
                assert 0 <= v < bound

    def test_below_one_consumes_nothing(self):
        s = CounterStream(7, 0)
        assert s.below(1) == 0
        t = CounterStream(7, 0)
        assert s.take(8) == t.take(8)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            CounterStream(0, 0).below(0)

    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_key_out_of_range(self, value):
        with pytest.raises(ValueError, match="seed"):
            CounterStream(value, 0)
        with pytest.raises(ValueError, match="index"):
            CounterStream(0, value)

    def test_key_not_an_int(self):
        with pytest.raises(ValueError, match="seed"):
            CounterStream(1.0, 0)
        with pytest.raises(ValueError, match="index"):
            CounterStream(0, "1")

    def test_top_key_is_its_own_block(self):
        top = 2**64 - 1
        want = hashlib.sha256(b"wreathchar.v1" + top.to_bytes(8, "big") * 2 + bytes(8)).digest()
        assert CounterStream(top, top).take(32) == want


    @pytest.mark.parametrize("value", [True, False])
    def test_key_not_a_bool(self, value):
        with pytest.raises(ValueError, match="seed"):
            CounterStream(value, 0)
        with pytest.raises(ValueError, match="index"):
            CounterStream(0, value)


class TestRandomMultipartition:
    def test_zero(self):
        got = random_multipartition(0, 3, CounterStream(1, 0))
        assert got == ((), (), ())

    def test_uniform_chi_square_2_2(self):
        draws = 500_000
        counts = Counter()
        for i in range(draws):
            counts[random_multipartition(2, 2, CounterStream(2024, i))] += 1
        assert len(counts) == 5
        expected = draws / 5
        sigma = math.sqrt(draws * 0.2 * 0.8)
        for label, c in counts.items():
            assert abs(c - expected) < 5 * sigma, (label, c)

    def test_reproducible_per_index(self):
        a = [random_multipartition(9, 2, CounterStream(77, i)) for i in range(20)]
        b = [random_multipartition(9, 2, CounterStream(77, i)) for i in range(20)]
        assert a == b

    def test_same_draws_as_recounting(self):
        # p_k(n) comes off the completion tables; the draws match a recount
        for k in (1, 2, 3):
            for n in range(40):
                for i in range(3):
                    got = random_multipartition(n, k, CounterStream(5, i))
                    want = unrank_multipartition(n, k, CounterStream(5, i).below(count_multipartitions(n, k)))
                    assert got == want

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            random_multipartition(-1, 2, CounterStream(1, 0))
        with pytest.raises(ValueError):
            random_multipartition(3, 0, CounterStream(1, 0))


class TestWilson:
    def test_brackets_phat(self):
        for hits, trials in ((0, 10), (5, 10), (10, 10), (123, 1000)):
            low, high = wilson_interval(hits, trials, 0.99)
            assert 0.0 <= low <= hits / trials <= high <= 1.0

    def test_narrows_with_samples(self):
        l1, h1 = wilson_interval(50, 100, 0.95)
        l2, h2 = wilson_interval(500, 1000, 0.95)
        assert h2 - l2 < h1 - l1


class TestLnBig:
    def test_matches_math_log(self):
        for x in (7, 10**20, 3**400, count_partitions(2000)):
            assert abs(ln_big(x) - math.log(x)) <= 1e-10 * math.log(x)

    def test_powers_of_two(self):
        assert ln_big(2**500) == pytest.approx(500 * math.log(2), rel=1e-14)


class TestExactCensus:
    def test_trivial_n1(self):
        r = exact_census(TRIVIAL, 1, 2)
        assert r.proportion == 0
        assert r.cells_evaluated == 1

    def test_z2_n2_p2(self):
        r = exact_census(Z2, 2, 2)
        assert r.cells_evaluated == 25
        assert r.proportion == Fraction(5, 25)

    def test_trend_n4_to_n8(self):
        small = exact_census(TRIVIAL, 4, 2)
        large = exact_census(TRIVIAL, 8, 2)
        assert large.proportion > small.proportion

    def test_mode_and_json(self):
        r = exact_census(Z2, 2, 2)
        doc = r.to_json_dict()
        assert doc["mode"] == "exact"
        assert doc["proportion"] == "1/5"
        assert doc["proportion_decimal"] == 0.2
        assert doc["samples"] is None

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            exact_census(Z2, 2, 4)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_equals_the_full_table_count(self, name):
        g = builtin(name)
        for n in range((7 if g.k <= 2 else 4) + 1):
            for p in (2, 3, 5):
                r = exact_census(g, n, p)
                assert (r.divisible_count, r.cells_evaluated) == oracles.full_table_census(g, n, p), (n, p)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_the_full_table_count_at_any_worker_count(self, workers):
        for p in (2, 3, 5):
            r = exact_census(Z2, 6, p, workers=workers)
            assert (r.divisible_count, r.cells_evaluated) == oracles.full_table_census(Z2, 6, p), p

    def test_counts_on_the_table_quotient(self, monkeypatch):
        # the census reads the table's block, the representative rows on the
        # least column of each centre orbit, and builds no row or class size
        want = oracles.full_table_census(Z2, 6, 2)
        calls = Counter()

        def spy(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, **kw: calls.update([name]) or real(*args, **kw))

        spy(stats, "character_table")
        real = wreath_chars.character_column
        asked = []

        def column(*args):
            calls.update(["character_column"])
            asked.append(args[1:])
            return real(*args)

        monkeypatch.setattr(wreath_chars, "character_column", column)
        for name in ("_rows", "class_size"):
            monkeypatch.setattr(wreath_chars, name, lambda *args, name=name: pytest.fail(f"{name} called"))
        r = exact_census(Z2, 6, 2)
        assert (r.divisible_count, r.cells_evaluated) == want
        zs = oracles.central_classes(Z2.centralizer_orders, Z2.identity_class)
        labels = multipartitions_of(6, 2)
        least = [
            mu for c, mu in enumerate(labels)
            if all(labels.index(oracles.central_image(Z2.table, Z2.identity_class, z, mu)) >= c for z in zs)
        ]
        # one character_column call per sub-column that the top steps of
        # the 42 centre orbits pull from
        assert calls == Counter(character_table=1, character_column=29)
        assert asked == oracles.top_sub_classes(least)
        assert len(least) == 42 and len(least) < len(labels)


class TestSampledCensus:
    def test_single_sample_is_zero_or_one(self):
        r = sampled_census(Z2, 6, 2, samples=1, seed=3)
        assert r.proportion in (0, 1)

    def test_deterministic(self):
        a = sampled_census(Z2, 20, 2, samples=300, seed=11)
        b = sampled_census(Z2, 20, 2, samples=300, seed=11)
        assert a == b

    def test_ci_contains_exact_at_n8(self):
        exact = float(exact_census(Z2, 8, 2).proportion)
        r = sampled_census(Z2, 8, 2, samples=10_000, seed=1)
        assert r.ci_low <= exact <= r.ci_high

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            sampled_census(Z2, 6, 2, samples=10, seed=seed)


class TestCertificateCensus:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            certificate_census(2, 30, 2, samples=50, seed=seed)

    def test_n1_coverage_zero(self):
        for p in (2, 3):
            r = certificate_census(2, 1, p, samples=50, seed=0)
            assert r.coverage == 0

    def test_coverage_below_sampled_seed_paired(self):
        # same seed => same (lambda, mu) draws, and a certificate implies
        # divisibility, so the certified count cannot exceed the divisible one
        seed, samples = 31, 400
        cert = certificate_census(2, 10, 2, samples=samples, seed=seed)
        samp = sampled_census(Z2, 10, 2, samples=samples, seed=seed)
        assert cert.divisible_count <= samp.divisible_count
        assert cert.coverage <= samp.proportion

    def test_deterministic(self):
        a = certificate_census(2, 80, 3, samples=500, seed=9)
        b = certificate_census(2, 80, 3, samples=500, seed=9)
        assert a == b

    def test_coverage_equals_proportion_field(self):
        r = certificate_census(2, 30, 2, samples=100, seed=1)
        assert r.coverage == r.proportion

    def test_exhaustive_certificate_fraction_below_exact(self):
        from wreathchar.congruence import mash_canonical, zero_certificate
        from wreathchar.partitions import MultiPartition, multipartitions_of

        for n in range(1, 7):
            labels = [MultiPartition(t) for t in multipartitions_of(n, 2)]
            for p in (2, 3):
                certified = 0
                for mu in labels:
                    mashed = mash_canonical(mu, p)
                    certified += sum(1 for lam in labels if zero_certificate(lam, mashed))
                fraction = Fraction(certified, len(labels) ** 2)
                assert fraction <= exact_census(Z2, n, p).proportion


# each sampled census at the API, as a function of (samples, seed)
SAMPLED_CENSUSES = {
    "sampled": lambda samples, seed: sampled_census(Z2, 6, 2, samples=samples, seed=seed),
    "certificate": lambda samples, seed: certificate_census(2, 6, 2, samples=samples, seed=seed),
    "dn-sampled": lambda samples, seed: dn_restricted_census(6, 2, mode="sampled", samples=samples, seed=seed),
}


class TestSampledArguments:
    """The sampled censuses name a bad samples or seed at the API."""

    @pytest.mark.parametrize("census", SAMPLED_CENSUSES)
    @pytest.mark.parametrize("samples", [True, False, 5.5, 5.0, "5"])
    def test_samples_must_be_an_int(self, census, samples):
        with pytest.raises(ValueError, match=rf"^samples must be an integer, got {re.escape(repr(samples))}$"):
            SAMPLED_CENSUSES[census](samples, 1)

    @pytest.mark.parametrize("census", SAMPLED_CENSUSES)
    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_below_one(self, census, samples):
        with pytest.raises(ValueError, match=rf"^samples must be >= 1, got {samples}$"):
            SAMPLED_CENSUSES[census](samples, 1)

    @pytest.mark.parametrize("census", SAMPLED_CENSUSES)
    @pytest.mark.parametrize("seed", [True, False, 1.0, "1", -1, 2**64])
    def test_seed_must_be_a_key(self, census, seed):
        want = rf"^seed must be an integer in \[0, 2\*\*64\), got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=want):
            SAMPLED_CENSUSES[census](3, seed)

    @pytest.mark.parametrize("confidence", ["0.5", "x", True, 0, 1, 1.5])
    @pytest.mark.parametrize(
        "census",
        [
            lambda confidence: sampled_census(Z2, 4, 2, 3, 1, confidence=confidence),
            lambda confidence: dn_restricted_census(4, 2, "sampled", 3, 1, confidence=confidence),
        ],
        ids=["sampled", "dn-sampled"],
    )
    def test_confidence_must_be_a_number_in_the_open_unit_interval(self, census, confidence):
        want = rf"^confidence must be a number in \(0, 1\), got {re.escape(repr(confidence))}$"
        with pytest.raises(ValueError, match=want):
            census(confidence)

    @pytest.mark.parametrize("census", SAMPLED_CENSUSES)
    def test_int_arguments_report_as_given(self, census):
        report = SAMPLED_CENSUSES[census](3, 2**64 - 1)
        assert (report.samples, report.cells_evaluated, report.seed) == (3, 3, 2**64 - 1)
        assert type(report.samples) is int and 0 <= report.divisible_count <= 3


# each API entry that takes a worker count, as a function of it
WORKER_CALLS = {
    "character_table": lambda workers: character_table(Z2, 3, workers=workers),
    "exact_census": lambda workers: exact_census(Z2, 3, 2, workers=workers),
    "sampled_census": lambda workers: sampled_census(Z2, 6, 2, samples=3, seed=1, workers=workers),
}


class TestWorkersArgument:
    """A bool or non-int worker count is named before any pool is asked for."""

    @pytest.mark.parametrize("call", WORKER_CALLS)
    @pytest.mark.parametrize("workers", [True, False, 2.5, 2.0, "2"])
    def test_workers_must_be_an_int(self, pool_requests, call, workers):
        with pytest.raises(ValueError, match=rf"^workers must be an integer, got {re.escape(repr(workers))}$"):
            WORKER_CALLS[call](workers)
        assert pool_requests == []

    @pytest.mark.parametrize("call", WORKER_CALLS)
    def test_int_workers_ask_for_a_pool(self, pool_requests, call):
        WORKER_CALLS[call](2)
        assert pool_requests[0] == 2


# each census entry with one bool or non-int argument, and the error it
# names; a zero cell budget shows that the check runs before the budget test
NON_INTEGER_CALLS = {
    "exact n": (lambda: exact_census(Z2, True, 2, cell_budget=0), "n", True),
    "exact p": (lambda: exact_census(Z2, 3, 2.0), "p", 2.0),
    "sampled n": (lambda: sampled_census(Z2, 6.0, 2, 3, 1), "n", 6.0),
    "sampled p": (lambda: sampled_census(Z2, 6, True, 3, 1), "p", True),
    "certificate group_k": (lambda: certificate_census(True, 10, 2, 5, 1), "group_k", True),
    "certificate n": (lambda: certificate_census(2, 10.0, 2, 5, 1), "n", 10.0),
    "dn-exact n": (lambda: dn_restricted_census(True, 2, cell_budget=0), "n", True),
    "dn-sampled n": (lambda: dn_restricted_census(6.0, 2, "sampled", 3, 1), "n", 6.0),
    "dn p": (lambda: dn_restricted_census(6, 3.0), "p", 3.0),
    "exact cell_budget": (lambda: exact_census(Z2, 2, 2, cell_budget=2.5), "cell_budget", 2.5),
    "dn-exact cell_budget": (lambda: dn_restricted_census(4, 2, cell_budget=True), "cell_budget", True),
}


@pytest.mark.parametrize("case", NON_INTEGER_CALLS)
def test_census_rejects_non_integer_argument(case):
    call, name, value = NON_INTEGER_CALLS[case]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
        call()


class TestPinnedSamples:
    """Divisible counts measured before the sample loops were merged into one
    driver; a change to the draws or to the per-sample tests shows here."""

    def test_pinned_counts(self):
        assert dn_restricted_census(20, 3, mode="sampled", samples=300, seed=1).divisible_count == 204
        assert sampled_census(builtin("S3"), 6, 2, 300, 7).divisible_count == 214
        assert certificate_census(3, 40, 3, 300, 7).divisible_count == 78

    def test_pinned_benchmark_answers(self):
        # the seed-1 answers the benchmark's sampled-census and dn-sampled gates pin
        assert sampled_census(Z2, 24, 2, 1000, seed=1).divisible_count == 903
        assert dn_restricted_census(20, 3, "sampled", 2000, 1).divisible_count == 1359
        # cert-census: draws from 218-bit table entries and long runs of repeated parts
        assert certificate_census(2, 2000, 2, 1000, seed=1).divisible_count == 462

    def test_worker_count_invariant(self):
        S3 = builtin("S3")
        assert sampled_census(S3, 6, 2, 300, 7, workers=2) == sampled_census(S3, 6, 2, 300, 7, workers=1)
        assert certificate_census(3, 40, 3, 300, 7, workers=2) == certificate_census(3, 40, 3, 300, 7, workers=1)


class TestAsymptotics:
    def test_k1_large_in_window(self):
        assert 0.90 <= asymptotic_check(1, 10_000) <= 0.995

    def test_increasing_checkpoints(self):
        for k in (1, 2, 3):
            r100 = asymptotic_check(k, 100)
            r1000 = asymptotic_check(k, 1000)
            assert r100 < r1000

    def test_k2_vs_k1_double(self):
        assert abs(asymptotic_check(2, 5000) - asymptotic_check(1, 10_000)) < 0.05


class TestConcentration:
    def test_exact_pin_2_2_half(self):
        assert concentration_check(2, 2, 0.5) == Fraction(1, 5)

    def test_single_component_always_one(self):
        for n in (1, 10, 37):
            assert concentration_check(1, n, 0.3) == 1

    def test_trend(self):
        assert concentration_check(2, 200, 0.3) > concentration_check(2, 50, 0.3)

    def test_accepts_fraction(self):
        assert concentration_check(2, 2, Fraction(1, 2)) == Fraction(1, 5)

    @pytest.mark.parametrize("k, n, want", [(2, 4.0, "n must be an integer, got 4.0"), (True, 4, "k must be an integer, got True")])
    def test_rejects_non_integer_sizes(self, k, n, want):
        with pytest.raises(ValueError, match=f"^{want}$"):
            concentration_check(k, n, 0.3)

    def test_window_is_open(self):
        # n=4, k=2, delta=1/2: window (1,3), sizes must be exactly 2
        want = Fraction(count_partitions(2) ** 2, count_multipartitions(4, 2))
        assert concentration_check(2, 4, Fraction(1, 2)) == want

    def test_matches_recursion(self):
        for k in (1, 2, 3, 4):
            for n in (0, 1, 2, 5, 13, 30):
                for delta in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)):
                    want = oracles.concentration_fraction(k, n, delta)
                    assert concentration_check(k, n, delta) == want, (k, n, delta)

    def test_polynomial_in_k(self):
        # the recursion over size compositions is O(n^(k-1)); this is O(k n^2)
        frac = concentration_check(6, 150, Fraction(9, 10))
        assert 0 < frac < 1

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            concentration_check(2, 10, 0)
        with pytest.raises(ValueError):
            concentration_check(2, 10, 1)

    @pytest.mark.parametrize("delta", ["abc", float("nan"), float("inf"), True, "1/0", -0.5, Fraction(3, 2)])
    def test_names_a_bad_delta(self, delta):
        want = rf"^delta must be a number in \(0, 1\), got {re.escape(repr(delta))}$"
        with pytest.raises(ValueError, match=want):
            concentration_check(2, 10, delta)


class TestReportShape:
    def test_csv_row_matches_columns(self):
        r = exact_census(Z2, 2, 2)
        assert len(r.csv_row()) == len(CSV_COLUMNS)
        r2 = sampled_census(Z2, 6, 2, samples=10, seed=4)
        assert len(r2.csv_row()) == len(CSV_COLUMNS)

    def test_invariants(self):
        r = sampled_census(Z2, 6, 2, samples=50, seed=4)
        assert r.divisible_count <= r.cells_evaluated
        assert 0 <= r.proportion <= 1
        assert r.ci_low <= float(r.proportion) <= r.ci_high

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: builtin("S3"), "table"),
            (lambda: mash_canonical(MultiPartition([[2, 2], []]), 2), "canonical"),
            (lambda: character_table(Z2, 2), "values"),
            (lambda: exact_census(Z2, 2, 2), "divisible_count"),
            (lambda: dn_irrep_census(4), "nonsplit"),
        ],
        ids=["GroupData", "MashedClass", "CharTable", "CensusReport", "DnIrrepCensus"],
    )
    def test_records_are_immutable(self, make, name):
        # a record's fields cannot be reassigned and it takes no new attribute
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1
