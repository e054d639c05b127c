import signal

import pytest

from wreathchar.base_group import BUILTIN_NAMES, builtin
from wreathchar.congruence import (
    _mash_component,
    is_prime,
    mash_canonical,
    predicted_divisible,
    sim_p_equivalent,
    zero_certificate,
)
from wreathchar.partitions import MultiPartition, enumerate_partitions, multipartitions_of
from wreathchar.wreath_chars import character_table, mn_character

import oracles

Z2 = builtin("Z2")
TRIVIAL = builtin("trivial")


def generator_steps(mp_tuples, p):
    """All single split steps mu -> nu (one part mp replaced by p parts m)."""
    out = []
    for j, comp in enumerate(mp_tuples):
        for i, part in enumerate(comp):
            if part % p == 0:
                m = part // p
                split = tuple(sorted(comp[:i] + comp[i + 1 :] + (m,) * p, reverse=True))
                out.append(mp_tuples[:j] + (split,) + mp_tuples[j + 1 :])
    return out


class TestPrimality:
    def test_is_prime(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

    @pytest.mark.parametrize("p", [7.5, 3.0, True, "7"])
    def test_is_prime_needs_an_int(self, p):
        assert not is_prime(p)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            mash_canonical(MultiPartition([[2, 2]]), 4)
        with pytest.raises(ValueError):
            mash_canonical(MultiPartition([[2, 2]]), 1)

    @pytest.mark.parametrize("p", [2.0, True, "2"])
    def test_rejects_non_integer_p(self, p):
        with pytest.raises(ValueError, match=rf"^p must be an integer, got {p!r}$"):
            mash_canonical(MultiPartition([[2, 2]]), p)


class TestMashCanonical:
    def test_mod3_merge_chain(self):
        want = ((6, 1), (4, 3))
        for tuples in ([[6, 1], [4, 1, 1, 1]], [[2, 2, 2, 1], [4, 1, 1, 1]], [[2, 2, 2, 1], [4, 3]]):
            mashed = mash_canonical(MultiPartition(tuples), 3)
            assert mashed.canonical == want
            assert mashed.largest_part == 6

    @pytest.mark.parametrize(
        "mu, message",
        [
            (((0,), ()), r"parts must be positive, got 0 at index 0"),
            (((-2,), ()), r"parts must be positive, got -2 at index 0"),
            (((2.0,), ()), r"parts must be integers, got 2.0 at index 0"),
            (((True,), ()), r"parts must be integers, got True at index 0"),
            (((1, 3), ()), r"parts must be weakly decreasing, got \(1, 3\)"),
        ],
        ids=["zero", "negative", "float", "bool", "increasing"],
    )
    def test_rejects_bad_parts(self, mu, message):
        # merging a part of 0 would divide it by p forever, so the call runs
        # under a 5 s alarm: a hang fails the test instead of stalling it
        def hang(signum, frame):
            raise TimeoutError("mash_canonical did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 5)
        try:
            with pytest.raises(ValueError, match=rf"^{message}$"):
                mash_canonical(mu, 2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_fixed_point(self):
        mu = MultiPartition([[5, 3, 1], [2]])
        for p in (2, 3, 5):
            assert mash_canonical(mu, p).canonical == mu

    def test_idempotent_and_step_invariant(self):
        for n in range(0, 11):
            for p in (2, 3, 5):
                for tuples in multipartitions_of(n, 2):
                    mu = MultiPartition(tuples)
                    mashed = mash_canonical(mu, p)
                    again = mash_canonical(mashed.canonical, p)
                    assert again.canonical == mashed.canonical
                    # no part repeats p or more times
                    for comp in mashed.canonical:
                        for part in set(comp):
                            assert comp.count(part) < p
                    # every single generator step preserves the canonical form
                    for stepped in generator_steps(tuples, p):
                        other = mash_canonical(MultiPartition(stepped), p)
                        assert other.canonical == mashed.canonical

    def test_base_p_digit_view(self):
        # per chain s0, s0*p, s0*p^2, ... (p not dividing s0) the canonical
        # multiplicities are exactly the base-p digits of the chain weight
        # W = sum_e m_{s0 p^e} p^e computed from the original multiplicities
        from collections import Counter

        def chain_weights(parts, p):
            weights = Counter()
            for s in parts:
                e = 0
                while s % p == 0:
                    s //= p
                    e += 1
                weights[s] += p**e
            return weights

        for p in (2, 3):
            for tuples in multipartitions_of(9, 2):
                mu = MultiPartition(tuples)
                canon = mash_canonical(mu, p).canonical
                for orig_comp, canon_comp in zip(tuples, canon):
                    for root, weight in chain_weights(orig_comp, p).items():
                        digits = Counter()
                        for s in canon_comp:
                            e = 0
                            while s % p == 0:
                                s //= p
                                e += 1
                            if s == root:
                                digits[e] += 1
                        w = weight
                        e = 0
                        while w:
                            assert digits[e] == w % p
                            w //= p
                            e += 1
                        assert all(exp < e for exp in digits)

    def test_p_free_mass_matches_carry(self):
        for n in range(0, 21):
            for lam in enumerate_partitions(n):
                for p in (2, 3, 5, 7):
                    assert _mash_component(lam, p) == oracles.mash_component_carry(lam, p), (lam, p)

    def test_totals_preserved(self):
        mu = MultiPartition([[4, 2, 2, 1, 1, 1], [3, 3, 3]])
        for p in (2, 3, 5, 7):
            mashed = mash_canonical(mu, p)
            assert mashed.canonical.total == mu.total
            assert mashed.original == mu
            assert mashed.prime == p


class TestSimP:
    def test_reflexive(self):
        mu = MultiPartition([[3, 1], [2]])
        assert sim_p_equivalent(mu, mu, 3)

    def test_merge_chain_pairwise(self):
        ms = [
            MultiPartition([[6, 1], [4, 1, 1, 1]]),
            MultiPartition([[2, 2, 2, 1], [4, 1, 1, 1]]),
            MultiPartition([[2, 2, 2, 1], [4, 3]]),
        ]
        for a in ms:
            for b in ms:
                assert sim_p_equivalent(a, b, 3)

    def test_two_step_chain_p2(self):
        a = MultiPartition([[2, 2], []])
        b = MultiPartition([[4], []])
        c = MultiPartition([[1, 1, 1, 1], []])
        assert sim_p_equivalent(a, b, 2)
        assert sim_p_equivalent(a, c, 2)

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            sim_p_equivalent(MultiPartition([[2]]), MultiPartition([[2], []]), 2)
        with pytest.raises(ValueError):
            sim_p_equivalent(MultiPartition([[2], []]), MultiPartition([[1], []]), 2)


class TestColumnCongruence:
    def test_single_steps_give_congruent_columns(self):
        from wreathchar.wreath_chars import perm_character

        for g, nmax in ((TRIVIAL, 5), (Z2, 5)):
            for n in range(1, nmax + 1):
                labels = [MultiPartition(t) for t in multipartitions_of(n, g.k)]
                table = character_table(g, n)
                index = {m: i for i, m in enumerate(table.col_labels)}
                for p in (2, 3):
                    for mu in multipartitions_of(n, g.k):
                        for nu in generator_steps(mu, p):
                            ci, cj = index[mu], index[nu]
                            for r in range(len(labels)):
                                assert (table.values[r][ci] - table.values[r][cj]) % p == 0
                            mu_mp = MultiPartition(mu)
                            nu_mp = MultiPartition(nu)
                            for lam in labels:
                                diff = perm_character(g, lam, mu_mp) - perm_character(g, lam, nu_mp)
                                assert diff % p == 0


class TestCanonicalCellCongruence:
    """chi(lam, mu) = chi(lam, canon_p(mu)) mod p cell by cell, for every
    builtin: the sampled and type-D censuses decide cells at canon_p(mu)."""

    SIZES = {"trivial": 10, "Z2": 7, "S3": 5, "Z2xZ2": 4, "S4": 4, "D8": 4, "Q8": 4}

    def test_sizes_cover_every_builtin(self):
        assert set(self.SIZES) == set(BUILTIN_NAMES)

    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_every_cell_congruent_to_canonical(self, name):
        g = builtin(name)
        for n in range(1, self.SIZES[name] + 1):
            table = character_table(g, n)
            index = {m: i for i, m in enumerate(table.col_labels)}
            for p in (2, 3, 5):
                for c, mu in enumerate(table.col_labels):
                    cc = index[mash_canonical(mu, p).canonical]
                    if cc == c:
                        continue
                    for row in table.values:
                        assert (row[c] - row[cc]) % p == 0, (name, n, p, mu)


class TestZeroCertificate:
    def test_five_core_example(self):
        lam = MultiPartition([[4, 2, 1], []])
        mu = MultiPartition([[5, 2], []])  # already canonical at p=3, t=5
        mashed = mash_canonical(mu, 3)
        assert mashed.largest_part == 5
        assert zero_certificate(lam, mashed)

    def test_row_with_hook_t_fails(self):
        lam = MultiPartition([[5], [2]])  # (5) has a hook of every length <= 5
        mu = MultiPartition([[5, 2], []])
        mashed = mash_canonical(mu, 3)
        assert not zero_certificate(lam, mashed)

    def test_trivial_label_never_certified(self):
        for n in range(1, 8):
            lam = MultiPartition(((n,), ()))
            for p in (2, 3):
                for mu in multipartitions_of(n, 2):
                    assert not predicted_divisible(Z2, lam, MultiPartition(mu), p)

    def test_certified_implies_zero_at_canonical(self):
        for n in range(1, 8):
            for p in (2, 3):
                labels = [MultiPartition(t) for t in multipartitions_of(n, 2)]
                for mu in labels:
                    mashed = mash_canonical(mu, p)
                    for lam in labels:
                        if zero_certificate(lam, mashed):
                            assert mn_character(Z2, lam, mashed.canonical) == 0


class TestPredictedDivisible:
    def test_six_core_construction(self):
        lam = MultiPartition([[3, 1], [3, 1]])  # hooks of (3,1): 4,2,1,1 - a 6-core
        mu = MultiPartition([[6, 1, 1], []])  # mashes at p=2 to ((6,2),()), t=6
        assert predicted_divisible(Z2, lam, mu, 2)
        assert mn_character(Z2, lam, mu) % 2 == 0

    def test_soundness_random_n12(self):
        import random

        from wreathchar.partitions import count_multipartitions, unrank_multipartition

        rng = random.Random(99)
        total = count_multipartitions(12, 2)
        for _ in range(200):
            lam = unrank_multipartition(12, 2, rng.randrange(total))
            mu = unrank_multipartition(12, 2, rng.randrange(total))
            if predicted_divisible(Z2, lam, mu, 3):
                assert mn_character(Z2, lam, mu) % 3 == 0

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            predicted_divisible(Z2, MultiPartition([[2]]), MultiPartition([[2], []]), 2)
