"""Acceptance suite: ten criteria, one test and one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Heavier than the unit tests (a couple of minutes end to end); every check is
exact or seeded, nothing is tolerance-calibrated at runtime.
"""

import time
from fractions import Fraction
from math import factorial

import pytest

from wreathchar.base_group import builtin
from wreathchar.cli import main as cli_main
from wreathchar.congruence import mash_canonical, zero_certificate
from wreathchar.partitions import (
    MultiPartition,
    count_partitions,
    multipartitions_of,
)
from wreathchar.stats import (
    asymptotic_check,
    certificate_census,
    concentration_check,
    exact_census,
    sampled_census,
)
from wreathchar.weyl_d import (
    dn_half_classes_property,
    dn_irrep_census,
    dn_restricted_census,
    psi_value,
)
from wreathchar.wreath_chars import (
    character_table,
    dimension,
    perm_character,
    perm_multiplicity,
)

Z2 = builtin("Z2")
TRIVIAL = builtin("trivial")
S3 = builtin("S3")


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def z2_tables():
    return {n: character_table(Z2, n) for n in range(0, 9)}


def _labels(n, k):
    return [MultiPartition.from_tuples(t) for t in multipartitions_of(n, k)]


def _orthogonal(table, order):
    size = len(table.row_labels)
    if sum(table.class_sizes) != order:
        return False
    for r in range(size):
        for s in range(r, size):
            inner = sum(
                table.class_sizes[j] * table.values[r][j] * table.values[s][j]
                for j in range(size)
            )
            if inner != (order if r == s else 0):
                return False
    for i in range(size):
        for j in range(i, size):
            inner = sum(table.values[r][i] * table.values[r][j] for r in range(size))
            want = order // table.class_sizes[i] if i == j else 0
            if inner != want:
                return False
    return True


def test_criterion_01_orthogonality(z2_tables):
    start = time.monotonic()
    ok = True
    cases = [(TRIVIAL, n) for n in range(0, 6)] + [(Z2, n) for n in range(0, 6)]
    cases += [(S3, n) for n in range(0, 4)]
    for g, n in cases:
        table = z2_tables[n] if g is Z2 else character_table(g, n)
        order = g.order**n * factorial(n)
        if not _orthogonal(table, order):
            ok = False
            break
        ident = [()] * g.k
        ident[g.identity_class] = (1,) * n
        col = table.col_labels.index(MultiPartition.from_tuples(ident))
        for r, lam in enumerate(table.row_labels):
            if table.values[r][col] != dimension(g, lam):
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    _report(1, ok, f"orthogonality + degrees, trivial/Z2 n<=5 and S3 n<=3, {elapsed:.1f}s")


def test_criterion_02_basis_change(z2_tables):
    checked = 0
    ok = True
    for g in (TRIVIAL, Z2):
        for n in range(0, 6):
            table = z2_tables[n] if g is Z2 else character_table(g, n)
            labels = list(table.row_labels)
            for lam in labels:
                mults = [perm_multiplicity(lam, eta) for eta in labels]
                for c, mu in enumerate(table.col_labels):
                    want = sum(m * table.values[r][c] for r, m in enumerate(mults) if m)
                    if perm_character(g, lam, mu) != want:
                        ok = False
                    checked += 1
    _report(2, ok, f"perm = Kostka x MN on {checked} cells (trivial/Z2, n<=5), exact")


def _generator_steps(mp_tuples, p):
    out = []
    for j, comp in enumerate(mp_tuples):
        for i, part in enumerate(comp):
            if part % p == 0:
                m = part // p
                split = tuple(sorted(comp[:i] + comp[i + 1 :] + (m,) * p, reverse=True))
                out.append(mp_tuples[:j] + (split,) + mp_tuples[j + 1 :])
    return out


def test_criterion_03_mashing_congruence(z2_tables):
    pairs = 0
    ok = True
    for g in (TRIVIAL, Z2):
        for n in range(1, 8):
            table = z2_tables[n] if g is Z2 else character_table(g, n)
            labels = list(table.row_labels)
            index = {m.as_tuples(): i for i, m in enumerate(table.col_labels)}
            perm_cols = {}
            for p in (2, 3):
                for mu in multipartitions_of(n, g.k):
                    for nu in _generator_steps(mu, p):
                        pairs += 1
                        ci, cj = index[mu], index[nu]
                        for r in range(len(labels)):
                            if (table.values[r][ci] - table.values[r][cj]) % p:
                                ok = False
                        for col in (mu, nu):
                            if col not in perm_cols:
                                mp = MultiPartition.from_tuples(col)
                                perm_cols[col] = [
                                    perm_character(g, lam, mp) for lam in labels
                                ]
                        for a, b in zip(perm_cols[mu], perm_cols[nu]):
                            if (a - b) % p:
                                ok = False
    _report(3, ok, f"chi and M congruent mod p over {pairs} single-step pairs (n<=7, p in 2,3)")


def test_criterion_04_zero_certificate_soundness(z2_tables):
    certified = 0
    ok = True
    for n in range(1, 9):
        table = z2_tables[n]
        for p in (2, 3, 5):
            mashes = [mash_canonical(mu, p) for mu in table.col_labels]
            for r, lam in enumerate(table.row_labels):
                for c, mashed in enumerate(mashes):
                    if zero_certificate(lam, mashed):
                        certified += 1
                        if table.values[r][c] % p:
                            ok = False
    _report(4, ok, f"{certified} certificates, zero exact-value violations (Z2, n<=8, p in 2,3,5)")


def test_criterion_05_divisibility_trend():
    t0 = time.monotonic()
    exact = {n: exact_census(Z2, n, 2).proportion for n in range(6, 13)}
    exact_time = time.monotonic() - t0
    endpoint_up = exact[12] > exact[6]

    t0 = time.monotonic()
    samp = sampled_census(Z2, 24, 2, samples=10_000, seed=20260810)
    sampled_time = time.monotonic() - t0
    ci_above = samp.ci_low > float(exact[12])

    coverages = {}
    cert_ok = True
    cert_time = 0.0
    for n in (50, 500, 2000):
        t0 = time.monotonic()
        coverages[n] = certificate_census(2, n, 2, samples=10_000, seed=20260810).coverage
        step = time.monotonic() - t0
        cert_time = max(cert_time, step)
        cert_ok = cert_ok and step < 120
    cert_up = coverages[50] < coverages[500] < coverages[2000]

    ok = (
        endpoint_up
        and ci_above
        and cert_up
        and exact_time < 600
        and sampled_time < 120
        and cert_ok
    )
    seq = ", ".join(f"{n}:{float(v):.4f}" for n, v in exact.items())
    _report(
        5,
        ok,
        f"exact {seq} (rise 6->12: {endpoint_up}); sampled n=24 CI low "
        f"{samp.ci_low:.4f} > {float(exact[12]):.4f}; certificate "
        f"{float(coverages[50]):.4f} < {float(coverages[500]):.4f} < "
        f"{float(coverages[2000]):.4f}; times {exact_time:.0f}s/{sampled_time:.0f}s/{cert_time:.0f}s",
    )


def test_criterion_06_sampling_consistency():
    exact = float(exact_census(Z2, 8, 2).proportion)
    hits = 0
    for seed in range(100):
        r = sampled_census(Z2, 8, 2, samples=10_000, seed=seed)
        if r.ci_low <= exact <= r.ci_high:
            hits += 1
    _report(6, hits >= 95, f"exact proportion inside 99% CI for {hits}/100 seeds (need >= 95)")


def test_criterion_07_asymptotics():
    start = time.monotonic()
    ratios = {(k, n): asymptotic_check(k, n) for k in (1, 2, 3) for n in (100, 1000, 10_000)}
    elapsed = time.monotonic() - start
    in_window = all(0.90 <= ratios[(k, 10_000)] <= 0.995 for k in (1, 2, 3))
    increasing = all(
        ratios[(k, 100)] < ratios[(k, 1000)] < ratios[(k, 10_000)] for k in (1, 2, 3)
    )
    ok = in_window and increasing and elapsed < 120
    detail = ", ".join(f"k={k}: {ratios[(k, 10_000)]:.4f}" for k in (1, 2, 3))
    _report(7, ok, f"ratios at n=1e4 [{detail}], increasing over 1e2/1e3/1e4, {elapsed:.1f}s")


def test_criterion_08_concentration():
    values = {n: concentration_check(2, n, Fraction(3, 10)) for n in (50, 100, 200, 400)}
    increasing = values[50] < values[100] < values[200] < values[400]
    pinned = concentration_check(2, 2, Fraction(1, 2)) == Fraction(1, 5)
    seq = ", ".join(f"{n}:{float(v):.4f}" for n, v in values.items())
    _report(8, increasing and pinned, f"window proportions rise [{seq}]; (2,2,1/2) = 1/5 exactly")


def test_criterion_09_type_d():
    census_ok = dn_irrep_census(2).total == 4
    split_ok = all(
        dn_irrep_census(n).split_halves == 2 * count_partitions(n // 2) for n in (2, 4, 6, 8)
    )
    half_ok = all(dn_half_classes_property(n) >= Fraction(1, 2) for n in range(1, 15))
    twist_ok = True
    for n in range(1, 7):
        table = character_table(Z2, n)
        index = {m.as_tuples(): i for i, m in enumerate(table.row_labels)}
        for lam in table.row_labels:
            swapped = MultiPartition([lam.components[1], lam.components[0]])
            r1, r2 = index[lam.as_tuples()], index[swapped.as_tuples()]
            for c, nu in enumerate(table.col_labels):
                if table.values[r1][c] != table.values[r2][c] * psi_value(nu):
                    twist_ok = False
    r10 = dn_restricted_census(10, 2, mode="exact")
    r16 = dn_restricted_census(16, 2, mode="sampled", samples=6000, seed=3)
    trend_ok = float(r16.proportion) > float(r10.proportion)
    ok = census_ok and split_ok and half_ok and twist_ok and trend_ok
    _report(
        9,
        ok,
        f"D2 irreps=4, split=2p(n/2), half-classes>=1/2 (n<=14), psi-twist n<=6, "
        f"restricted trend {float(r10.proportion):.4f} -> {float(r16.proportion):.4f}",
    )


def test_criterion_10_determinism(capsys):
    runs = {
        "sample-census": ["sample-census", "--group", "Z2", "--n", "8", "--p", "2",
                          "--samples", "300", "--seed", "9"],
        "cert-census": ["cert-census", "--k", "2", "--n", "60", "--p", "2",
                        "--samples", "300", "--seed", "9"],
        "census": ["census", "--group", "Z2", "--n", "3", "--p", "2"],
        "table": ["table", "--group", "Z2", "--n", "3"],
    }
    ok = True
    for name, argv in runs.items():
        outputs = set()
        for workers in ("1", "4", "8"):
            code = cli_main(argv + ["--workers", workers])
            captured = capsys.readouterr()
            if code != 0:
                ok = False
            outputs.add(captured.out)
        if len(outputs) != 1:
            ok = False
    _report(10, ok, "byte-identical CLI output at workers 1, 4, 8 for census/table runs")
