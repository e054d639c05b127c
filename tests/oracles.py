"""Independent brute-force oracles the tests check the fast paths against.

Everything here is deliberately naive: cell-set reasoning for border strips,
unmemoized recursion for characters and for window counts, exhaustive
assignment enumeration for row decompositions, backtracking for tableaux,
entry-at-a-time completion tables with the top-down unranking walk, and one
``csv.writer`` row per cell for the table CSV.  None of it shares code with
the package internals beyond plain tuples, except ``unreduced_dn_census``
and ``full_table_census``, which check reductions of the censuses rather
than the character engine and so read their values from that engine, and
``twisted_label``, which conjugates with the public ``Partition.conjugate``
(cell counting, not the engine's beta-set masks).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from bisect import bisect_right, insort
from collections import Counter
from fractions import Fraction
from math import factorial


def subpartitions(parts, size):
    """All partitions q with |q| = size and q_i <= parts_i rowwise."""

    def rec(i, remaining, prev):
        if remaining == 0:
            yield ()
            return
        if i == len(parts):
            return
        top = min(parts[i], prev, remaining)
        for v in range(top, 0, -1):
            for rest in rec(i + 1, remaining - v, v):
                yield (v,) + rest

    if size == 0:
        yield ()
        return
    yield from rec(0, size, parts[0] if parts else 0)


def brute_strip_removals(parts, length):
    """All (remainder, height) for border strips of ``length`` via cell sets:
    remainder must be a partition inside parts, the removed cells must be
    edge-connected and contain no southeast-diagonal pair."""
    n = sum(parts)
    found = set()
    for q in subpartitions(parts, n - length):
        qpad = q + (0,) * (len(parts) - len(q))
        cells = {
            (i, j)
            for i in range(len(parts))
            for j in range(qpad[i], parts[i])
        }
        if len(cells) != length:
            continue
        if any((i + 1, j + 1) in cells for (i, j) in cells):
            continue
        # edge connectivity
        seen = set()
        stack = [next(iter(cells))]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            i, j = c
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in cells and nb not in seen:
                    stack.append(nb)
        if seen != cells:
            continue
        rows = {i for i, _ in cells}
        found.add((q, max(rows) - min(rows)))
    return found


def brute_peel_step(sources, targets, length):
    """Per multipartition of ``sources``, the Counter of its moves (q, index
    in ``targets`` of the remainder, (-1)^height), one per border strip of
    ``length`` removable from component q, read off cell sets."""
    index = {mp: i for i, mp in enumerate(targets)}
    out = []
    for mp in sources:
        moves = Counter()
        for q, comp in enumerate(mp):
            for rem, height in brute_strip_removals(comp, length):
                moves[(q, index[mp[:q] + (rem,) + mp[q + 1 :]], (-1) ** height)] += 1
        out.append(moves)
    return out


def twisted_label(table, lam, theta, e):
    """lambda* for the linear character (theta wr 1) sgn^e of G wr S_n, theta
    a row of ``table``: component q of lam moves to the row equal to
    theta * table[q], and is conjugated when e = 1."""
    from wreathchar.partitions import Partition

    out = [()] * len(table)
    for q, comp in enumerate(lam):
        target = table.index(tuple(t * v for t, v in zip(theta, table[q])))
        out[target] = Partition(comp).conjugate() if e else tuple(comp)
    return tuple(out)


def twist_sign(theta, e, mu):
    """Theta(mu) for Theta = (theta wr 1) sgn^e: theta(c_j) once per part of
    mu_j, times the sign (-1)^(n - l(mu)) of the permutation when e = 1."""
    sign = 1
    for j, comp in enumerate(mu):
        for _ in comp:
            sign *= theta[j]
    if e and (sum(map(sum, mu)) - sum(map(len, mu))) % 2:
        sign = -sign
    return sign


def central_classes(centralizer_orders, identity):
    """The classes z != 1 of G that are central: z commutes with all of G,
    so its centralizer order is |G|, the centralizer order of the identity."""
    return [z for z, c in enumerate(centralizer_orders) if z != identity and c == centralizer_orders[identity]]


def central_image(table, identity, z, mu):
    """The class of (z, ..., z) g for g in the class mu, with z central in G.

    z acts on the irreducible q as the scalar psi_q(z) / deg_q, so z x lies
    in the class whose column is that scalar times the column of x; it is
    found by comparing whole columns.  A cycle of length l multiplies its
    cycle product by z^l, and z^2 = 1, so only the odd parts move."""
    k = len(table)
    columns = [[table[q][j] for q in range(k)] for j in range(k)]
    moved = []
    for j in range(k):
        want = [table[q][z] * table[q][j] // table[q][identity] for q in range(k)]
        matches = [i for i in range(k) if columns[i] == want]
        assert len(matches) == 1, (z, j, matches)
        moved.append(matches[0])
    out = [[] for _ in range(k)]
    for j, comp in enumerate(mu):
        for part in comp:
            out[moved[j] if part % 2 else j].append(part)
    return tuple(tuple(sorted(comp, reverse=True)) for comp in out)


def top_sub_classes(labels):
    """What a full table asks ``character_column`` for, given the labels of
    the columns it computes: per label mu, (n - L, mu less the part L) for
    mu's longest part L in the last component that holds one; distinct,
    ordered by L and then by first appearance."""
    by_length = {}
    for mu in labels:
        length, j = max((part, j) for j, comp in enumerate(mu) for part in comp)
        rest = tuple(comp[1:] if i == j else comp for i, comp in enumerate(mu))
        by_length.setdefault(length, {}).setdefault(rest, None)
    n = sum(map(sum, labels[0]))
    return [(n - length, rest) for length in sorted(by_length) for rest in by_length[length]]


def central_character(table, identity, z, lam):
    """omega_lambda(z) = prod_q (psi_q(z) / deg_q)^|lambda_q|, the scalar by
    which the central (z, ..., z) acts on the irreducible lambda."""
    out = 1
    for q, comp in enumerate(lam):
        out *= (table[q][z] // table[q][identity]) ** sum(comp)
    return out


def component_major_sequence(mu):
    """The (length, class) pairs of mu component by component, longest part
    first within each component: a fixed peel order for brute_mn_value that
    does not come from the package."""
    seq = []
    for j, comp in enumerate(mu):
        for length in sorted(comp, reverse=True):
            seq.append((length, j))
    return tuple(seq)


def brute_mn_value(table, lam, seq):
    """Unmemoized rimhook-peeling recursion using the cell-set strip oracle."""
    if not seq:
        return 1
    length, j = seq[0]
    total = 0
    for q in range(len(lam)):
        for rem, height in brute_strip_removals(lam[q], length):
            sub = brute_mn_value(table, lam[:q] + (rem,) + lam[q + 1 :], seq[1:])
            total += (-1) ** height * table[q][j] * sub
    return total


def brute_row_decompositions(lam, mu):
    """All exact-fill assignments of mu rows to lam rows, as tuples of lam-row
    indices; lam and mu are tuple-of-tuples multipartitions."""
    lam_rows = [(q, L) for q, comp in enumerate(lam) for L in comp]
    mu_rows = [(j, l) for j, comp in enumerate(mu) for l in comp]
    out = []
    for assign in itertools.product(range(len(lam_rows)), repeat=len(mu_rows)):
        fill = [0] * len(lam_rows)
        for r, target in enumerate(assign):
            fill[target] += mu_rows[r][1]
        if fill == [L for _, L in lam_rows]:
            out.append(assign)
    return out, lam_rows, mu_rows


def brute_perm_value(table, lam, mu):
    decs, lam_rows, mu_rows = brute_row_decompositions(lam, mu)
    total = 0
    for assign in decs:
        alpha = 1
        for r, target in enumerate(assign):
            alpha *= table[lam_rows[target][0]][mu_rows[r][0]]
        total += alpha
    return total


def brute_ssyt_count(shape, content):
    """Count semistandard tableaux of ``shape`` whose entry i appears
    content[i] times, by cell-at-a-time backtracking."""
    if sum(shape) != sum(content):
        return 0
    cells = [(i, j) for i in range(len(shape)) for j in range(shape[i])]
    counts = list(content)
    grid = {}
    total = 0

    def place(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        i, j = cells[idx]
        for v in range(len(counts)):
            if not counts[v]:
                continue
            if j and grid[(i, j - 1)] > v:
                continue
            if i and grid[(i - 1, j)] >= v:
                continue
            counts[v] -= 1
            grid[(i, j)] = v
            place(idx + 1)
            counts[v] += 1
        grid.pop((i, j), None)

    place(0)
    return total


def partition_count_bounded(n):
    """p(n) from the parts-bounded DP, independent of the pentagonal route."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            table[m][k] = table[m][k - 1] + (table[m - k][k] if m >= k else 0)
    return table[n][n]


def tcore_count_series(nmax, t):
    """Coefficients 0..nmax of prod_m (1 - q^{tm})^t / (1 - q^m)."""
    coeff = [0] * (nmax + 1)
    coeff[0] = 1
    for m in range(1, nmax + 1):
        for i in range(m, nmax + 1):  # divide by (1 - q^m)
            coeff[i] += coeff[i - m]
    for m in range(1, nmax // t + 1):
        for _ in range(t):  # multiply by (1 - q^{tm}), t times
            for i in range(nmax, t * m - 1, -1):
                coeff[i] -= coeff[i - t * m]
    return coeff


def z2_wr_s2_classes():
    """Label -> element count over the 8 elements of Z/2Z wr S_2, plus a
    D_2 member count per label (even number of -1 entries)."""
    sizes = {}
    dn = {}
    for perm in ((0, 1), (1, 0)):
        for signs in itertools.product((1, -1), repeat=2):
            comps = ([], [])
            seen = set()
            for start in range(2):
                if start in seen:
                    continue
                cycle = [start]
                seen.add(start)
                cur = perm[start]
                while cur != start:
                    cycle.append(cur)
                    seen.add(cur)
                    cur = perm[cur]
                product = 1
                for idx in cycle:
                    product *= signs[idx]
                comps[0 if product == 1 else 1].append(len(cycle))
            label = tuple(tuple(sorted(c, reverse=True)) for c in comps)
            sizes[label] = sizes.get(label, 0) + 1
            if signs.count(-1) % 2 == 0:
                dn[label] = dn.get(label, 0) + 1
    return sizes, dn


S3_CLASS_SIZES = (1, 3, 2)
S3_TABLE = ((1, 1, 1), (1, -1, 1), (2, 0, -1))
# permutation-module characters on classes (e, (12), (123))
S3_PERM_CHARS = {(3,): (1, 1, 1), (2, 1): (3, 1, 0), (1, 1, 1): (6, 0, 0)}


def s3_perm_multiplicity(beta, gamma_row):
    """<M^beta, chi^gamma> over S_3, from the classical table."""
    mchar = S3_PERM_CHARS[beta]
    chi = S3_TABLE[gamma_row]
    inner = sum(s * m * c for s, m, c in zip(S3_CLASS_SIZES, mchar, chi))
    assert inner % 6 == 0
    return inner // 6


def standard_tableaux_count(shape):
    """Count standard tableaux by backtracking (content = all ones)."""
    return brute_ssyt_count(shape, (1,) * sum(shape))


def multinomial(ns):
    out = factorial(sum(ns))
    for a in ns:
        out //= factorial(a)
    return out


def full_table_census(group, n, p):
    """The exact census without the row-orbit reduction: every cell of
    ``character_table`` read.  Returns (divisible cells, cells)."""
    from wreathchar.wreath_chars import character_table

    cells = [v for row in character_table(group, n).values for v in row]
    return sum(v % p == 0 for v in cells), len(cells)


def unreduced_dn_census(n, primes):
    """Type-D exact census without the canonical-class reduction: one
    ``character_column`` per D_N column, all on one shared levels dict, every
    (nonsplit row, D_N column) cell read.  Returns ({p: divisible cells},
    cells)."""
    from wreathchar.base_group import builtin
    from wreathchar.partitions import multipartitions_of
    from wreathchar.wreath_chars import character_column

    labels = multipartitions_of(n, 2)
    rows = [t for t in labels if t < (t[1], t[0])]  # one of each pair {lam, mu}, lam != mu
    cols = [t for t in labels if len(t[1]) % 2 == 0]  # psi = 1
    hits = dict.fromkeys(primes, 0)
    z2 = builtin("Z2")
    levels = {}
    for mu in cols:
        col = dict(zip(labels, character_column(z2, n, mu, levels=levels)))
        for lam in rows:
            value = col[lam]
            for p in primes:
                if value % p == 0:
                    hits[p] += 1
    return hits, len(rows) * len(cols)


def mash_component_carry(parts, p):
    """Canonical mod-p form of one component by the base-p carry on its
    multiplicity vector: sizes in increasing order, p parts s carried to one
    part sp, so each size is finalized once (carries land at sp > s)."""
    sizes = Counter(parts)
    order = sorted(sizes)
    out = []
    i = 0
    while i < len(order):
        s = order[i]
        i += 1
        c = sizes[s]
        r, q = c % p, c // p
        out.extend([s] * r)
        if q:
            t = s * p
            if t in sizes:
                sizes[t] += q
            else:
                sizes[t] = q
                insort(order, t)
    out.sort(reverse=True)
    return tuple(out)


def multipartition_count_array(n, t):
    """p_t(0..n) by convolving t copies of the parts-bounded p array; p_0 is
    the delta at 0.  Independent of the pentagonal route."""
    bounded = [[1] * (n + 1)] + [[0] * (n + 1) for _ in range(n)]
    for m in range(1, n + 1):
        for b in range(1, n + 1):
            bounded[m][b] = bounded[m][b - 1] + (bounded[m - b][b] if m >= b else 0)
    single = [bounded[m][n] for m in range(n + 1)]
    out = [1] + [0] * n
    for _ in range(t):
        out = [sum(single[a] * out[m - a] for a in range(m + 1)) for m in range(n + 1)]
    return out


def completion_tables(n, k):
    """The completion tables T_t[m][b] by the entry-at-a-time double loop:
    T_t[m][0] = p_t(m), T_t[m][b] = T_t[m][b-1] + T_t[m-b][min(b, m-b)]."""
    tables = []
    for t in range(k):
        base = multipartition_count_array(n, t)
        tab = []
        for m in range(n + 1):
            row = [base[m]]
            for b in range(1, m + 1):
                row.append(row[b - 1] + tab[m - b][min(b, m - b)])
            tab.append(row)
        tables.append(tab)
    return tables


def unrank_multipartition(n, k, index, tables=None):
    """The index-th k-multipartition of n, as part tuples, by the top-down
    walk: bisect each row for the next part, then flip the rank into the
    chosen block."""
    if tables is None:
        tables = completion_tables(n, k)
    comps = []
    m = n
    for c in range(k):
        tab = tables[k - 1 - c]
        parts = []
        b = m
        while True:
            row = tab[m]
            hi = min(b, m)
            r = row[hi] - 1 - index  # rank from the bottom of this subtree
            s = bisect_right(row, r, 0, hi + 1)
            if s == 0:
                index = row[0] - 1 - r
                break
            block = tab[m - s][min(s, m - s)]
            index = block - 1 - (r - row[s - 1])
            parts.append(s)
            m -= s
            b = s
        comps.append(tuple(parts))
    return tuple(comps)


def concentration_fraction(k, n, delta):
    """``concentration_check`` by the unmemoized recursion over component
    sizes, O(n^(k-1)); ``delta`` is a Fraction in (0, 1)."""
    lo = Fraction(n, k) * (1 - delta)
    hi = Fraction(n, k) * (1 + delta)
    counts = multipartition_count_array(n, 1)

    def admissible(a):
        return lo < a < hi

    def rec(i, remaining):
        if i == k - 1:
            return counts[remaining] if admissible(remaining) else 0
        sub = 0
        for a in range(remaining + 1):
            if admissible(a):
                sub += counts[a] * rec(i + 1, remaining - a)
        return sub

    return Fraction(rec(0, n), multipartition_count_array(n, k)[n])


def reference_csv(table):
    """A ``CharTable`` as CSV through ``csv.writer``, with one ``json.dumps``
    per cell: the encoding ``CharTable.write_csv`` must reproduce byte for
    byte."""

    def encode(lab):
        return json.dumps([list(p) for p in lab], separators=(",", ":"))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["row_label", "col_label", "value"])
    for lab, row in zip(table.row_labels, table.values):
        for mu, v in zip(table.col_labels, row):
            writer.writerow([encode(lab), encode(mu), str(v)])
    return buf.getvalue()


def paley_12_document():
    """A group document that passes orthogonality but is no group's table:
    the Paley Hadamard matrix of order 12 (quadratic residues mod 11),
    normalized to a first row and column of ones, as a table of 12 linear
    characters on 12 classes of centralizer 12.  A product of two of its
    rows is not a row, as it would be for a group of order 12."""
    q = 11
    residues = {x * x % q for x in range(1, q)}

    def legendre(a):
        return 0 if a % q == 0 else 1 if a % q in residues else -1

    h = [[1] * (q + 1)] + [[-1] + [legendre(j - i) + (i == j) for j in range(q)] for i in range(q)]
    # the first row is all ones; negating the rows that start with -1 makes
    # the first column all ones too
    h = [[v * row[0] for v in row] for row in h]
    return {
        "name": "paley12",
        "class_labels": [f"c{j}" for j in range(q + 1)],
        "centralizer_orders": [q + 1] * (q + 1),
        "identity_class": 0,
        "trivial_char": 0,
        "table": h,
    }
