"""Integer partitions and k-multipartitions: enumeration, exact counting,
hooks, rimhooks, t-cores, dominance, and rank/unrank in the canonical order.

A label is its part tuples: ``Partition`` is a tuple of its parts and
``MultiPartition`` a tuple of its ``Partition`` components, so a label
equals, hashes and orders as the plain tuple of part tuples, and every
module reads it as one.  The constructors validate; ``_from_valid`` is the
one unchecked constructor, for parts valid by construction.  Every public
function takes a label or its plain part tuples, and ``_label`` passes a
label through and sends anything else through the constructor.

A beta-set has one form, the bits of one Python int (``_beta_mask``), and
border strips have one primitive on it, ``_strips``: the single-cell and the
whole-column character kernels peel through it, and ``remove_rimhooks``
decodes its masks back to parts.

Canonical orders (used everywhere downstream):
  * partitions of n: descending lexicographic on part tuples,
    e.g. n=4 -> (4), (3,1), (2,2), (2,1,1), (1,1,1,1);
  * k-multipartitions of n: descending lexicographic on the tuple of
    part tuples (component-major), e.g. (n=2, k=2) ->
    ((2),()), ((1,1),()), ((1),(1)), ((),(2)), ((),(1,1)).

All counts are exact Python integers; unranking is a counting DP over the
same order, so ``unrank`` is the inverse of ``rank`` by construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, chain
from math import factorial
from operator import add, sub
from typing import Iterator, NamedTuple


def _is_int(value) -> bool:
    # a bool is an int to isinstance, but True is no part, count or key
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(name: str, value) -> None:
    # the exact type first: it settles nearly every call on the draw path
    if type(value) is not int and not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


class Partition(tuple):
    """A weakly decreasing tuple of positive integers; () is the partition of 0.
    It equals, hashes and orders as the plain tuple of its parts."""

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            if not _is_int(p):
                raise ValueError(f"parts must be integers, got {p!r} at index {i}")
            if p < 1:
                raise ValueError(f"parts must be positive, got {p} at index {i}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        return tuple.__new__(cls, parts)

    @classmethod
    def _from_valid(cls, parts: tuple[int, ...]) -> "Partition":
        """A partition from parts already known to be valid; no checks."""
        return tuple.__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def __repr__(self):
        return f"Partition({list(self)})"

    def conjugate(self) -> "Partition":
        if not self:
            return Partition()
        return Partition(sum(1 for p in self if p > i) for i in range(self[0]))


class MultiPartition(tuple):
    """A k-tuple of partitions; ``total`` is the sum of the component sizes.
    It equals, hashes and orders as the plain tuple of its part tuples."""

    __slots__ = ()

    def __new__(cls, components):
        comps = tuple(c if isinstance(c, Partition) else Partition(c) for c in components)
        if not comps:
            raise ValueError("a multipartition needs at least one component")
        return tuple.__new__(cls, comps)

    @property
    def k(self) -> int:
        return len(self)

    @property
    def total(self) -> int:
        return sum(map(sum, self))

    @classmethod
    def _from_valid(cls, tuples) -> "MultiPartition":
        """From part tuples that are valid by construction (unranking,
        mashing): at least one, each weakly decreasing positive ints.  Nothing
        is checked again; every public constructor validates."""
        return tuple.__new__(cls, [tuple.__new__(Partition, parts) for parts in tuples])

    def __repr__(self):
        return f"MultiPartition({[list(c) for c in self]})"


def _label(cls, value):
    """value as a ``cls`` label: itself when it is one, so that a label pays
    only a type check, else validated by the constructor."""
    return value if type(value) is cls else cls(value)


class RimhookRemoval(NamedTuple):
    """One way to remove a border strip: what remains, rows spanned minus one,
    and the strip length (so remainder.size + length = original size)."""

    remainder: Partition
    height: int
    length: int


# ---------------------------------------------------------------------------
# enumeration


def _partition_tuples(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of exactly n with parts <= max_part, descending lex order."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest


def _prefix_tuples(limit: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of any size <= limit with parts <= max_part, descending lex.

    The empty partition sorts last, after every nonempty one: continuing a
    tuple always compares greater than stopping.
    """
    for first in range(min(max_part, limit), 0, -1):
        for rest in _prefix_tuples(limit - first, first):
            yield (first,) + rest
    yield ()


def _multipartition_tuples(n: int, k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    if k == 1:
        for p in _partition_tuples(n):
            yield (p,)
        return
    for first in _prefix_tuples(n, n):
        for rest in _multipartition_tuples(n - sum(first), k - 1):
            yield (first,) + rest


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, descending lex order; length equals count_partitions(n)."""
    _check_int("n", n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [Partition._from_valid(t) for t in _partition_tuples(n)]


def enumerate_multipartitions(n: int, k: int) -> Iterator[MultiPartition]:
    """All k-multipartitions of n in the canonical descending-lex order."""
    _check_int("n", n)
    _check_int("k", k)
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    return (MultiPartition._from_valid(t) for t in _multipartition_tuples(n, k))


@lru_cache(maxsize=1)
def multipartitions_of(n: int, k: int) -> tuple[MultiPartition, ...]:
    """The canonical enumeration as one tuple of labels (engine use); only
    the latest (n, k) is kept."""
    return tuple(map(MultiPartition._from_valid, _multipartition_tuples(n, k)))


# ---------------------------------------------------------------------------
# counting
#
# p_k arrays satisfy  p_k * E = p_{k-1}  where E is Euler's sparse pentagonal
# series prod(1 - q^m); for k = 1 this is the classical pentagonal recurrence.
# These arrays are the one counting route: count_partitions and
# count_multipartitions read them, and the tests check them against the
# convolution p_k(n) = sum_a p(a) * p_{k-1}(n - a) and against enumeration.

_pk_arrays: dict[int, list[int]] = {}


def _pentagonal_pairs(n: int) -> list[tuple[int, int, int]]:
    """(g(j), g(-j), sign) with g(j) = j(3j-1)/2 <= n, sign = (-1)^(j+1)."""
    out = []
    j = 1
    while j * (3 * j - 1) // 2 <= n:
        out.append((j * (3 * j - 1) // 2, j * (3 * j + 1) // 2, -1 if j % 2 == 0 else 1))
        j += 1
    return out


def _count_array(n: int, k: int) -> list[int]:
    """p_k(0..n) as a growing cached array; p_0 is the delta at 0."""
    if k == 0:
        return [1] + [0] * n
    arr = _pk_arrays.setdefault(k, [1])
    if len(arr) > n:
        return arr
    lower = _count_array(n, k - 1) if k > 1 else None
    pent = _pentagonal_pairs(n)
    for m in range(len(arr), n + 1):
        total = lower[m] if k > 1 else (1 if m == 0 else 0)
        for g1, g2, sign in pent:
            if g1 > m:
                break
            acc = arr[m - g1]
            if g2 <= m:
                acc += arr[m - g2]
            total += sign * acc
        arr.append(total)
    return arr


def count_partitions(n: int) -> int:
    """p(n) by the Euler pentagonal-number recurrence, exact."""
    _check_int("n", n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _count_array(n, 1)[n]


def count_multipartitions(n: int, k: int) -> int:
    """p_k(n), exact, read off the cached pentagonal p_k array."""
    _check_int("n", n)
    _check_int("k", k)
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    return _count_array(n, k)[n]


# ---------------------------------------------------------------------------
# hooks, rimhooks, t-cores


def hook_lengths(p: Partition) -> list[list[int]]:
    """Hook length of every cell, row by row (arm + leg + 1)."""
    p = _label(Partition, p)
    conj = p.conjugate()
    return [[(p[i] - j) + (conj[j] - i) - 1 for j in range(p[i])] for i in range(len(p))]


def syt_count(p: Partition) -> int:
    """Number of standard Young tableaux of shape p (hook length formula)."""
    p = _label(Partition, p)
    prod = 1
    for row in hook_lengths(p):
        for h in row:
            prod *= h
    return factorial(p.size) // prod


def _beta_mask(parts: tuple[int, ...]) -> int:
    """The beta-set as an int: bit parts[i] + rows - 1 - i set for each row i.

    The bead count never changes under ``_strips``, so a removal leaves a
    mask of the same rows (zero parts included, as beads at the bottom), and
    masks compare only within one bead count.
    """
    mask = 0
    bead = len(parts) - 1
    for part in parts:
        mask |= 1 << (part + bead)
        bead -= 1
    return mask


def _strips(mask: int, length: int) -> Iterator[tuple[int, int]]:
    """(moved mask, height) for each border strip of ``length`` on the
    beta-set ``mask``, the lowest landing position first.

    A strip is a bead at low << length moved down to a free position low,
    so the strips are the set bits low of (mask >> length) & ~mask; the
    height is the number of beads strictly between the two.
    """
    between = (1 << (length - 1)) - 1
    free = (mask >> length) & ~mask
    while free:
        low = free & -free
        free ^= low
        yield mask ^ (low | low << length), (mask & (between * low << 1)).bit_count()


# bounded, so that a long-lived process calling remove_rimhooks stays small
@lru_cache(maxsize=1 << 12)
def _strip_removals(parts: tuple[int, ...], length: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All (remainder parts, height) for removable border strips of ``length``,
    read off ``_strips`` and ordered by the moved bead, highest first."""
    out = []
    for moved, height in reversed([*_strips(_beta_mask(parts), length)]):
        rem = []
        bead = 0  # beads below this one
        while moved:
            low = moved & -moved
            moved ^= low
            part = low.bit_length() - 1 - bead
            if part:
                rem.append(part)
            bead += 1
        out.append((tuple(reversed(rem)), height))
    return tuple(out)


def remove_rimhooks(p: Partition, length: int) -> list[RimhookRemoval]:
    """All distinct rimhooks of exactly ``length`` boxes whose removal leaves a
    valid partition; empty list when none exist."""
    _check_int("length", length)
    if length < 1:
        raise ValueError("length must be positive")
    return [
        RimhookRemoval(Partition._from_valid(rem), h, length)
        for rem, h in _strip_removals(p, length)
    ]


def is_t_core(p: Partition, t: int) -> bool:
    """True iff no hook length of p is divisible by t.

    Checked as "no removable rimhook of length exactly t" on the beta-set,
    which is equivalent (a hook divisible by t implies a hook equal to t):
    no bead has a free position t below it.  The tests tie this to the
    hook_lengths definition exhaustively.
    """
    _check_int("t", t)
    if t < 1:
        raise ValueError("t must be positive")
    mask = _beta_mask(p)
    return not (mask >> t) & ~mask


# ---------------------------------------------------------------------------
# dominance


def _dominates_parts(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa < sb:
            return False
    return True


def _check_pair(a: MultiPartition, b: MultiPartition) -> tuple[MultiPartition, MultiPartition]:
    """a and b as labels; raises ValueError unless they have the same
    component count and total."""
    a, b = _label(MultiPartition, a), _label(MultiPartition, b)
    if a.k != b.k:
        raise ValueError(f"component counts differ: {a.k} vs {b.k}")
    if a.total != b.total:
        raise ValueError(f"totals differ: {a.total} vs {b.total}")
    return a, b


def dominates(a: MultiPartition, b: MultiPartition) -> bool:
    """Componentwise dominance: every a_i dominates b_i (zero-padded partial sums)."""
    a, b = _check_pair(a, b)
    return all(map(_dominates_parts, a, b))


# ---------------------------------------------------------------------------
# rank / unrank
#
# The DP table T_t[m][b] counts ways to finish the multipartition from the
# state "m boxes left, current component may still take parts <= b, t more
# components follow".  Base column T_t[m][0] = p_t(m) (component closed);
# recurrence T_t[m][b] = T_t[m][b-1] + T_t[m-b][min(b, m-b)] splits on whether
# the next part equals b.  As a series, T_t[m][b] is the q^m coefficient of
# P_{t+1}(q) * prod_{s > b} (1 - q^s), with P_{t+1} the generating function
# of p_{t+1}, and Euler's distinct-parts identity expands the product:
#
#     T_t[m][b] = sum_{r >= 0} (-1)^r A_r[m - r*b - r(r+1)/2],
#
# where a negative index gives 0, A_0 = p_{t+1} and A_r[x] = A_{r-1}[x] +
# A_r[x - r] (A_r is P_{t+1} / ((1-q)...(1-q^r)); A_1 is the prefix sums of
# p_{t+1}).  For b >= m // 8 the index of r = 8 is negative, as 8b + 36 > m,
# so the sum has at most _TERMS = 8 terms, over A_0 .. A_7.  Row m stores
# T_t[m][b] only for
#
#     b <= w(m) = max(m // _TERMS, min(m // 3, _NARROW)),
#
# an eighth of the row for large m; rows with m <= 50 keep their first
# third, where the sum has at most three terms.  So a table is its stored
# rows and eight O(n) arrays.  Each stored row is one running sum over the
# base entry and the terms T_t[m-b][b] for 1 <= b <= w(m).  The term is
# stored in row m - b while b <= max(m // 9, min(m // 4, _NARROW)); above
# that it is the sum for row m - b, and the r-th summands of consecutive b
# are a slice of A_r with stride r + 1.
#
# Rows are increasing in b, and the subtree below "next part s" holds the
# ranks [T_t[m][s-1], T_t[m][s]) counted from its bottom (the block of "close
# the component" is T_t[m][0], last in descending order).  The walk carries
# r = p_k(n) - 1 - index, the rank from the bottom of the current subtree:
# taking part s subtracts T_t[m][s-1], and closing a component keeps r, since
# T_t[m][0] = p_t(m) is the corner T_{t-1}[m][m] of the next table.  The walk
# has two branches.  When row m stores T_t[m][s-1], a repeat of s is one
# comparison, and any other next part is a bisect of row[0:s-1].  (The walk
# keeps low = first[s], the first row that stores entry s - 1, updated only
# when s changes, so telling the branches apart costs one comparison m < low
# per part.)  When part s lies above the stored entries (always so at the start
# of a component, where s = m > 1), the row's last entry T_t[m][w(m)]
# decides: if r is below it, the next part is a bisect of the stored row.
# If not, the next part lies in (w(m), min(s, m)], since r < T_t[m][min(s, m)]
# holds all along the walk, and r < T_t[m][s] reads _tail(sums, m, s) <
# p_{t+1}(m) - r, with _tail the terms r >= 1 of the sum.  Its first term
# A_1[m - s - 1] counts the multipartitions whose current component has a part
# above s, each once per such part size, so it bounds _tail from above (the
# Bonferroni inequality) and equals it from m // 2 on.  A bisect of A_1 finds
# the first s where that term drops below p_{t+1}(m) - r: the next part if
# 2s >= m, else a bound on it, checked by one _tail at s - 1; if that is
# below too, the next part is a binary search on _tail in (w(m), s - 1].
# The rank is the same sum read back, entry by entry through ``_entry``.
# Only the tables of the latest (n, k) stay in memory: a census uses one
# (n, k), and at n = 2000, k = 2 the tables take about 29 MiB by tracemalloc.

_TERMS = 8  # the arrays A_0 .. A_7; row m stores b <= m // _TERMS at least
_NARROW = 16  # ... and b <= min(m // 3, _NARROW)


class _Table(NamedTuple):
    """Completion table t: the stored rows (row m holds T_t[m][b] for
    b <= w(m)), the arrays sums[r] = A_r, r < _TERMS, of the sum
    T_t[m][b] = sum_r (-1)^r A_r[m - r*b - r(r+1)/2] above them, and the
    inverse of w for the walk (one list, shared by the tables of one n)."""

    rows: list[list[int]]
    sums: list[list[int]]  # sums[0] = p_{t+1}(0..n), sums[1] its prefix sums
    first: list[int]  # first[s] = min{m : w(m) >= s - 1}


@lru_cache(maxsize=1)
def _completion_tables(n: int, k: int) -> list[_Table]:
    tables = []
    # w(m) >= s - 1 iff m >= 3(s - 1) while s - 1 <= _NARROW, else iff m >= 8(s - 1)
    first = [(s - 1) * (3 if s <= _NARROW + 1 else _TERMS) for s in range(n + 1)]
    for t in range(k):
        base = _count_array(n, t)
        sums = [_count_array(n, t + 1)[: n + 1]]
        for r in range(1, _TERMS):
            a = [0] * (n + 1)
            for c in range(r):  # A_r is the stride-r prefix sums of A_{r-1}
                a[c::r] = accumulate(sums[-1][c::r])
            sums.append(a)
        rows: list[list[int]] = []
        for m in range(n + 1):
            width = max(m // _TERMS, min(m // 3, _NARROW))
            inner = max(m // (_TERMS + 1), min(m // 4, _NARROW))
            # the terms T_t[m-b][b] for b = width down to inner + 1, summed
            # over r; A_r adds to those with b <= c, where its index is >= 0
            terms = sums[0][m - width : m - inner]
            for r in range(1, _TERMS):
                shift = r * (r + 1) // 2
                c = min(width, (m - shift) // (r + 1))
                if c <= inner:
                    break
                terms[width - c :] = map(sub if r & 1 else add, terms[width - c :], sums[r][
                    m - shift - (r + 1) * c : m - shift - (r + 1) * inner : r + 1])
            rows.append(list(accumulate(chain(
                (base[m],),
                map(list.__getitem__, reversed(rows[m - inner :]), range(1, inner + 1)),
                reversed(terms),
            ))))
        tables.append(_Table(rows, sums, first))
    return tables


def _tail(sums: list[list[int]], m: int, b: int) -> int:
    """p_{t+1}(m) - T_t[m][b] for b >= m // _TERMS: the terms r >= 1."""
    total = 0
    r, i = 1, m - b - 1
    while i >= 0:  # the r-th index is negative from r = _TERMS on
        if r & 1:
            total += sums[r][i]
        else:
            total -= sums[r][i]
        r += 1
        i -= b + r
    return total


def unrank_multipartition(n: int, k: int, index: int) -> MultiPartition:
    """The index-th k-multipartition of n in canonical order (0-based)."""
    _check_int("n", n)
    _check_int("k", k)
    _check_int("index", index)
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    tables = _completion_tables(n, k)
    total = tables[-1].sums[0][n]  # p_k(n)
    if not 0 <= index < total:
        raise IndexError(f"index {index} out of range [0, {total})")
    r = total - 1 - index
    comps = []
    m = n
    for rows, sums, first in reversed(tables):
        parts = []
        append = parts.append
        s = m
        low = first[s]  # rows m < low store no entry s - 1
        while m:
            row = rows[m]
            if m < low:  # part s lies above the stored entries of row m
                if r >= row[-1]:  # so does the next part: search the sum
                    x = sums[0][m] - r
                    # cum[m - s - 1] >= _tail(sums, m, s), with equality
                    # from m // 2 on: the first s with cum[m - s - 1] < x is
                    # the next part there, and a bound on it below
                    cum = sums[1]
                    i = bisect_left(cum, x, m - s if s < m else 0, m - len(row))
                    s, y = m - i, cum[i]
                    if 2 * s < m and (y := _tail(sums, m, s - 1)) < x:
                        # the next part is below s: bisect (w(m), s - 1],
                        # keeping y = _tail(sums, m, lo - 1) >= x
                        lo, s, y = len(row), s - 1, x + r - row[-1]
                        while lo < s:
                            mid = (lo + s) // 2
                            v = _tail(sums, m, mid)
                            if v < x:
                                s = mid
                            else:
                                lo, y = mid + 1, v
                    r = y - x
                    low = first[s]
                    append(s)
                    m -= s
                    continue
                s = bisect_right(row, r)
            elif r >= row[s - 1]:  # a repeat of s
                r -= row[s - 1]
                append(s)
                m -= s
                continue
            else:
                s = bisect_right(row, r, 0, s - 1)
            if not s:
                break
            low = first[s]
            r -= row[s - 1]
            append(s)
            m -= s
        comps.append(tuple(parts))
    return MultiPartition._from_valid(comps)


def _entry(table: _Table, m: int, b: int) -> int:
    """T_t[m][b]: stored for b <= w(m), else the sum."""
    row = table.rows[m]
    if b < len(row):
        return row[b]
    return table.sums[0][m] - _tail(table.sums, m, b)


def rank_multipartition(mp) -> int:
    """Position of mp in the canonical enumeration; inverse of unrank.  Any
    label goes in: mp is validated as ``MultiPartition(mp)``."""
    mp = _label(MultiPartition, mp)
    n, k = mp.total, mp.k
    tables = _completion_tables(n, k)
    r = 0
    m = n
    for table, comp in zip(reversed(tables), mp):
        for s in comp:
            r += _entry(table, m, s - 1)
            m -= s
    return tables[-1].sums[0][n] - 1 - r
