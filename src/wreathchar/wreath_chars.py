"""Exact character engine for G wr S_N.

Irreducible values come from the wreath Murnaghan-Nakayama recursion:
flatten the class label mu into (length, class) pairs, longest part first
across all components, then peel rimhooks of each length from the
components of lambda; a hook placed in component q while consuming a part
of mu_j contributes a factor table[q][j], and each decomposition is signed
by (-1)^height.  Both kernels take their strips from one primitive on
beta-sets held as ints, ``partitions._strips``: a single cell runs the
recursion top-down (``_mn_beads``), and a whole column runs it bottom-up
over indexed peel steps (``character_column``).  The column kernel pulls
each step only on one representative per orbit of the linear characters
Theta = (theta wr 1) sgn^e, since chi^lambda Theta is again irreducible,
and fills in every other row by the sign Theta takes on the class peeled so
far.  Its state is one ``_Level`` per level m for the latest (n, table):
the index of the multipartitions of m, their orbits and the peel steps
built on the representatives.  ``_columns`` is the one column loop: it maps
``character_column`` over a process pool (``_pool_map``, also the sampled
censuses' pool) and owns those levels, which it drops when its columns are
done or one fails.  ``_pool_map`` imports ``concurrent.futures`` only when it
starts two or more processes, so a serial run never loads the pool machinery.
Permutation-module values come from an independent row-decomposition DP.
The two are linked by Kostka-product multiplicities, which the acceptance
suite checks cell by cell.

Component i of every multipartition is paired with row i of the group table;
class j of G is column j.  All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from functools import lru_cache, partial
from math import factorial
from operator import itemgetter, mul
from typing import Iterable, NamedTuple

from .base_group import GroupData
from .partitions import (
    MultiPartition,
    Partition,
    _beta_mask,
    _check_int,
    _check_pair,
    _label,
    _multipartition_tuples,
    _strips,
    count_multipartitions,
    multipartitions_of,
    syt_count,
)

DEFAULT_CELL_BUDGET = 50_000_000


class CellBudgetExceeded(RuntimeError):
    """Raised when a full-table request would exceed the configured cell budget."""


def _check_workers(workers: int):
    _check_int("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _check_query(group: GroupData, lam: MultiPartition, mu: MultiPartition):
    """lam and mu as labels, checked as a cell of group's table."""
    lam = _label(MultiPartition, lam)
    if lam.k != group.k:
        raise ValueError(f"lambda must have k={group.k} components, got {lam.k}")
    return _check_pair(lam, mu)


def flatten_class(mu: Iterable[tuple[int, ...]]) -> tuple[tuple[int, int], ...]:
    """The (length, class) pairs of mu, longest part first across all
    components (equal lengths by descending class).

    The value does not depend on the peel order, so it is chosen for cost.
    ``_mn_beads`` peels from the front: the longest strips have the fewest
    placements at the top of the recursion, and its memo merges the many
    orders of the short strips near the bottom.  ``character_column`` peels
    from the back: the shortest parts go while the value vectors are short,
    and the last step, over the orbit representatives among the
    multipartitions of n, peels the longest part, which has the fewest strips
    per entry.  The sign fill (``_Level.fill``) reads only how many parts of
    each class have been peeled, so any order would do for it.
    """
    return tuple(sorted(((length, j) for j, comp in enumerate(mu) for length in comp), reverse=True))


# ---------------------------------------------------------------------------
# class sizes


def class_size(group: GroupData, mu: MultiPartition) -> int:
    """Size of the conjugacy class of G wr S_n labelled by mu.

    |class| = |G|^n n! / prod_{i,l} ( (l * z_i)^{m_il} * m_il! )  where m_il
    is the multiplicity of part l in component i; the division is exact.
    """
    mu = _label(MultiPartition, mu)
    if mu.k != group.k:
        raise ValueError(f"class label needs k={group.k} components")
    n = mu.total
    denom = 1
    for i, comp in enumerate(mu):
        z = group.centralizer_orders[i]
        for length, m in Counter(comp).items():
            denom *= (length * z) ** m * factorial(m)
    num = group.order**n * factorial(n)
    if num % denom:
        raise ValueError(f"class {mu} has non-integral size {num}/{denom}: bad centralizer orders")
    return num // denom


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama values


def _mn_beads(masks, pos, seq, table, memo):
    """chi on lambda, given as one beta-set mask per component, peeling the
    (length, class) pairs seq[pos:] through ``_strips``; memo holds this
    evaluation's (masks, pos)."""
    if pos == len(seq):
        return 1
    key = (masks, pos)
    cached = memo.get(key)
    if cached is not None:
        return cached
    length, j = seq[pos]
    total = 0
    for q, mask in enumerate(masks):
        factor = table[q][j]
        if not factor:
            continue
        for moved, height in _strips(mask, length):
            sub = _mn_beads(masks[:q] + (moved,) + masks[q + 1 :], pos + 1, seq, table, memo)
            if sub:
                if height & 1:
                    total -= factor * sub
                else:
                    total += factor * sub
    memo[key] = total
    return total


# Sampled censuses ask for the same cell many times (criterion 6 draws a
# million cells from 34,225, and asks at canonical labels only); the bound
# keeps long-lived processes small.
@lru_cache(maxsize=1 << 16)
def _mn_value(table, lam, mu) -> int:
    return _mn_beads(tuple(map(_beta_mask, lam)), 0, flatten_class(mu), table, {})


def mn_character(group: GroupData, lam: MultiPartition, mu: MultiPartition) -> int:
    """Exact irreducible character value chi^lambda_mu via rimhook peeling.

    Values are memoized per (group table, lambda, mu) in a bounded LRU memo.
    """
    lam, mu = _check_query(group, lam, mu)
    return _mn_value(group.table, lam, mu)


# The column kernel's state for the latest (n, table): one _Level per level
# m, built on first use.  A peel step depends on its level and length, never
# on the column, so a full table builds each step once and every column
# reuses it.  Only the latest key is kept, and _columns drops it once its
# columns are in or one of them fails.
@lru_cache(maxsize=1)
def _step_tables(n: int, table: tuple) -> dict:
    return {}


_FLIP = str.maketrans("01", "10")


def _conjugate_mask(mask: int) -> int:
    """The beta-set mask of the conjugate partition, with no zero part: the
    gaps below the top bead, reflected."""
    return int(f"{mask:b}"[::-1].translate(_FLIP), 2) if mask else 0


class _Level(NamedTuple):
    """The multipartitions of m under one table: their index, their orbits
    under the table's linear characters, and the peel steps built so far.

    A linear row theta of the table (+-1 on an integer table) and e in
    {0, 1} give Theta = (theta wr 1) sgn^e, and chi^lambda Theta =
    chi^lambda*, where lambda* moves component q to the row of
    theta table[q] and, when e = 1, conjugates every component.  These maps
    form a group of involutions.  A row's representative is the least row of
    its orbit, and chi^row = Theta_s chi^rep for the map s that takes the
    representative to the row.
    """

    m: int
    index: dict  # per row's component beta-set masks: its position, in canonical order
    symmetries: tuple  # per map s: (theta's values on the classes, e)
    reps: tuple  # the representative rows, ascending
    slot: tuple  # per row: the position of its representative in reps
    sym: tuple  # per row: the map s that takes its representative to it
    getters: dict  # the fill of each parity pattern
    steps: dict  # representative-only peel steps, per length

    def fill(self, rep_values: list, odd: tuple) -> list[int]:
        """The values on every row from those on the representatives, at a
        class nu with odd[j] = l(nu_j) mod 2: one gather over rep_values and
        their negations."""
        getter = self.getters.get(odd)
        if getter is None:
            # Theta_s(nu) = prod_j theta(c_j)^l(nu_j) * (-1)^(e (m - l(nu)))
            negated = [
                (sum(o for o, t in zip(odd, theta) if t < 0) + e * (self.m - sum(odd))) & 1
                for theta, e in self.symmetries
            ]
            width = len(self.reps)
            at = [slot + width * negated[s] for slot, s in zip(self.slot, self.sym)]
            # itemgetter of one index returns the item itself, not a 1-tuple
            getter = self.getters[odd] = itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1))
        return list(getter(rep_values + [-v for v in rep_values]))


def _level(levels: dict, m: int, group: GroupData) -> _Level:
    """The _Level of m under group's table, built into levels on first use;
    no component mask has a zero part."""
    level = levels.get(m)
    if level is not None:
        return level
    table, k = group.table, group.k
    rows = [tuple(map(_beta_mask, mp)) for mp in _multipartition_tuples(m, k)]
    index = {masks: i for i, masks in enumerate(rows)}
    conjugate = {mask: _conjugate_mask(mask) for mask in set().union(*rows)}
    row_of = {row: q for q, row in enumerate(table)}
    symmetries = []
    images = []
    for theta in table:
        if theta[group.identity_class] != 1:
            continue
        # a validated table holds theta * table[q] for every linear theta
        to = [row_of[tuple(map(mul, theta, row))] for row in table]
        for e in (0, 1):
            symmetries.append((theta, e))
            image = []
            for masks in rows:
                moved = [0] * k
                for q, mask in enumerate(masks):
                    moved[to[q]] = conjugate[mask] if e else mask
                image.append(index[tuple(moved)])
            images.append(image)
    # per row: the least row of its orbit and the map that takes the row there
    least = [min(zip(orbit, range(len(images)))) for orbit in zip(*images)]
    reps = sorted({rep for rep, _ in least})
    position = {rep: i for i, rep in enumerate(reps)}
    level = levels[m] = _Level(
        m=m,
        index=index,
        symmetries=tuple(symmetries),
        reps=tuple(reps),
        slot=tuple(position[rep] for rep, _ in least),
        sym=tuple(s for _, s in least),
        getters={},
        steps={},
    )
    return level


def _peel_step(levels: dict, remaining: int, length: int, group: GroupData) -> tuple:
    """One entry per representative of level ``remaining``, in the order of
    its ``reps``: the moves (q, index of the remainder among the
    multipartitions of remaining - length, (-1)^height), one per border strip
    of ``length`` that ``_strips`` finds on the mask of component q.  Kept in
    the level's ``steps``."""
    level = _level(levels, remaining, group)
    step = level.steps.get(length)
    if step is None:
        index = _level(levels, remaining - length, group).index
        rows = list(level.index)
        # entries that make the same move share one tuple: the 48 steps of
        # Z2 n=12 hold 1.1 MiB (tracemalloc) instead of 1.8
        shared: dict = {}
        # one component mask recurs in many multipartitions; peel it once.
        # A strip may empty rows: their beads are the trailing one bits, and
        # shifting them out gives the remainder the index's form.
        peeled: dict = {}
        entries = []
        for masks in map(rows.__getitem__, level.reps):
            entry = []
            for q, mask in enumerate(masks):
                strips = peeled.get(mask)
                if strips is None:
                    strips = peeled[mask] = [
                        (moved >> ((moved ^ (moved + 1)).bit_length() - 1), -1 if height & 1 else 1)
                        for moved, height in _strips(mask, length)
                    ]
                for moved, sign in strips:
                    move = (q, index[masks[:q] + (moved,) + masks[q + 1 :]], sign)
                    entry.append(shared.setdefault(move, move))
            entries.append(tuple(entry))
        step = level.steps[length] = tuple(entries)
    return step


def character_column(group: GroupData, n: int, mu: MultiPartition) -> list[int]:
    """chi^lambda_mu for every lambda of n at once (same recurrence, run
    bottom-up over the flattened sequence), as a list aligned with
    ``multipartitions_of(n, group.k)``.

    Each step is pulled only on one representative row per orbit of the
    linear characters (``_Level``) and filled in on the other rows by sign:
    at the partial class nu peeled so far, each row's value is its
    representative's times Theta(nu) = +-1.

    Raises ValueError unless n is an integer >= 0 and mu is a label (or its
    part tuples) of the table: group.k components that sum to n.
    """
    k = group.k
    _check_int("n", n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    mu = _label(MultiPartition, mu)
    if mu.k != k:
        raise ValueError(f"class label needs k={k} components, got {mu.k}")
    if mu.total != n:
        raise ValueError(f"class label {mu} does not have total {n}")
    table = group.table
    levels = _step_tables(n, table)
    values = [1]  # the one multipartition of 0
    remaining = 0
    odd = [0] * k  # the parity of each component's length in nu
    for length, j in reversed(flatten_class(mu)):
        remaining += length
        odd[j] ^= 1
        factors = [table[q][j] for q in range(k)]
        reps = []
        for moves in _peel_step(levels, remaining, length, group):
            acc = 0
            for q, target, sign in moves:
                sub = values[target]
                if sub:
                    acc += sign * factors[q] * sub
            reps.append(acc)
        values = levels[remaining].fill(reps, tuple(odd))
    return values


def _pool_map(fn, items, workers: int):
    """fn over items, yielded in input order: serially, or through a process
    pool that hands out contiguous chunks (fn and items must pickle).  The
    pool starts all its processes at once, so it gets no more than there are
    items or CPUs."""
    procs = min(workers, len(items), os.cpu_count() or 1)
    if procs < 2:
        yield from map(fn, items)
        return
    # imported here, so that a serial run never loads the pool machinery
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=procs) as pool:
        yield from pool.map(fn, items, chunksize=max(1, len(items) // (4 * procs)))


def _columns(group: GroupData, n: int, labels, workers: int = 1):
    """character_column(group, n, mu) for each mu of labels, in order; the
    peel-step tables are dropped once the columns are in or one fails."""
    try:
        yield from _pool_map(partial(character_column, group, n), labels, workers)
    finally:
        _step_tables.cache_clear()


# ---------------------------------------------------------------------------
# permutation-module values


def perm_character(group: GroupData, lam: MultiPartition, mu: MultiPartition) -> int:
    """Exact permutation-module character M^lambda_mu.

    Counts functions from rows of mu to rows of lambda filling every
    lambda-row exactly (rows of equal length stay distinguishable, hence the
    binomial choices); a mu_j part landing in component q contributes
    table[q][j].  Rows are processed in decreasing length to prune early.
    """
    lam, mu = _check_query(group, lam, mu)
    table = group.table
    rows = sorted(
        ((q, length) for q, comp in enumerate(lam) for length in comp),
        key=lambda r: -r[1],
    )
    keys = sorted(Counter((j, length) for j, comp in enumerate(mu) for length in comp).items())
    kinds = [jl for jl, _ in keys]
    start = tuple(c for _, c in keys)
    memo: dict = {}

    def fill(ri: int, counts: tuple[int, ...]) -> int:
        if ri == len(rows):
            return 1  # sizes match, so no parts can remain here
        key = (ri, counts)
        cached = memo.get(key)
        if cached is not None:
            return cached
        q, length = rows[ri]
        out = 0
        work = list(counts)

        def choose(ki: int, left: int, factor: int):
            nonlocal out
            if left == 0:
                out += factor * fill(ri + 1, tuple(work))
                return
            if ki == len(kinds):
                return
            j, part = kinds[ki]
            avail = work[ki]
            top = min(avail, left // part)
            choose(ki + 1, left, factor)
            value = table[q][j]
            if value and top:
                f = factor
                for c in range(1, top + 1):
                    f = f * value * (avail - c + 1) // c  # running comb(avail, c) * value^c
                    work[ki] = avail - c
                    choose(ki + 1, left - c * part, f)
                work[ki] = avail
        choose(0, length, 1)
        memo[key] = out
        return out

    return fill(0, start)


# ---------------------------------------------------------------------------
# Kostka numbers and the basis change


def _kostka_rec(shape: tuple[int, ...], content: tuple[int, ...], memo: dict) -> int:
    if not content:
        return 1 if not shape else 0
    key = (shape, len(content))
    cached = memo.get(key)
    if cached is not None:
        return cached
    want = content[-1]
    rest = content[:-1]
    total = 0

    def strips(i: int, todo: int, acc: list[int]):
        nonlocal total
        if i == len(shape):
            if todo == 0:
                total += _kostka_rec(tuple(x for x in acc if x), rest, memo)
            return
        lo = shape[i + 1] if i + 1 < len(shape) else 0
        # row i of the smaller shape lies in [max(lo, shape[i]-todo), shape[i]]
        for keep in range(max(lo, shape[i] - todo), shape[i] + 1):
            acc.append(keep)
            strips(i + 1, todo - (shape[i] - keep), acc)
            acc.pop()

    strips(0, want, [])
    memo[key] = total
    return total


def kostka(beta: Partition, gamma: Partition) -> int:
    """K^{beta,gamma} = multiplicity of V^gamma in M^beta, i.e. the number of
    semistandard tableaux of shape gamma and content beta (exact DP; the
    memo lives for this one call, where every content is a prefix of beta).

    Nonzero exactly when gamma dominates beta; K^{beta,beta} = 1.
    """
    beta, gamma = _label(Partition, beta), _label(Partition, gamma)
    if beta.size != gamma.size:
        raise ValueError(f"sizes differ: {beta.size} vs {gamma.size}")
    return _kostka_rec(gamma, beta, {})


def perm_multiplicity(lam: MultiPartition, eta: MultiPartition) -> int:
    """c(lambda,eta) = prod_i K^{lambda_i,eta_i}; zero when component sizes differ."""
    lam, eta = _label(MultiPartition, lam), _label(MultiPartition, eta)
    if lam.k != eta.k:
        raise ValueError(f"component counts differ: {lam.k} vs {eta.k}")
    out = 1
    for lp, ep in zip(lam, eta):
        if lp.size != ep.size:
            return 0
        out *= kostka(lp, ep)
        if not out:
            return 0
    return out


# ---------------------------------------------------------------------------
# dimensions and the full table


def dimension(group: GroupData, lam: MultiPartition) -> int:
    """dim V^lambda = n!/(a_1! ... a_k!) * prod f^{lambda_i} * prod deg_i^{a_i}."""
    lam = _label(MultiPartition, lam)
    if lam.k != group.k:
        raise ValueError(f"label needs k={group.k} components")
    degrees = group.degrees()
    out = factorial(lam.total)
    for i, comp in enumerate(lam):
        out //= factorial(comp.size)
        out *= syt_count(comp)
        out *= degrees[i] ** comp.size
    return out


class CharTable(NamedTuple):
    """Full character table of G wr S_n with canonical row/column labelling."""

    group: GroupData
    n: int
    row_labels: tuple[MultiPartition, ...]
    col_labels: tuple[MultiPartition, ...]
    values: tuple[tuple[int, ...], ...]  # values[row][col]
    class_sizes: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.name,
            "n": self.n,
            "row_labels": [list(map(list, lab)) for lab in self.row_labels],
            "col_labels": [list(map(list, lab)) for lab in self.col_labels],
            "class_sizes": [str(s) for s in self.class_sizes],
            "values": [[str(v) for v in row] for row in self.values],
        }

    def write_csv(self, fh):
        """Write the table to the text stream ``fh`` as CSV.

        The header ``row_label,col_label,value`` comes first, then one line
        per cell, row by row, every line ended by ``\\n``.  A label is its
        compact JSON list of part lists, double-quoted exactly when it holds
        a comma: ``[[3]]`` is written bare and ``"[[6,1],[4,1,1,1]]"``
        quoted.  A label holds only digits, brackets and commas, so this is
        ``csv.QUOTE_MINIMAL``.  Each row of the table is one ``fh.write``.
        """
        cols = [_csv_label(mu) + "," for mu in self.col_labels]
        fh.write("row_label,col_label,value\n")
        for lab, row in zip(self.row_labels, self.values):
            pre = _csv_label(lab) + ","
            fh.write("".join([f"{pre}{col}{v}\n" for col, v in zip(cols, row)]))


def _csv_label(lab: MultiPartition) -> str:
    text = json.dumps(lab, separators=(",", ":"))
    return f'"{text}"' if "," in text else text


def character_table(
    group: GroupData,
    n: int,
    cell_budget: int = DEFAULT_CELL_BUDGET,
    workers: int = 1,
) -> CharTable:
    """All p_k(n)^2 entries, columns computed independently (order-deterministic
    regardless of worker schedule); refuses when the cell count exceeds budget."""
    _check_int("n", n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_workers(workers)
    # p_k(n) >= p(n) >= n, the n hooks being distinct partitions, so a table
    # with n^2 cells over the budget is refused before anything is counted
    if n * n > cell_budget:
        raise CellBudgetExceeded(f"table needs at least {n}^2 = {n * n} cells, budget is {cell_budget}")
    size = count_multipartitions(n, group.k)
    if size * size > cell_budget:
        raise CellBudgetExceeded(
            f"table needs {size}^2 = {size * size} cells, budget is {cell_budget}"
        )
    labels = multipartitions_of(n, group.k)
    # the rows are assembled only after the step tables are gone, so the
    # peak memory holds one or the other
    columns = list(_columns(group, n, labels, workers))
    values = tuple(zip(*columns))
    sizes = tuple(class_size(group, mu) for mu in labels)
    return CharTable(
        group=group,
        n=n,
        row_labels=labels,
        col_labels=labels,
        values=values,
        class_sizes=sizes,
    )
