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
far.  Its state is one ``_Level`` per level m for the latest table, shared
by columns of every total: the index of the multipartitions of m, their
orbits and the peel steps built on the representatives.  ``_columns`` is the
one column loop: it maps ``character_column`` over a process pool
(``_pool_map``, also the sampled censuses' pool), each label at its own
total, and owns those levels, which it drops when its columns are done or
one fails.  ``_pool_map`` imports ``concurrent.futures`` only when it starts
two or more processes, so a serial run never loads the pool machinery.
``character_table`` uses two more symmetries.  A central z of G makes the
diagonal (z, ..., z) central, and it multiplies column mu by +-1 on every
row and takes it to column z mu, so only the least label of each orbit of
the centre is computed, and only on the representatives of level n.  The
last peel step of a column is the same for every column whose longest part
has the same length L and class j, so the table computes each column's
sub-column at n - L once per distinct sub-class, and pulls the step at n
once per (L, j) for all the columns that share it (``_top_steps``).
Reading the table's rows builds each in ``_rows``: its representative's
values times Theta_s and the centre sign omega_rep(z).
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
from itertools import compress, islice, repeat
from operator import add, itemgetter, mod, mul, neg, not_, sub
from typing import Iterable, NamedTuple

from .base_group import GroupData
from .partitions import (
    MultiPartition,
    Partition,
    _beta_mask,
    _check_int,
    _check_pair,
    _label,
    _label_k,
    _multipartition_tuples,
    _strips,
    count_multipartitions,
    multipartitions_of,
    syt_count,
)

DEFAULT_CELL_BUDGET = 50_000_000


class CellBudgetExceeded(RuntimeError):
    """Raised when a full-table request would exceed the configured cell budget."""


def _check_query(group: GroupData, lam: MultiPartition, mu: MultiPartition):
    """lam and mu as labels, checked as a cell of group's table."""
    return _check_pair(_label_k(lam, group.k, "lambda"), mu)


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
    mu = _label_k(mu, group.k, "class label")
    n = mu.total
    denom = 1
    for z, comp in zip(group.centralizer_orders, mu):
        # the r-th of a run of equal parts l contributes l * z * r: the run of
        # m gives (l z)^m m!
        r = 0
        for i, length in enumerate(comp):
            r = r + 1 if i and length == comp[i - 1] else 1
            denom *= length * z * r
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


# The column kernel's state for the latest table: one _Level per level m,
# built on first use.  A level never depends on the n of the column that
# asks for it, and a peel step depends on its level and length, never on the
# column, so a full table builds each step once and every column of every
# total reuses it.  Only the latest table is kept, and _columns drops it once
# its columns are in or one of them fails.
@lru_cache(maxsize=1)
def _step_tables(table: tuple) -> dict:
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
    orbits: tuple  # per representative: the rows of its orbit, ascending
    slot: tuple  # per row: the position of its representative in reps
    sym: tuple  # per row: the map s that takes its representative to it
    getters: dict  # the fill of each parity pattern
    steps: dict  # representative-only peel steps, per length

    def negated(self, odd: tuple) -> list[int]:
        """Per map s: 1 if Theta_s is -1 at a class nu of m with
        odd[j] = l(nu_j) mod 2, else 0."""
        # Theta_s(nu) = prod_j theta(c_j)^l(nu_j) * (-1)^(e (m - l(nu)))
        return [
            (sum(o for o, t in zip(odd, theta) if t < 0) + e * (self.m - sum(odd))) & 1
            for theta, e in self.symmetries
        ]

    def fill(self, rep_values: list, odd: tuple):
        """The values on every row from those on the representatives, at a
        class nu with odd[j] = l(nu_j) mod 2, as a sequence: one gather over
        rep_values and their negations."""
        getter = self.getters.get(odd)
        if getter is None:
            negated = self.negated(odd)
            width = len(self.reps)
            getter = self.getters[odd] = _gather([slot + width * negated[s] for slot, s in zip(self.slot, self.sym)])
        return getter([*rep_values, *map(neg, rep_values)])


def _gather(at: list):
    """itemgetter(*at), except that one index also gives a sequence."""
    # itemgetter of one index returns the item itself, not a 1-sequence
    return itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1))


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
    conjugated = [tuple(map(conjugate.__getitem__, masks)) for masks in rows]
    row_of = {row: q for q, row in enumerate(table)}
    symmetries = []
    images = []
    for theta in table:
        if theta[group.identity_class] != 1:
            continue
        # a validated table holds theta * table[q] for every linear theta;
        # theta^2 = 1, so component q's move to row to[q] is its own inverse
        pick = _gather([row_of[tuple(map(mul, theta, row))] for row in table])
        for e, source in enumerate((rows, conjugated)):
            symmetries.append((theta, e))
            images.append([index[pick(masks)] for masks in source])
    # per row: the least row of its orbit and the map that takes the row there
    least = [min(zip(orbit, range(len(images)))) for orbit in zip(*images)]
    reps = sorted({rep for rep, _ in least})
    position = {rep: i for i, rep in enumerate(reps)}
    orbits = [[] for _ in reps]
    for row, (rep, _) in enumerate(least):
        orbits[position[rep]].append(row)
    level = levels[m] = _Level(
        m=m,
        index=index,
        symmetries=tuple(symmetries),
        reps=tuple(reps),
        orbits=tuple(map(tuple, orbits)),
        slot=tuple(position[rep] for rep, _ in least),
        sym=tuple(s for _, s in least),
        getters={},
        steps={},
    )
    return level


def _peel_step(levels: dict, remaining: int, length: int, group: GroupData) -> tuple:
    """One entry per representative of level ``remaining``, in the order of
    its ``reps``: the moves (2 q + height mod 2, index of the remainder
    among the multipartitions of remaining - length), one per border strip of
    ``length`` that ``_strips`` finds on the mask of component q.  Kept in the
    level's ``steps``."""
    level = _level(levels, remaining, group)
    step = level.steps.get(length)
    if step is None:
        index = _level(levels, remaining - length, group).index
        rows = list(level.index)
        # entries that make the same move share one tuple: the 48 steps of
        # Z2 n=12 hold 0.33 MiB (tracemalloc) instead of 0.45
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
                        (moved >> ((moved ^ (moved + 1)).bit_length() - 1), height & 1)
                        for moved, height in _strips(mask, length)
                    ]
                for moved, odd in strips:
                    move = (2 * q + odd, index[masks[:q] + (moved,) + masks[q + 1 :]])
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
    _check_int("n", n, 0)
    mu = _label_k(mu, k, "class label")
    if mu.total != n:
        raise ValueError(f"class label {mu} does not have total {n}")
    table = group.table
    levels = _step_tables(table)
    values = [1]  # the one multipartition of 0
    remaining = 0
    odd = [0] * k  # the parity of each component's length in nu
    for length, j in reversed(flatten_class(mu)):
        remaining += length
        odd[j] ^= 1
        # per move (2 q + height mod 2): table[q][j] (-1)^height
        factors = [f for row in table for f in (row[j], -row[j])]
        reps = []
        for moves in _peel_step(levels, remaining, length, group):
            acc = 0
            for m, target in moves:
                sub = values[target]
                if sub:
                    acc += factors[m] * sub
            reps.append(acc)
        values = levels[remaining].fill(reps, tuple(odd))
    return list(values)


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


def _column(group: GroupData, mu: MultiPartition) -> list[int]:
    """character_column at mu's own total (a module function, so that the
    pool can pickle it)."""
    return character_column(group, mu.total, mu)


def _drop_step_tables(levels: dict) -> None:
    """Empty levels, the level state, and forget it, so that no reference
    left to the dict keeps the levels alive."""
    levels.clear()
    _step_tables.cache_clear()


def _columns(group: GroupData, labels, workers: int = 1):
    """character_column(group, mu.total, mu) for each label mu, in order; the
    level state is dropped once the columns are in or one fails."""
    try:
        yield from _pool_map(partial(_column, group), labels, workers)
    finally:
        _drop_step_tables(_step_tables(group.table))


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
    lam = _label_k(lam, group.k, "lambda")
    degrees = group.degrees()
    out = factorial(lam.total)
    for i, comp in enumerate(lam):
        out //= factorial(comp.size)
        out *= syt_count(comp)
        out *= degrees[i] ** comp.size
    return out


class CharTable:
    """Full character table of G wr S_n with canonical row/column labelling.

    ``character_table`` returns it as its quotient by the table's
    symmetries: the values of each representative row (``_Level``) on the
    least column of each orbit of the centre.  ``values`` and
    ``class_sizes`` are built on first read and kept; building ``values``
    frees that block, so the first read of ``values`` must not race another
    thread's.  The fields cannot be reassigned.
    """

    __slots__ = (
        "group", "n", "row_labels", "col_labels",
        "_level", "_centre", "_twins", "_by_rep", "_values", "_class_sizes",
    )

    def __init__(
        self, group: GroupData, n: int, labels: tuple, level: _Level, centre: list, twins: list, by_rep: list
    ):
        self._set(
            group=group, n=n, row_labels=labels, col_labels=labels,
            _level=level, _centre=centre, _twins=twins, _by_rep=by_rep,
            _values=None, _class_sizes=None,
        )

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a CharTable's fields are read-only")

    @property
    def values(self) -> tuple[tuple[int, ...], ...]:
        """values[row][col], the cell of row_labels[row] and col_labels[col]."""
        if self._values is None:
            values = _rows(self._level, self.col_labels, self._centre, self._twins, self._by_rep)
            self._set(_values=values, _level=None, _centre=None, _twins=None, _by_rep=None)
        return self._values

    @property
    def class_sizes(self) -> tuple[int, ...]:
        """class_sizes[col], the size of the class col_labels[col]."""
        if self._class_sizes is None:
            self._set(_class_sizes=tuple(class_size(self.group, mu) for mu in self.col_labels))
        return self._class_sizes

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


def _csv_text(value) -> str:
    """The one CSV cell rule: a string as it is, None blank, anything else
    its compact JSON (``3``, ``0.5``, ``true``, ``[[6,1],[4,3]]``)."""
    if isinstance(value, str):
        return value
    return "" if value is None else json.dumps(value, separators=(",", ":"))


def _csv_label(lab: MultiPartition) -> str:
    text = _csv_text(lab)
    return f'"{text}"' if "," in text else text


def _centre(group: GroupData) -> list[tuple[tuple, tuple]]:
    """Per central class z of G, the identity first: the class of z x for x
    in each class j, and the rows q with psi_q(z) = -deg_q.

    z is central when its centralizer is all of G.  psi_q(z) is then
    omega_q deg_q with omega_q a root of unity, so +-1 on an integer table:
    z^2 = 1, and z x lies in the class whose column is omega times column j.
    """
    columns = list(zip(*group.table))
    column_of = {col: j for j, col in enumerate(columns)}
    degrees = columns[group.identity_class]
    central = [z for z, c in enumerate(group.centralizer_orders) if c == group.order]
    central.sort(key=lambda z: z != group.identity_class)
    out = []
    for z in central:
        omega = [v // d for v, d in zip(columns[z], degrees)]
        moves = tuple(column_of[tuple(map(mul, omega, col))] for col in columns)
        out.append((moves, tuple(q for q, w in enumerate(omega) if w < 0)))
    return out


def _central_image(mu: MultiPartition, moves: tuple) -> tuple:
    """The class of (z, ..., z) g for g in the class mu: a cycle of length l
    multiplies its cycle product by z^l, so the odd parts of component j move
    to component moves[j] and the even parts stay."""
    comps = [[part for part in comp if not part & 1] for comp in mu]
    for j, comp in enumerate(mu):
        comps[moves[j]] += [part for part in comp if part & 1]
    return tuple(tuple(sorted(comp, reverse=True)) for comp in comps)


def _twins(centre: list, labels: tuple) -> list[tuple[int, int]]:
    """Per label: (the position of the least label of its orbit under the
    centre, the position in centre of the z that takes that label to it)."""
    position = {mu: c for c, mu in enumerate(labels)}
    return [
        min([(c, 0)] + [(position[_central_image(mu, moves)], z) for z, (moves, _) in enumerate(centre[1:], 1)])
        for c, mu in enumerate(labels)
    ]


def _rows(level: _Level, labels: tuple, centre: list, twins: list, by_rep: list) -> tuple:
    """The table's rows from by_rep, the values of each representative row on
    the computed columns (the least of each centre orbit), freed as each
    orbit's rows are built.

    chi^row(mu) = Theta_s(mu) omega_rep(z) chi^rep(source), where s takes
    the representative to the row and z the source column to mu, and
    omega_rep(z) = prod_q omega_q(z)^|rep_q|.  Each (s, omega_rep) pair is
    one gather over the representative's values and their negations.
    """
    size = len(labels)
    where = {source: i for i, source in enumerate(sorted({source for source, _ in twins}))}
    width = len(where)
    odd = [tuple(map((1).__and__, map(len, mu))) for mu in labels]
    negated = {o: level.negated(o) for o in set(odd)}
    columns = [(where[source], negated[o], z) for (source, z), o in zip(twins, odd)]
    plans: dict = {}  # per (s, omega's signs): the gather, or None for the identity, and whether it negates

    def plan(s, flips):
        got = plans.get((s, flips))
        if got is None:
            at = [i + width * (signs[s] ^ flips[z]) for i, signs, z in columns]
            identity = width == size and max(at) < width
            got = plans[s, flips] = (None if identity else _gather(at), max(at) >= width)
        return got

    rows = [None] * size
    # one source list for every orbit: a new 2 * width tuple per orbit left
    # the heap too fragmented to reuse, +0.2 MiB peak RSS on table --group S3
    # --n 7 --format csv
    source = [0] * (2 * width)
    for slot, (rep, orbit) in enumerate(zip(level.reps, level.orbits)):
        # per z of the centre: 1 if omega_rep(z) = -1
        flips = tuple(sum(labels[rep][q].size for q in negs) & 1 for _, negs in centre)
        gathers = [plan(level.sym[row], flips) for row in orbit]
        values = by_rep[slot]
        by_rep[slot] = None
        source[:width] = values
        if any(negates for _, negates in gathers):
            source[width:] = map(neg, values)
        for row, (gather, _) in zip(orbit, gathers):
            rows[row] = values if gather is None else gather(source)
    return tuple(rows)


def _divisible_cells(outer, inner: list, vectors, p: int) -> int:
    """sum_i outer[i] * sum_j inner[j] [p | vectors[i][j]]: the cells p
    divides of a block whose cell (i, j) stands for outer[i] * inner[j]
    cells with its residue mod p."""
    return sum(
        weight * sum(compress(inner, map(not_, map(mod, values, repeat(p)))))
        for weight, values in zip(outer, vectors)
    )


def _weighted_block(table: CharTable) -> tuple:
    """The block of table, before its rows are built, with its weights for
    ``_divisible_cells``: the size of each row orbit (each row +-1 times its
    representative), the size of each centre orbit (each column +-1 times the
    least), and the values of each representative row on the computed columns.
    """
    # per computed column, in the block's order: the size of its centre orbit
    weights = [size for _, size in sorted(Counter(source for source, _ in table._twins).items())]
    return map(len, table._level.orbits), weights, table._by_rep


def _orbit_columns(group: GroupData, n: int, labels: list, rows) -> tuple:
    """How many of rows (labels of n) each orbit of level n holds, and an
    iterator over character_column(group, n, mu) for each mu of labels, read
    on level n's representatives.  Level n is built into the shared level
    state first, for the columns to reuse; ``_columns`` drops the state once
    they are in or one fails, and this does if the level or counts fail."""
    levels = _step_tables(group.table)
    try:
        level = _level(levels, n, group)
        kept = set(rows)
        names = multipartitions_of(n, group.k)
        counts = [sum(names[row] in kept for row in orbit) for orbit in level.orbits]
        return counts, map(_gather(level.reps), _columns(group, labels))
    except BaseException:
        _drop_step_tables(levels)
        raise


def character_table(
    group: GroupData,
    n: int,
    cell_budget: int = DEFAULT_CELL_BUDGET,
    workers: int = 1,
) -> CharTable:
    """All p_k(n)^2 entries (order-deterministic regardless of worker
    schedule); refuses when the cell count exceeds budget.

    Two symmetries of the table cut the work.  A central z of G gives the
    central (z, ..., z), and chi^lambda(z mu) = omega_lambda(z) chi^lambda(mu)
    with omega_lambda(z) = +-1, so only the least label of each orbit of the
    centre is computed, and the other columns are sign copies.  Only the
    values on the row representatives (``_Level``) are computed, by the
    batched top steps of ``_top_steps``, and the table is returned as that
    block: reading ``values`` builds each row in ``_rows``, its
    representative's values times Theta_s and the centre sign omega_rep(z),
    and reading ``class_sizes`` computes the class sizes.
    """
    _check_int("n", n, 0)
    _check_int("workers", workers, 1)
    _check_int("cell_budget", cell_budget)
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
    # the serial sub-columns build their levels into the same state
    levels = _step_tables(group.table)
    try:
        centre = _centre(group)
        twins = _twins(centre, labels)
        computed = [labels[c] for c, (source, _) in enumerate(twins) if source == c]
        level = _level(levels, n, group)
        by_rep = _top_steps(group, levels, computed, workers) if n else [(1,)]
    finally:
        _drop_step_tables(levels)
    # the rows are built once the peel steps and fill getters are gone, level
    # n's too, so the peak memory holds one or the other
    level.steps.clear()
    level.getters.clear()
    return CharTable(group, n, labels, level, centre, twins, by_rep)


def _top_steps(group: GroupData, levels: dict, computed: list, workers: int) -> list[tuple]:
    """The values of each representative row of level n on the columns
    computed (labels of n >= 1), by their last peel step, batched.

    With (L, j) = flatten_class(mu)[0], column mu on the representatives is
    character_column(group, n - L, mu less that part) pulled through
    _peel_step(levels, n, L) with the factors table[q][j] (-1)^height.  Each
    distinct sub-class goes to _columns once, in order of L, and each (L, j)
    pulls its step once over lanes: per row of level n - L, the tuple of its
    values on the sub-columns of that (L, j).  A batch's sub-columns are
    dropped before the next L.
    """
    table = group.table
    n = computed[0].total
    batches: dict = {}  # per L: (its distinct sub-classes, per j: (block position, sub-class position))
    for pos, mu in enumerate(computed):
        length, j = max((comp[0], j) for j, comp in enumerate(mu) if comp)
        rest = MultiPartition._from_valid(mu[:j] + (mu[j][1:],) + mu[j + 1 :])
        subs, uses = batches.setdefault(length, ({}, {}))
        uses.setdefault(j, []).append((pos, subs.setdefault(rest, len(subs))))
    order = sorted(batches)
    rows: list[list] = [[] for _ in _level(levels, n, group).reps]
    placed = []  # the block position of each value of a row, in the order pulled
    columns = _columns(group, [rest for length in order for rest in batches[length][0]], workers)
    try:
        for length in order:
            subs, uses = batches[length]
            sub_columns = list(islice(columns, len(subs)))
            step = _peel_step(levels, n, length, group)
            for j, used in uses.items():
                placed += [pos for pos, _ in used]
                lanes = list(zip(*[sub_columns[i] for _, i in used]))
                # per move (2 q + height mod 2): table[q][j] (-1)^height
                factors = [f for row in table for f in (row[j], -row[j])]
                # lanes share each move across the columns of one (L, j); the
                # scalar pull of character_column skips zero sources.  Either
                # loop in the other's place is slower: exact_census(Z2, 12, 2)
                # 0.073 s -> 0.098 s (lanes there), 0.090 s (scalar pulls here)
                for row, moves in zip(rows, step):
                    acc = repeat(0, len(used))
                    for m, target in moves:
                        factor = factors[m]
                        if factor == 1:
                            acc = map(add, acc, lanes[target])
                        elif factor == -1:
                            acc = map(sub, acc, lanes[target])
                        elif factor:
                            acc = map(add, acc, map(mul, lanes[target], repeat(factor)))
                    row += acc
    finally:
        columns.close()
    # back to the order of computed, one row at a time
    back = _gather(sorted(range(len(placed)), key=placed.__getitem__))
    for i, row in enumerate(rows):
        rows[i] = tuple(back(row))
    return rows
