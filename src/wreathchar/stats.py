"""Divisibility censuses (exact / sampled / certificate-only), exact uniform
sampling of multipartitions, and finite-N checks of the counting asymptotics.

Randomness: a single 64-bit seed feeds a counter-based SHA-256 stream; the
stream for sample i is keyed by (seed, i), so results are independent of
worker count and evaluation order.  Sampled and certificate censuses draw
identical (lambda, mu) streams for equal (n, seed), which makes seed-paired
soundness comparisons exact.

The exact census counts on the table as ``character_table`` returns it, its
quotient by the table's symmetries: the representative row of each orbit of
the linear characters (``wreath_chars._Level``) on the least column of each
orbit of the centre.  Every row of an orbit is +-1 times its representative
and every column of a centre orbit +-1 times its least column, so each cell
of that block is weighted by the sizes of its two orbits, and no row of the
table is built.

Every sampled census, type D included, is one call to ``_sampled_census``,
which checks its inputs, counts its hits and builds its report.

A sampled cell (lambda, mu) is decided at mash_canonical(mu, p) rather than
at the drawn mu: trading p equal parts m for one part pm leaves every
character value unchanged mod p (G has an integer table), so both labels
give the same verdict and the canonical one has the fewest parts to peel.
"""

from __future__ import annotations

import hashlib
import math
import operator
from fractions import Fraction
from functools import partial
from itertools import repeat
from numbers import Real
from statistics import NormalDist
from typing import NamedTuple, Optional

from .base_group import GroupData
from .congruence import _canonical, mash_canonical, require_prime, zero_certificate
from .partitions import (
    MultiPartition,
    _check_int,
    _completion_tables,
    _count_array,
    _is_int,
    count_multipartitions,
    unrank_multipartition,
)
from .wreath_chars import DEFAULT_CELL_BUDGET, character_table, mn_character
from .wreath_chars import _csv_text, _divisible_cells, _pool_map

HR_COEFF = 2.0 * math.pi / math.sqrt(6.0)
DEFAULT_CONFIDENCE = 0.99

_MASK64 = (1 << 64) - 1
_DOMAIN = b"wreathchar.v1"


def _check_key(name: str, value: int) -> None:
    # the stream keys on 8 bytes each of seed and index; a value outside them
    # would draw the samples of another key while reporting its own
    if not _is_int(value) or not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")


class CounterStream:
    """Deterministic byte stream: block c is SHA-256(domain, seed, index, c)."""

    def __init__(self, seed: int, index: int):
        _check_key("seed", seed)
        _check_key("index", index)
        self._prefix = _DOMAIN + seed.to_bytes(8, "big") + index.to_bytes(8, "big")
        self._counter = 0
        self._buf = b""

    def take(self, nbytes: int) -> bytes:
        while len(self._buf) < nbytes:
            block = hashlib.sha256(self._prefix + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
            self._buf += block
        out, self._buf = self._buf[:nbytes], self._buf[nbytes:]
        return out

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by masked rejection; exact for any size."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        bits = (bound - 1).bit_length()
        nbytes = (bits + 7) // 8
        mask = (1 << bits) - 1
        while True:
            r = int.from_bytes(self.take(nbytes), "big") & mask
            if r < bound:
                return r


def random_multipartition(n: int, k: int, stream: CounterStream) -> MultiPartition:
    """Exactly uniform k-multipartition of n: a uniform rank, unranked."""
    return unrank_multipartition(n, k, stream.below(count_multipartitions(n, k)))


def wilson_interval(hits: int, trials: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = hits / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = phat + z2 / (2.0 * trials)
    spread = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return max(0.0, (center - spread) / denom), min(1.0, (center + spread) / denom)


def ln_big(x: int) -> float:
    """Natural log of a positive big integer: top 128 bits plus a power of 2.

    Relative error is a few ulps, far inside the 10-significant-digit
    requirement for the asymptotic ratios.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    shift = max(0, x.bit_length() - 128)
    return math.log(x >> shift) + shift * math.log(2.0)


# ---------------------------------------------------------------------------
# reports

CSV_COLUMNS = (
    "mode",
    "group",
    "n",
    "p",
    "samples",
    "divisible",
    "evaluated",
    "proportion",
    "ci_low",
    "ci_high",
    "seed",
    "coverage",
)


class CensusReport(NamedTuple):
    mode: str
    group: str
    n: int
    p: int
    cells_evaluated: int
    divisible_count: int
    samples: Optional[int] = None
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    seed: Optional[int] = None
    coverage: Optional[Fraction] = None

    @property
    def proportion(self) -> Fraction:
        return Fraction(self.divisible_count, self.cells_evaluated)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "group": self.group,
            "n": self.n,
            "p": self.p,
            "samples": self.samples,
            "divisible": self.divisible_count,
            "evaluated": self.cells_evaluated,
            "proportion": f"{self.proportion.numerator}/{self.proportion.denominator}",
            "proportion_decimal": float(self.proportion),
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "seed": self.seed,
            "coverage": (
                None
                if self.coverage is None
                else f"{self.coverage.numerator}/{self.coverage.denominator}"
            ),
        }

    def csv_row(self) -> list[str]:
        """The ``CSV_COLUMNS`` cells of ``to_json_dict()``, with the
        proportion and the coverage as floats."""
        fields = self.to_json_dict()
        fields["proportion"] = float(self.proportion)
        fields["coverage"] = None if self.coverage is None else float(self.coverage)
        return [_csv_text(fields[name]) for name in CSV_COLUMNS]


# ---------------------------------------------------------------------------
# censuses


def exact_census(
    group: GroupData,
    n: int,
    p: int,
    cell_budget: int = DEFAULT_CELL_BUDGET,
    workers: int = 1,
) -> CensusReport:
    """Count the entries of the full table divisible by p (exact rational)
    on the table's quotient, one cell per row orbit and centre orbit.

    A row of an orbit under the linear characters is Theta chi^rep with
    Theta = +-1, and a column of a centre orbit is +-1 times its least
    column, so a cell of the block ``character_table`` computes has the
    residue of every cell it stands for: the count weights it by
    |row orbit| * |centre orbit| and builds no row and no class size.
    """
    require_prime(p)
    table = character_table(group, n, cell_budget=cell_budget, workers=workers)
    return CensusReport(
        mode="exact",
        group=group.name,
        n=n,
        p=p,
        cells_evaluated=len(table.row_labels) ** 2,
        divisible_count=_divisible_cells(table, p),
    )


def _zeros_mod(values, p: int) -> int:
    """How many of values p divides, counted in C."""
    return list(map(operator.mod, values, repeat(p))).count(0)


def _draw_pair(n: int, k: int, seed: int, index: int):
    stream = CounterStream(seed, index)
    return random_multipartition(n, k, stream), random_multipartition(n, k, stream)


def _divisible(group: GroupData, p: int, lam: MultiPartition, mu: MultiPartition) -> bool:
    # chi^lam is constant mod p on a mashing class, so the cell is decided at
    # the canonical label, the one with the fewest parts to peel
    return mn_character(group, lam, _canonical(mu, p)) % p == 0


def _certified(p: int, lam: MultiPartition, mu: MultiPartition) -> bool:
    return zero_certificate(lam, mash_canonical(mu, p))


def _hit(draw, test, index: int) -> bool:
    return test(*draw(index))


def _sampled_census(
    mode: str,
    group: str,
    group_k: int,
    n: int,
    p: int,
    draw,
    test,
    samples: int,
    seed: int,
    workers: int = 1,
    confidence: Optional[float] = None,
) -> CensusReport:
    """Checks the inputs, counts the indices i < samples with
    test(*draw(seed, i)) and reports them, with a Wilson interval when a
    confidence is given.  draw(seed, i) depends only on (seed, i), so the
    report is the same for any worker count; draw and test must pickle."""
    require_prime(p)
    _check_int("n", n, 0)
    _check_int("group_k", group_k, 1)
    _check_int("samples", samples, 1)
    _check_key("seed", seed)
    if confidence is not None and not (
        isinstance(confidence, Real) and not isinstance(confidence, bool) and 0.0 < confidence < 1.0
    ):
        raise ValueError(f"confidence must be a number in (0, 1), got {confidence!r}")
    _check_int("workers", workers, 1)
    _completion_tables(n, group_k)  # built before any fork, shared by workers
    hits = sum(_pool_map(partial(_hit, partial(draw, seed), test), range(samples), workers))
    low, high = (None, None) if confidence is None else wilson_interval(hits, samples, confidence)
    return CensusReport(
        mode=mode,
        group=group,
        n=n,
        p=p,
        cells_evaluated=samples,
        divisible_count=hits,
        samples=samples,
        ci_low=low,
        ci_high=high,
        seed=seed,
    )


def sampled_census(
    group: GroupData,
    n: int,
    p: int,
    samples: int,
    seed: int,
    workers: int = 1,
    confidence: float = DEFAULT_CONFIDENCE,
) -> CensusReport:
    """Uniform (lambda, mu) pairs, exact evaluation mod p, Wilson interval.

    Sample i is drawn from the stream keyed by (seed, i), so the report is
    fixed by the seed whatever the worker count.
    """
    return _sampled_census(
        "sampled", group.name, group.k, n, p,
        partial(_draw_pair, n, group.k), partial(_divisible, group, p),
        samples, seed, workers, confidence,
    )


def certificate_census(
    group_k: int,
    n: int,
    p: int,
    samples: int,
    seed: int,
    workers: int = 1,
) -> CensusReport:
    """Certificate-only census: evaluates predicted divisibility, never
    characters, so it scales to n in the thousands.  Coverage is a certified
    lower bound on the true divisible proportion."""
    report = _sampled_census(
        "certificate", f"k={group_k}", group_k, n, p,
        partial(_draw_pair, n, group_k), partial(_certified, p),
        samples, seed, workers,
    )
    return report._replace(coverage=report.proportion)


# ---------------------------------------------------------------------------
# asymptotics


def asymptotic_check(k: int, n: int) -> float:
    """ln p_k(n) / ((2 pi / sqrt 6) * sqrt(k n)); tends to 1 from below."""
    _check_int("k", k, 1)
    _check_int("n", n, 1)
    return ln_big(count_multipartitions(n, k)) / (HR_COEFF * math.sqrt(k * n))


def _as_fraction(delta) -> Fraction:
    # str() first so a literal like 0.3 means 3/10, not its binary neighbour;
    # a bool's str is a word, which no Fraction parses
    try:
        d = delta if isinstance(delta, Fraction) else Fraction(str(delta))
        if 0 < d < 1:
            return d
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"delta must be a number in (0, 1), got {delta!r}")


def concentration_check(k: int, n: int, delta) -> Fraction:
    """Exact fraction of k-multipartitions with every component size inside
    the open window (n/k (1-delta), n/k (1+delta)); no enumeration, just k
    convolutions of the window-masked partition counts, truncated at n."""
    d = _as_fraction(delta)
    _check_int("k", k, 1)
    _check_int("n", n, 0)
    lo = Fraction(n, k) * (1 - d)
    hi = Fraction(n, k) * (1 + d)
    window = [c if lo < a < hi else 0 for a, c in enumerate(_count_array(n, 1)[: n + 1])]
    ways = [1] + [0] * n  # size compositions of 0 components
    for _ in range(k):
        ways = [sum(map(operator.mul, window[: m + 1], ways[m::-1])) for m in range(n + 1)]
    return Fraction(ways[n], count_multipartitions(n, k))
