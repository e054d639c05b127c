"""The mod-p equivalence on class labels ("mashing") and the t-core zero
certificate it powers.

Two class labels related by trading one part mp for p parts m have congruent
character-table columns mod p.  Canonical forms merge maximally: within each
component, p equal parts of size m become one part of size mp until no part
repeats p or more times.  Merging keeps, for each p-free b, the total size of
the parts b, bp, bp^2, ... (its p-free mass), so the canonical multiplicity
of b p^e is the e-th base-p digit of that mass divided by b.  If every
component of lambda is a t-core for t the largest part of the canonical form,
the rimhook sum for the canonical column is empty, so the exact value there
is zero and the original entry is divisible by p.  The certificate is sound
but deliberately not complete.
"""

from __future__ import annotations

from typing import NamedTuple

from .partitions import MultiPartition, _check_int, _check_pair, _is_int, _label, is_t_core
from .wreath_chars import _check_query


def is_prime(p: int) -> bool:
    """True iff p is an int (not a bool) and a prime."""
    if not _is_int(p) or p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def require_prime(p: int):
    _check_int("p", p)
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


class MashedClass(NamedTuple):
    """A class label together with its merge-maximal mod-p canonical form."""

    original: MultiPartition
    prime: int
    canonical: MultiPartition
    largest_part: int


def _mash_component(parts: tuple[int, ...], p: int) -> tuple[int, ...]:
    # the parts b p^e of one p-free b merge only with each other, keeping
    # their mass; the base-p digits of mass / b are the canonical counts
    mass: dict = {}
    for part in parts:
        b = part
        while not b % p:
            b //= p
        mass[b] = mass.get(b, 0) + part
    out = []
    for b, total in mass.items():
        digits = total // b
        while digits:
            digits, count = divmod(digits, p)
            out += [b] * count
            b *= p
    out.sort(reverse=True)
    return tuple(out)


def _canonical(mu: MultiPartition, p: int) -> MultiPartition:
    """The merge-maximal label of mu mod p, for a prime p already checked."""
    return MultiPartition._from_valid([_mash_component(parts, p) for parts in mu])


def mash_canonical(mu: MultiPartition, p: int) -> MashedClass:
    """Merge-maximal representative of mu's equivalence class mod p; mu is
    validated as ``MultiPartition(mu)`` unless it is a label already."""
    require_prime(p)
    mu = _label(MultiPartition, mu)
    canonical = _canonical(mu, p)
    largest = max((comp[0] for comp in canonical if comp), default=0)
    return MashedClass(original=mu, prime=p, canonical=canonical, largest_part=largest)


def sim_p_equivalent(mu: MultiPartition, nu: MultiPartition, p: int) -> bool:
    """True iff mu and nu share the canonical mashed form."""
    mu, nu = _check_pair(mu, nu)
    return mash_canonical(mu, p).canonical == mash_canonical(nu, p).canonical


def zero_certificate(lam: MultiPartition, mashed: MashedClass) -> bool:
    """True iff the largest mashed part t >= 1 and every component of lambda
    is a t-core, in which case chi^lambda vanishes on the canonical class
    (no rimhook of length t fits anywhere, and the value is order-free)."""
    lam, _ = _check_pair(lam, mashed.canonical)
    t = mashed.largest_part
    if t < 1:
        return False
    return all(is_t_core(comp, t) for comp in lam)


def predicted_divisible(group, lam: MultiPartition, mu: MultiPartition, p: int) -> bool:
    """Sound one-sided test: True implies p divides chi^lambda_mu."""
    lam, mu = _check_query(group, lam, mu)
    return zero_certificate(lam, mash_canonical(mu, p))
