"""Input data for the base group G: class structure plus an integer-valued
character table, with exact validation, built-in groups, and JSON I/O.

Only class-level data is stored (no multiplication table): every downstream
formula consumes class labels, centralizer orders, and character values.
Integer-valuedness is a hard requirement; the mod-p machinery depends on it.
The group-theoretic rationality criterion (sigma conjugate to sigma^j for j
prime to its order) cannot be checked from class data alone and is not
attempted; validation covers integrality, orthogonality and engine symmetries.
"""

from __future__ import annotations

import json
from operator import mul
from typing import NamedTuple


class GroupValidationError(ValueError):
    """Raised by load() when a document is malformed or fails validation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class GroupData(NamedTuple):
    """Class data of a finite group G with integer character table.

    table[r][j] is the value of the r-th irreducible character on the j-th
    conjugacy class; centralizer_orders[j] = |G| / |class j|.
    """

    name: str
    class_labels: tuple[str, ...]
    centralizer_orders: tuple[int, ...]
    identity_class: int
    trivial_char: int
    table: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.class_labels)

    @property
    def order(self) -> int:
        return self.centralizer_orders[self.identity_class]

    def class_size(self, j: int) -> int:
        return self.order // self.centralizer_orders[j]

    def degrees(self) -> tuple[int, ...]:
        return tuple(row[self.identity_class] for row in self.table)


class ValidationReport:
    """The problems ``validate`` found, in the order it found them."""

    def __init__(self):
        self.problems: list[str] = []

    def __repr__(self):
        return f"ValidationReport(problems={self.problems!r})"

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, msg: str):
        self.problems.append(msg)


def validate(g: GroupData) -> ValidationReport:
    """Check every GroupData invariant exactly; failures are reported, not raised."""
    rep = ValidationReport()
    k = g.k
    if len(g.centralizer_orders) != k or len(g.table) != k or any(len(row) != k for row in g.table):
        rep.add(f"shape mismatch: need k={k} labels, centralizers and a {k}x{k} table")
        return rep
    if not 0 <= g.identity_class < k:
        rep.add(f"identity_class {g.identity_class} out of range")
        return rep
    if not 0 <= g.trivial_char < k:
        rep.add(f"trivial_char {g.trivial_char} out of range")
        return rep
    order = g.order
    if order < 1:
        rep.add(f"|G| = {order} is not positive")
        return rep
    sizes = []
    for j, z in enumerate(g.centralizer_orders):
        if z < 1 or order % z:
            rep.add(f"centralizer order z_{j} = {z} does not divide |G| = {order}")
            return rep
        sizes.append(order // z)
    if sum(sizes) != order:
        rep.add(f"class sizes sum to {sum(sizes)}, expected |G| = {order}")
    if sizes[g.identity_class] != 1:
        rep.add("identity class must have size 1")
    for j in range(k):
        if g.table[g.trivial_char][j] != 1:
            rep.add(f"trivial character is not 1 on class {j}")
            break
    for r in range(k):
        if g.table[r][g.identity_class] < 1:
            rep.add(f"character {r} has nonpositive degree {g.table[r][g.identity_class]}")
    for r in range(k):
        for s in range(r, k):
            inner = sum(sizes[j] * g.table[r][j] * g.table[s][j] for j in range(k))
            want = order if r == s else 0
            if inner != want:
                rep.add(f"row orthogonality fails for characters ({r},{s}): got {inner}, want {want}")
    for i in range(k):
        for j in range(i, k):
            inner = sum(g.table[r][i] * g.table[r][j] for r in range(k))
            want = g.centralizer_orders[i] if i == j else 0
            if inner != want:
                rep.add(f"column orthogonality fails for classes ({i},{j}): got {inner}, want {want}")
    if not rep.ok:
        return rep
    # the engine's symmetries: a linear character times a character is one,
    # and a central z has psi_q(z) = +-deg_q, signs that map columns to columns
    rows, columns, degrees = set(g.table), set(zip(*g.table)), g.degrees()
    for r in (r for r, d in enumerate(degrees) if d == 1):
        bad = [s for s, row in enumerate(g.table) if tuple(map(mul, g.table[r], row)) not in rows]
        if bad:
            rep.add(f"linear character {r} times character {bad[0]} is not a character of the table")
    for z in (z for z, c in enumerate(g.centralizer_orders) if c == order):
        omega = [row[z] // d for row, d in zip(g.table, degrees)]
        if any(abs(row[z]) != d for row, d in zip(g.table, degrees)):
            rep.add(f"central class {z} has a value other than +-degree")
        elif any(tuple(map(mul, omega, col)) not in columns for col in columns):
            rep.add(f"central class {z} takes some column to one that is not a column of the table")
    return rep


# ---------------------------------------------------------------------------
# built-in groups (all with integer-valued tables; re-verified by validate)

_BUILTINS = {
    "trivial": dict(
        class_labels=("e",),
        centralizer_orders=(1,),
        identity_class=0,
        trivial_char=0,
        table=((1,),),
    ),
    "Z2": dict(
        class_labels=("e", "-1"),
        centralizer_orders=(2, 2),
        identity_class=0,
        trivial_char=0,
        table=((1, 1), (1, -1)),
    ),
    "Z2xZ2": dict(
        class_labels=("e", "a", "b", "ab"),
        centralizer_orders=(4, 4, 4, 4),
        identity_class=0,
        trivial_char=0,
        table=(
            (1, 1, 1, 1),
            (1, -1, 1, -1),
            (1, 1, -1, -1),
            (1, -1, -1, 1),
        ),
    ),
    "S3": dict(
        class_labels=("e", "(12)", "(123)"),
        centralizer_orders=(6, 2, 3),
        identity_class=0,
        trivial_char=0,
        table=(
            (1, 1, 1),
            (1, -1, 1),
            (2, 0, -1),
        ),
    ),
    "S4": dict(
        class_labels=("e", "(12)", "(12)(34)", "(123)", "(1234)"),
        centralizer_orders=(24, 4, 8, 3, 4),
        identity_class=0,
        trivial_char=0,
        table=(
            (1, 1, 1, 1, 1),
            (1, -1, 1, 1, -1),
            (2, 0, 2, -1, 0),
            (3, 1, -1, 0, -1),
            (3, -1, -1, 0, 1),
        ),
    ),
    "D8": dict(
        class_labels=("e", "r2", "r", "s", "rs"),
        centralizer_orders=(8, 8, 4, 4, 4),
        identity_class=0,
        trivial_char=0,
        table=(
            (1, 1, 1, 1, 1),
            (1, 1, 1, -1, -1),
            (1, 1, -1, 1, -1),
            (1, 1, -1, -1, 1),
            (2, -2, 0, 0, 0),
        ),
    ),
    "Q8": dict(
        class_labels=("1", "-1", "i", "j", "k"),
        centralizer_orders=(8, 8, 4, 4, 4),
        identity_class=0,
        trivial_char=0,
        table=(
            (1, 1, 1, 1, 1),
            (1, 1, 1, -1, -1),
            (1, 1, -1, 1, -1),
            (1, 1, -1, -1, 1),
            (2, -2, 0, 0, 0),
        ),
    ),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str) -> GroupData:
    """A validated built-in group by name; see BUILTIN_NAMES."""
    try:
        data = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown builtin group {name!r}; choose from {BUILTIN_NAMES}") from None
    g = GroupData(name=name, **data)
    rep = validate(g)
    if not rep.ok:
        raise GroupValidationError(rep.problems)
    return g


# ---------------------------------------------------------------------------
# JSON I/O
#
# Schema: {name, class_labels, centralizer_orders, identity_class,
# trivial_char, table}. Integers may arrive as JSON numbers or decimal
# strings; values outside the 53-bit float-safe range are emitted as strings.

_FIELDS = ("name", "class_labels", "centralizer_orders", "identity_class", "trivial_char", "table")
_SAFE = 2**53


def _as_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise GroupValidationError([f"{where}: expected integer, got boolean"])
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise GroupValidationError([f"{where}: {value!r} is not a decimal integer"]) from None
    raise GroupValidationError([f"{where}: expected integer, got {type(value).__name__} {value!r}"])


def _emit_int(v: int):
    return v if -_SAFE < v < _SAFE else str(v)


def load(document) -> GroupData:
    """Build a GroupData from a parsed JSON object (or a JSON string); validates."""
    if isinstance(document, (str, bytes)):
        document = json.loads(document)
    if not isinstance(document, dict):
        raise GroupValidationError(["document must be a JSON object"])
    missing = [f for f in _FIELDS if f not in document]
    extra = [f for f in document if f not in _FIELDS]
    if missing or extra:
        raise GroupValidationError(
            ([f"missing field {f!r}" for f in missing]) + [f"unexpected field {f!r}" for f in extra]
        )
    labels = document["class_labels"]
    if not isinstance(labels, list) or not labels or not all(isinstance(x, str) for x in labels):
        raise GroupValidationError(["class_labels must be a nonempty list of strings"])
    k = len(labels)
    cents = document["centralizer_orders"]
    if not isinstance(cents, list) or len(cents) != k:
        raise GroupValidationError([f"centralizer_orders must be a list of length {k}"])
    table = document["table"]
    if not isinstance(table, list) or len(table) != k or any(
        not isinstance(row, list) or len(row) != k for row in table
    ):
        raise GroupValidationError([f"table must be a {k}x{k} matrix"])
    g = GroupData(
        name=str(document["name"]),
        class_labels=tuple(labels),
        centralizer_orders=tuple(
            _as_int(z, f"centralizer_orders[{j}]") for j, z in enumerate(cents)
        ),
        identity_class=_as_int(document["identity_class"], "identity_class"),
        trivial_char=_as_int(document["trivial_char"], "trivial_char"),
        table=tuple(
            tuple(_as_int(v, f"table[{r}][{c}]") for c, v in enumerate(row))
            for r, row in enumerate(table)
        ),
    )
    rep = validate(g)
    if not rep.ok:
        raise GroupValidationError(rep.problems)
    return g


def store(g: GroupData) -> dict:
    """JSON-compatible document; load(store(g)) == g."""
    return {
        "name": g.name,
        "class_labels": list(g.class_labels),
        "centralizer_orders": [_emit_int(z) for z in g.centralizer_orders],
        "identity_class": g.identity_class,
        "trivial_char": g.trivial_char,
        "table": [[_emit_int(v) for v in row] for row in g.table],
    }
