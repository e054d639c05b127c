"""The argument rules shared by every public entry point: an integer below
its bound is named by ``_check_int``, a label with the wrong number of
components by ``_label_k``, and a bad partition by the label constructors."""

import re

import pytest

from wreathchar.base_group import builtin
from wreathchar.congruence import predicted_divisible
from wreathchar.partitions import (
    MultiPartition,
    count_multipartitions,
    count_partitions,
    dominates,
    enumerate_multipartitions,
    enumerate_partitions,
    is_t_core,
    rank_multipartition,
    remove_rimhooks,
    unrank_multipartition,
)
from wreathchar.stats import asymptotic_check, certificate_census, concentration_check, sampled_census
from wreathchar.weyl_d import dn_half_classes_property, dn_irrep_census, dn_restricted_census, psi_value
from wreathchar.wreath_chars import (
    character_column,
    character_table,
    class_size,
    dimension,
    mn_character,
    perm_character,
)

Z2 = builtin("Z2")

# each bounded integer argument: (the call on a value, its name, its bound)
BOUNDED = {
    "enumerate_partitions n": (enumerate_partitions, "n", 0),
    "enumerate_multipartitions n": (lambda v: enumerate_multipartitions(v, 2), "n", 0),
    "enumerate_multipartitions k": (lambda v: enumerate_multipartitions(2, v), "k", 1),
    "count_partitions n": (count_partitions, "n", 0),
    "count_multipartitions n": (lambda v: count_multipartitions(v, 2), "n", 0),
    "count_multipartitions k": (lambda v: count_multipartitions(2, v), "k", 1),
    "unrank_multipartition n": (lambda v: unrank_multipartition(v, 2, 0), "n", 0),
    "unrank_multipartition k": (lambda v: unrank_multipartition(2, v, 0), "k", 1),
    "remove_rimhooks length": (lambda v: remove_rimhooks((2, 1), v), "length", 1),
    "is_t_core t": (lambda v: is_t_core((2, 1), v), "t", 1),
    "character_column n": (lambda v: character_column(Z2, v, ((), ())), "n", 0),
    "character_table n": (lambda v: character_table(Z2, v), "n", 0),
    "character_table workers": (lambda v: character_table(Z2, 2, workers=v), "workers", 1),
    "sampled_census n": (lambda v: sampled_census(Z2, v, 2, 3, 1), "n", 0),
    "sampled_census samples": (lambda v: sampled_census(Z2, 4, 2, v, 1), "samples", 1),
    "sampled_census workers": (lambda v: sampled_census(Z2, 4, 2, 3, 1, workers=v), "workers", 1),
    "certificate_census group_k": (lambda v: certificate_census(v, 4, 2, 3, 1), "group_k", 1),
    "certificate_census n": (lambda v: certificate_census(2, v, 2, 3, 1), "n", 0),
    "asymptotic_check k": (lambda v: asymptotic_check(v, 10), "k", 1),
    "asymptotic_check n": (lambda v: asymptotic_check(2, v), "n", 1),
    "concentration_check k": (lambda v: concentration_check(v, 4, 0.5), "k", 1),
    "concentration_check n": (lambda v: concentration_check(2, v, 0.5), "n", 0),
    "dn_irrep_census n": (dn_irrep_census, "n", 1),
    "dn_half_classes_property n": (dn_half_classes_property, "n", 1),
    "dn_restricted_census n": (lambda v: dn_restricted_census(v, 2), "n", 1),
}


@pytest.mark.parametrize("below", [1, 4])
@pytest.mark.parametrize("case", BOUNDED)
def test_below_the_bound_is_named(case, below):
    call, name, low = BOUNDED[case]
    with pytest.raises(ValueError, match=rf"^{name} must be >= {low}, got {low - below}$"):
        call(low - below)


@pytest.mark.parametrize("offset", [0.5, 2.0])
@pytest.mark.parametrize("case", BOUNDED)
def test_a_float_is_named_before_the_bound(case, offset):
    call, name, low = BOUNDED[case]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {low + offset}$"):
        call(low + offset)


@pytest.mark.parametrize("case", BOUNDED)
def test_the_bound_itself_is_accepted(case):
    call, _, low = BOUNDED[case]
    call(low)


# each label argument with a fixed component count (Z2 and type D: k = 2):
# (the call on a label, its name in the message)
K_LABELS = {
    "mn_character": (lambda lam: mn_character(Z2, lam, ((1,), ())), "lambda"),
    "perm_character": (lambda lam: perm_character(Z2, lam, ((1,), ())), "lambda"),
    "predicted_divisible": (lambda lam: predicted_divisible(Z2, lam, ((1,), ()), 2), "lambda"),
    "dimension": (lambda lam: dimension(Z2, lam), "lambda"),
    "class_size": (lambda mu: class_size(Z2, mu), "class label"),
    "character_column": (lambda mu: character_column(Z2, 1, mu), "class label"),
    "psi_value": (psi_value, "class label"),
}


@pytest.mark.parametrize("label", [((1,),), MultiPartition([[1], [], []])], ids=["k=1", "k=3"])
@pytest.mark.parametrize("case", K_LABELS)
def test_wrong_component_count_is_named(case, label):
    call, name = K_LABELS[case]
    with pytest.raises(ValueError, match=rf"^{name} needs k=2 components, got {len(label)}$"):
        call(label)


# a flat part tuple where a multipartition belongs: its first part is no partition
FLAT_CALLS = {
    "MultiPartition": lambda: MultiPartition((3, 1)),
    "mn_character": lambda: mn_character(Z2, (3, 1), ((4,), ())),
    "class_size": lambda: class_size(Z2, (3, 1)),
    "dominates": lambda: dominates((3, 1), ((3,), (1,))),
    "rank_multipartition": lambda: rank_multipartition((3, 1)),
    "psi_value": lambda: psi_value((3, 1)),
}


@pytest.mark.parametrize("case", FLAT_CALLS)
def test_flat_part_tuple_is_named(case):
    with pytest.raises(ValueError, match=r"^a partition is a sequence of parts, got 3$"):
        FLAT_CALLS[case]()


@pytest.mark.parametrize(
    "parts, want",
    [
        ((0,), "parts must be positive, got 0 at index 0"),
        ((1, 3), "parts must be weakly decreasing, got (1, 3)"),
        ((2.0,), "parts must be integers, got 2.0 at index 0"),
        ((True,), "parts must be integers, got True at index 0"),
    ],
)
@pytest.mark.parametrize("call", [remove_rimhooks, is_t_core])
def test_rimhook_and_core_calls_check_their_partition(call, parts, want):
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        call(parts, 1)
