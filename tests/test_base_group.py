import json

import pytest

from wreathchar.base_group import (
    BUILTIN_NAMES,
    GroupData,
    GroupValidationError,
    builtin,
    load,
    store,
    validate,
)


def test_all_builtins_validate():
    for name in BUILTIN_NAMES:
        g = builtin(name)
        assert validate(g).ok, name


def test_builtin_names():
    assert set(BUILTIN_NAMES) == {"trivial", "Z2", "Z2xZ2", "S3", "S4", "D8", "Q8"}


def test_unknown_builtin():
    with pytest.raises(KeyError):
        builtin("A5")


def test_broken_builtin_raises(monkeypatch):
    # a real check, not an assert, so it also holds under python -O
    import wreathchar.base_group as bg

    broken = dict(bg._BUILTINS["Z2"], table=((1, 1), (1, 1)))
    monkeypatch.setitem(bg._BUILTINS, "Z2", broken)
    with pytest.raises(GroupValidationError) as exc:
        builtin("Z2")
    assert exc.value.problems


def test_trivial_shape():
    g = builtin("trivial")
    assert g.k == 1 and g.order == 1 and g.table == ((1,),)


def test_z2_shape():
    g = builtin("Z2")
    assert g.k == 2
    assert g.centralizer_orders == (2, 2)
    assert g.table == ((1, 1), (1, -1))


def test_q8_degrees():
    assert builtin("Q8").degrees() == (1, 1, 1, 1, 2)


def test_s3_data():
    g = builtin("S3")
    assert g.centralizer_orders == (6, 2, 3)
    assert [g.class_size(j) for j in range(3)] == [1, 3, 2]


def test_burnside_degree_identity():
    for name in BUILTIN_NAMES:
        g = builtin(name)
        assert sum(d * d for d in g.degrees()) == g.order
        assert g.k <= g.order


def test_flipped_entry_reports_column_orthogonality():
    g = builtin("Z2")
    broken = GroupData(
        name="Z2broken",
        class_labels=g.class_labels,
        centralizer_orders=g.centralizer_orders,
        identity_class=0,
        trivial_char=0,
        table=((1, 1), (1, 1)),  # the -1 flipped to 1
    )
    rep = validate(broken)
    assert not rep.ok
    assert any("column orthogonality" in p for p in rep.problems)


def test_validate_bad_centralizer():
    g = builtin("Z2")
    broken = GroupData(
        name="bad",
        class_labels=g.class_labels,
        centralizer_orders=(2, 3),
        identity_class=0,
        trivial_char=0,
        table=g.table,
    )
    assert not validate(broken).ok


class TestIO:
    def test_roundtrip_all_builtins(self):
        for name in BUILTIN_NAMES:
            g = builtin(name)
            assert load(store(g)) == g

    def test_roundtrip_through_text(self):
        g = builtin("S4")
        assert load(json.dumps(store(g))) == g

    def test_accepts_string_integers(self):
        doc = store(builtin("Z2"))
        doc["table"] = [["1", "1"], ["1", "-1"]]
        assert load(doc) == builtin("Z2")

    def test_rejects_non_integer_with_position(self):
        doc = store(builtin("Z2"))
        doc["table"][1][1] = 0.5
        with pytest.raises(GroupValidationError) as err:
            load(doc)
        assert "table[1][1]" in str(err.value)

    def test_rejects_orthogonality_failure_with_pair(self):
        doc = store(builtin("S3"))
        doc["table"][2][2] = 1  # perturb the standard character
        with pytest.raises(GroupValidationError) as err:
            load(doc)
        assert "orthogonality" in str(err.value)
        # the failing pair is named
        assert "(" in str(err.value)

    def test_rejects_missing_and_extra_fields(self):
        doc = store(builtin("Z2"))
        del doc["table"]
        doc["bogus"] = 1
        with pytest.raises(GroupValidationError) as err:
            load(doc)
        msg = str(err.value)
        assert "table" in msg and "bogus" in msg

    def test_emits_strings_outside_53_bits(self):
        big = 2**60
        doc = {
            "name": "big",
            "class_labels": ["e"],
            "centralizer_orders": [1],
            "identity_class": 0,
            "trivial_char": 0,
            "table": [[1]],
        }
        g = load(doc)
        emitted = store(
            GroupData(
                name=g.name,
                class_labels=g.class_labels,
                centralizer_orders=(big,),
                identity_class=0,
                trivial_char=0,
                table=g.table,
            )
        )
        assert emitted["centralizer_orders"] == [str(big)]
