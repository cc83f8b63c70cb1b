"""The :class:`DispatchContext` contract policy authors rely on.

POLICIES.md promises one immutable, documented context per routing
decision.  These tests pin that promise independently of how the
class builds its instances: the fields, their order and default,
frozen assignment, value semantics and slots.
"""

import dataclasses

import pytest

from repro.service.dispatch import DispatchContext

FIELDS = ("nodes", "on_ids", "now", "service_seconds", "sla_seconds")


def literal_ctx(**overrides):
    kwargs = dict(nodes=("a", "b"), on_ids=(0, 1), now=2.5,
                  service_seconds=0.3, sla_seconds=4.0)
    kwargs.update(overrides)
    return DispatchContext(**kwargs)


class TestShape:
    def test_is_a_frozen_slotted_dataclass(self):
        assert dataclasses.is_dataclass(DispatchContext)
        params = DispatchContext.__dataclass_params__
        assert params.frozen and params.eq
        assert DispatchContext.__slots__ == FIELDS

    def test_field_names_order_and_default(self):
        fields = dataclasses.fields(DispatchContext)
        assert tuple(f.name for f in fields) == FIELDS
        assert [f.default for f in fields][-1] is None
        assert all(f.default is dataclasses.MISSING for f in fields[:-1])

    def test_instances_have_no_dict(self):
        ctx = literal_ctx()
        assert not hasattr(ctx, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            ctx.extra = 1

    @pytest.mark.parametrize("name", FIELDS)
    def test_assigning_any_field_raises(self, name):
        ctx = literal_ctx()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ctx, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(ctx, name)


class TestConstruction:
    def test_positional_and_keyword_construct_the_same_value(self):
        assert DispatchContext(("a", "b"), (0, 1), 2.5, 0.3, 4.0) \
            == literal_ctx()
        assert DispatchContext(("a", "b"), (0, 1), 2.5,
                               service_seconds=0.3, sla_seconds=4.0) \
            == literal_ctx()

    def test_sla_defaults_to_unknown(self):
        ctx = DispatchContext(("a",), (0,), 1.0, 0.5)
        assert ctx.sla_seconds is None
        assert ctx == DispatchContext(("a",), (0,), 1.0, 0.5, None)

    def test_missing_or_extra_arguments_raise(self):
        with pytest.raises(TypeError):
            DispatchContext(("a",), (0,), 1.0)
        with pytest.raises(TypeError):
            DispatchContext(("a",), (0,), 1.0, 0.5, None, "extra")
        with pytest.raises(TypeError):
            DispatchContext(("a",), (0,), 1.0, 0.5, bogus=1)

    def test_fields_read_back(self):
        ctx = literal_ctx()
        assert (ctx.nodes, ctx.on_ids, ctx.now, ctx.service_seconds,
                ctx.sla_seconds) == (("a", "b"), (0, 1), 2.5, 0.3, 4.0)


class TestValueSemantics:
    def test_repr(self):
        assert repr(literal_ctx()) == (
            "DispatchContext(nodes=('a', 'b'), on_ids=(0, 1), now=2.5, "
            "service_seconds=0.3, sla_seconds=4.0)")

    def test_equality(self):
        assert literal_ctx() == literal_ctx()
        assert literal_ctx() != literal_ctx(now=2.75)
        assert literal_ctx() != literal_ctx(sla_seconds=None)
        assert literal_ctx() != (("a", "b"), (0, 1), 2.5, 0.3, 4.0)

    def test_hash_is_the_field_tuple_hash(self):
        ctx = literal_ctx(sla_seconds=None)
        assert hash(ctx) == hash((("a", "b"), (0, 1), 2.5, 0.3, None))
        with pytest.raises(TypeError):
            hash(literal_ctx(nodes=["a", "b"]))

    def test_replace(self):
        moved = dataclasses.replace(literal_ctx(), now=3.0,
                                    sla_seconds=None)
        assert moved == DispatchContext(("a", "b"), (0, 1), 3.0, 0.3)
        assert type(moved) is DispatchContext

    def test_astuple(self):
        assert dataclasses.astuple(literal_ctx()) == \
            (("a", "b"), (0, 1), 2.5, 0.3, 4.0)

