"""Unit tests for entity types, actions, queries and constraints."""

import pytest

from repro.common.errors import ConfigurationError, ConstraintViolation, DataModelError
from repro.datamodel.node import Node
from repro.datamodel.schema import EntityType, ModelSchema
from repro.datamodel.tree import DataModel


@pytest.fixture
def counter_type():
    etype = EntityType("counter", default_attrs={"value": 0, "limit": 10})

    @etype.action("increment", undo="decrement", undo_args=lambda node, args: [args[0]])
    def increment(model, node, amount):
        node["value"] = node.get("value", 0) + amount

    @etype.action("decrement", undo="increment", undo_args=lambda node, args: [args[0]])
    def decrement(model, node, amount):
        node["value"] = node.get("value", 0) - amount

    @etype.query("current")
    def current(model, node):
        return node.get("value", 0)

    @etype.constraint("limit", "value must stay within the limit")
    def limit(model, node):
        if node.get("value", 0) > node.get("limit", 10):
            return [f"value {node['value']} exceeds limit {node['limit']}"]
        return []

    return etype


@pytest.fixture
def counter_schema(counter_type):
    schema = ModelSchema()
    schema.register(counter_type)
    return schema


@pytest.fixture
def counter_model():
    model = DataModel()
    model.create("/c1", "counter", {"value": 0, "limit": 10})
    return model


class TestEntityType:
    def test_action_lookup(self, counter_type):
        assert counter_type.get_action("increment").undo == "decrement"

    def test_unknown_action_raises(self, counter_type):
        with pytest.raises(DataModelError):
            counter_type.get_action("missing")

    def test_duplicate_action_rejected(self, counter_type):
        with pytest.raises(ConfigurationError, match="duplicate"):
            counter_type.action("increment", undo="decrement")(lambda model, node: None)

    def test_duplicate_query_rejected(self, counter_type):
        with pytest.raises(ConfigurationError):
            counter_type.query("current")(lambda model, node: None)

    def test_undo_arguments_computed(self, counter_type):
        node = Node("c", "counter", {"value": 3})
        action = counter_type.get_action("increment")
        assert action.undo_arguments(node, [5]) == [5]

    def test_undo_arguments_default_empty(self):
        etype = EntityType("x")
        etype.action("toggle", undo="toggle")(lambda model, node: None)
        assert etype.get_action("toggle").undo_arguments(Node("n", "x"), [1]) == []

    def test_an_action_without_undo_is_refused(self):
        with pytest.raises(ConfigurationError, match="no undo"):
            EntityType("x").action("irreversible")

    def test_has_constraints(self, counter_type):
        assert counter_type.has_constraints
        assert not EntityType("plain").has_constraints


class TestModelSchema:
    def test_register_and_get(self, counter_schema):
        assert counter_schema.get("counter").name == "counter"
        assert counter_schema.has("counter")
        assert not counter_schema.has("ghost")

    def test_unknown_type_raises(self, counter_schema):
        with pytest.raises(DataModelError):
            counter_schema.get("ghost")

    def test_duplicate_type_rejected(self, counter_schema):
        with pytest.raises(ConfigurationError):
            counter_schema.define("counter")

    def test_root_type_predefined(self):
        assert ModelSchema().has("root")

    def test_check_node_reports_violation(self, counter_schema, counter_model):
        node = counter_model.get("/c1")
        node["value"] = 99
        violations = counter_schema.check_node(counter_model, node)
        assert len(violations) == 1
        assert "exceeds limit" in violations[0]

    def test_check_subtree_clean(self, counter_schema, counter_model):
        assert counter_schema.check_subtree(counter_model) == []

    def test_enforce_subtree_raises(self, counter_schema, counter_model):
        counter_model.get("/c1")["value"] = 99
        with pytest.raises(ConstraintViolation):
            counter_schema.enforce_subtree(counter_model)

    def test_has_constraints_by_name(self, counter_schema):
        assert counter_schema.has_constraints("counter")
        assert not counter_schema.has_constraints("root")
        assert not counter_schema.has_constraints("never-registered")

    def test_unknown_entity_type_in_model_is_ignored(self, counter_schema):
        model = DataModel()
        model.create("/weird", "unregistered-type")
        assert counter_schema.check_subtree(model) == []


class TestActionSimulation:
    def test_action_mutates_model(self, counter_schema, counter_model):
        node = counter_model.get("/c1")
        counter_schema.get("counter").get_action("increment").simulate(counter_model, node, 4)
        assert node["value"] == 4

    def test_query_reads_model(self, counter_schema, counter_model):
        node = counter_model.get("/c1")
        node["value"] = 6
        assert counter_schema.get("counter").get_query("current").func(counter_model, node) == 6
