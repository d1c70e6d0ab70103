"""Property: any JSON-shaped mutation of a bundled preset either parses or is
reported as a ConfigError; no other exception escapes ``parse_config``."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ancsim.config import (ConfigError, ExperimentConfig, bundled_preset_names,
                           bundled_preset_text, parse_config)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=8)


def _paths(node, prefix=()):
    """Every (container path) location in a JSON tree, the root included."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


@st.composite
def mutated_presets(draw):
    data = json.loads(bundled_preset_text(draw(st.sampled_from(bundled_preset_names()))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        if not path:
            data = draw(json_values)
            continue
        parent, key = _parent(data, path), path[-1]
        action = draw(st.sampled_from(["replace", "delete", "scale"]))
        if action == "delete":
            del parent[key]
        elif action == "scale" and isinstance(parent[key], (int, float)):
            parent[key] = parent[key] * draw(st.sampled_from([-1, 0, 0.5, 3, 1e300]))
        else:
            parent[key] = draw(json_values)
    return data


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mutated_presets())
def test_parse_config_returns_or_raises_config_error(data):
    try:
        cfg = parse_config(data)
    except ConfigError as err:
        assert err.violations
    else:
        assert isinstance(cfg, ExperimentConfig)
