import types

import dgb


def test_all_names_resolve_to_public_objects():
    assert len(set(dgb.__all__)) == len(dgb.__all__)
    for name in dgb.__all__:
        value = getattr(dgb, name)
        assert not isinstance(value, types.ModuleType), name
