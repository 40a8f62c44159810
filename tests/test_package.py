"""The package's public name list."""

import nsk


def test_every_exported_name_resolves():
    missing = [name for name in nsk.__all__ if not hasattr(nsk, name)]
    assert missing == []
    assert len(set(nsk.__all__)) == len(nsk.__all__)
