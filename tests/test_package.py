import csrt


def test_every_exported_name_resolves():
    missing = [name for name in csrt.__all__ if not hasattr(csrt, name)]
    assert missing == []
