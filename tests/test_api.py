import bioling


def test_every_public_name_resolves():
    missing = [name for name in bioling.__all__ if not hasattr(bioling, name)]
    assert missing == []
