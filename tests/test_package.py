import pompeiu


def test_every_public_name_resolves():
    assert [name for name in pompeiu.__all__ if not hasattr(pompeiu, name)] == []
