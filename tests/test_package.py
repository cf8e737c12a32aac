import swarmpath


def test_every_public_name_resolves():
    missing = [name for name in swarmpath.__all__ if not hasattr(swarmpath, name)]
    assert missing == []
    assert len(set(swarmpath.__all__)) == len(swarmpath.__all__)
