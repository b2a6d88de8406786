import finiagg


def test_every_export_resolves_once():
    names = finiagg.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(finiagg, name), name
