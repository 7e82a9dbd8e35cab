"""The package's public names: ``from screeb import *`` binds every name in
``screeb.__all__``, so a deletion that leaves a stale export fails here."""

import screeb


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from screeb import *", namespace)
    assert len(set(screeb.__all__)) == len(screeb.__all__)
    for name in screeb.__all__:
        assert namespace[name] is getattr(screeb, name)
