"""The package's public names: each one in ``__all__`` is bound, once."""

from collections import Counter

import statecast


def test_star_import_binds_every_export():
    namespace = {}
    exec("from statecast import *", namespace)
    assert [name for name, n in Counter(statecast.__all__).items() if n > 1] == []
    assert sorted(set(statecast.__all__) - namespace.keys()) == []
