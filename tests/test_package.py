"""The package's public surface."""

import fedbeam


def test_every_exported_name_resolves_and_star_import_works():
    assert len(set(fedbeam.__all__)) == len(fedbeam.__all__)
    for name in fedbeam.__all__:
        assert hasattr(fedbeam, name), name
    namespace: dict = {}
    exec("from fedbeam import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(fedbeam.__all__)
