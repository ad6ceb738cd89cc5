"""The package is its modules: ``import qprep`` binds no name of theirs."""

import types

import qprep


def test_the_package_binds_only_dunder_names_and_its_submodules():
    for name, value in vars(qprep).items():
        if isinstance(value, types.ModuleType):
            assert value.__name__ == f"qprep.{name}"
        else:
            assert name.startswith("__") and name.endswith("__"), name
    assert isinstance(qprep.__version__, str)
