import pkgutil

import pytest

import poselab

MODULES = sorted(info.name for info in pkgutil.iter_modules(poselab.__path__))


def test_modules_found():
    assert {"cli", "harness", "pnp"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # A star import looks up every name in the module's __all__, so a stale
    # entry raises AttributeError here.
    exec(f"from poselab.{module} import *", {})


def test_package_exports_resolve():
    for name in poselab.__all__:
        assert hasattr(poselab, name), name
