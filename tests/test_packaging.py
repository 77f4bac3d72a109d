"""Package metadata: the version has one source, `pipedelay.__version__`."""

import os

import pytest

import pipedelay

tomllib = pytest.importorskip("tomllib")

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml")


def test_version_is_read_from_the_package():
    with open(PYPROJECT, "rb") as fh:
        meta = tomllib.load(fh)
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    attr = meta["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "pipedelay.__version__"
    assert pipedelay.__version__
