"""Package metadata: the version has one source, `pipedelay.__version__`,
and every exported name resolves."""

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


def test_all_names_resolve_once():
    assert len(pipedelay.__all__) == len(set(pipedelay.__all__))
    for name in pipedelay.__all__:
        assert hasattr(pipedelay, name), name
