import numpy as np
import pytest

from streamfem.argyris import build_all_bases
from streamfem.mesh import build_uniform_mesh, enumerate_dofs


@pytest.fixture(scope="session")
def mesh3():
    return build_uniform_mesh(3)


@pytest.fixture(scope="session")
def dofmap3(mesh3):
    return enumerate_dofs(mesh3, 1)


@pytest.fixture(scope="session")
def bases3(mesh3):
    return build_all_bases(mesh3)


@pytest.fixture(scope="session")
def mesh5():
    return build_uniform_mesh(5)


@pytest.fixture(scope="session")
def dofmap5(mesh5):
    return enumerate_dofs(mesh5, 1)


@pytest.fixture(scope="session")
def bases5(mesh5):
    return build_all_bases(mesh5)


@pytest.fixture
def bases_builds(monkeypatch):
    """The mesh size of every element-bases build, counted at every lookup site."""
    from streamfem import analysis, assembly, cli, picard

    calls = []
    build = assembly.build_all_bases

    def counting(mesh):
        calls.append(mesh.n)
        return build(mesh)

    monkeypatch.setattr(assembly, "build_all_bases", counting)
    for module in (analysis, cli, picard):
        monkeypatch.setattr(module, "build_all_bases", counting)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
