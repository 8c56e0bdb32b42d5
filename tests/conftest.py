import numpy as np
import pytest

from wulffstab import Integrand, build_sphere_mesh, build_wulff, spheremesh


@pytest.fixture(scope="session")
def sphere4():
    return build_sphere_mesh(4)


@pytest.fixture(scope="session")
def sphere5():
    return build_sphere_mesh(5)


@pytest.fixture(scope="session")
def constant_integrand():
    return Integrand.constant()


@pytest.fixture(scope="session")
def ellipsoid_integrand():
    return Integrand.quadratic_form(np.diag([1.0, 1.0, 4.0]))


@pytest.fixture(scope="session")
def wulff4(ellipsoid_integrand):
    return build_wulff(ellipsoid_integrand, 4)


@pytest.fixture
def fresh_spheres(monkeypatch):
    """An empty direction-sphere cache for one test; the shared one is put
    back afterwards."""
    monkeypatch.setattr(spheremesh, "_SPHERES", {})
