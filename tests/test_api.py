"""The public API: what `wulffstab` exports, and what it no longer does."""

import inspect

import pytest

import wulffstab
from wulffstab import (curvature, einstein, flatgraph, integrand, operators,
                       stability, surface, wulff)

# names taken out of the public API, and the modules that held them
REMOVED = [("AnisotropyMatrix", integrand), ("TensorField", operators),
           ("surface_divergence", operators), ("surface_gradient", operators),
           ("EigenSpectrum", einstein), ("polys", einstein),
           ("save_mesh", wulff), ("integrand_hash", wulff)]


def test_all_is_sorted_without_duplicates():
    assert wulffstab.__all__ == sorted(set(wulffstab.__all__))


def test_every_exported_name_imports():
    namespace = {}
    exec(f"from wulffstab import {', '.join(wulffstab.__all__)}", namespace)
    assert all(namespace[name] is getattr(wulffstab, name)
               for name in wulffstab.__all__)


@pytest.mark.parametrize("name, module", REMOVED)
def test_removed_names_are_gone(name, module):
    assert name not in wulffstab.__all__
    assert not hasattr(wulffstab, name)
    assert not hasattr(module, name)


@pytest.mark.parametrize("fn", [surface.projection_certificate,
                                flatgraph.flat_graph_shape])
def test_removed_parameters_are_gone(fn):
    """projection_certificate takes no base and flat_graph_shape no slope
    limit: a surface's own base and the limit 4.5 are the only ones."""
    assert len(inspect.signature(fn).parameters) == 1


def test_graph_certificate_keeps_no_feet():
    """The projection feet were stored and never read; the offsets and
    diagnostics went with the projection."""
    assert list(inspect.signature(surface.GraphCertificate).parameters) == [
        "margins"]


def test_integrand_keeps_no_descriptor():
    """The descriptor strings were read only by the mesh-file hash, which
    is gone; a Fourier mode is a key of HARMONIC_POLYNOMIALS, with no
    exponent-dict form to describe."""
    assert "descriptor" not in inspect.signature(integrand.Integrand).parameters
    assert not hasattr(integrand.Integrand.constant(), "descriptor")


@pytest.mark.parametrize("cls, name", [
    (einstein.RatioBound, "n"), (einstein.RatioBound, "kappa"),
    (curvature.DeficitReport, "p"),
    (stability.CenteringResult, "final_residual")])
def test_echoed_result_fields_are_gone(cls, name):
    """Fields that repeated an argument of the call, or trace[-1]."""
    assert name not in inspect.signature(cls).parameters
