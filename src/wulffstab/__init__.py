"""Wulff shapes, anisotropic curvature deficits and stability experiments."""

from .curvature import (DeficitReport, anisotropic_shape_operator, gauss_ricci,
                        oscillation_deficit, trace_free)
from .einstein import (EigenSpectrum, RatioBound, alpha_exponent,
                       pinching_check, polys, ratio_bounds, ricci_spectrum,
                       zero_set_check)
from .flatgraph import GridField, cap_fit_residual, flat_graph_shape
from .integrand import AnisotropyMatrix, EllipticityError, Integrand, gauge
from .operators import (TensorField, get_operators, lp_norm,
                        surface_divergence, surface_gradient, w2p_norm)
from .spectral import sh_analyze, sh_synthesize
from .spheremesh import build_sphere_mesh
from .stability import (CenteringResult, KernelFrame, ScalingFit, center,
                        kernel_component, kernel_frame, scaling_sweep,
                        stability_operator, stability_ratio)
from .surface import (GraphCertificate, SurfaceGeometry, exp_graph,
                      hausdorff_distance, projection_certificate, radial_graph)
from .wulff import WulffMesh, build_wulff, load_mesh, save_mesh

__all__ = [
    "AnisotropyMatrix",
    "CenteringResult",
    "DeficitReport",
    "EigenSpectrum",
    "EllipticityError",
    "GraphCertificate",
    "GridField",
    "Integrand",
    "KernelFrame",
    "RatioBound",
    "ScalingFit",
    "SurfaceGeometry",
    "TensorField",
    "WulffMesh",
    "alpha_exponent",
    "anisotropic_shape_operator",
    "build_sphere_mesh",
    "build_wulff",
    "cap_fit_residual",
    "center",
    "exp_graph",
    "flat_graph_shape",
    "gauge",
    "gauss_ricci",
    "get_operators",
    "hausdorff_distance",
    "kernel_component",
    "kernel_frame",
    "load_mesh",
    "lp_norm",
    "oscillation_deficit",
    "pinching_check",
    "polys",
    "projection_certificate",
    "radial_graph",
    "ratio_bounds",
    "ricci_spectrum",
    "save_mesh",
    "scaling_sweep",
    "sh_analyze",
    "sh_synthesize",
    "stability_operator",
    "stability_ratio",
    "surface_divergence",
    "surface_gradient",
    "trace_free",
    "w2p_norm",
    "zero_set_check",
]
