"""Names the benchmark reports: workloads, end-to-end and per-layer metrics.

Pure data, importable without numpy or wulffstab. ``BENCHMARK.json`` at the
repository root lists the same names; ``selftest.py`` checks that they agree.
"""

WORKLOADS = ("sphere-spectral", "wulff-mesh", "algebra")

# name -> unit, all lower-is-better; measured with tracing off
END_TO_END = {
    "wall_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run. A name that is a recorded counter
# reads that counter; otherwise "X.self_s" is the self time of span X,
# "X.calls" its call count and "X.wall_s" its total duration.
PER_LAYER = {
    "spectral.basis.self_s": "s",
    "spectral.basis.entries": "count",
    "spectral.analyze.self_s": "s",
    "spectral.derivatives.self_s": "s",
    "surface.radius_spectral.self_s": "s",
    "surface.radius_spectral.calls": "count",
    "spheremesh.build.self_s": "s",
    "spheremesh.build.calls": "count",
    "spheremesh.build.vertices": "count",
    "operators.stencil_build.self_s": "s",
    "operators.stencil_build.vertices": "count",
    "operators.cache_hit_ratio": "ratio",
    "operators.apply.self_s": "s",
    "operators.norms.self_s": "s",
    "surface.raycast.self_s": "s",
    "surface.raycast.rays": "count",
    "surface.raycast.misses": "count",
    "surface.project.self_s": "s",
    "surface.project.unconverged": "count",
    "surface.certificate.self_s": "s",
    "surface.hausdorff.self_s": "s",
    "surface.graph.self_s": "s",
    "wulff.build.self_s": "s",
    "wulff.build.calls": "count",
    "integrand.eval.self_s": "s",
    "integrand.eval.points": "count",
    "curvature.shape.self_s": "s",
    "stability.center.self_s": "s",
    "stability.operator.self_s": "s",
    "stability.sweep.self_s": "s",
    "stability.center.iterations": "count",
    "stability.center.sign_warnings": "count",
    "einstein.zero_set.stray_zeros": "count",
    "einstein.ratio_bounds.self_s": "s",
    "einstein.ratio_bounds.samples": "count",
    "einstein.zero_set.self_s": "s",
    "einstein.polys_batch.calls": "count",
    "flatgraph.shape.self_s": "s",
    "flatgraph.cap_fit.self_s": "s",
    "flatgraph.norm_evals": "count",
    "cli.wulff.wall_s": "s",
    "cli.sweep.wall_s": "s",
    "cli.kernel.wall_s": "s",
    "cli.curvature.wall_s": "s",
    "cli.center.wall_s": "s",
    "cli.einstein.wall_s": "s",
    "cli.write.self_s": "s",
    "cli.write.bytes": "count",
    "process.cpu_s": "s",
    "process.wall_s": "s",
    "process.control_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}
