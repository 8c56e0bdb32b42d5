"""Repository tooling: the benchmark's self-test, run the way the benchmark
documents it, and a guard on how the package computes per-vertex kernels."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    """The bench wraps wulffstab functions by name, so a rename in the
    package breaks its bindings; its self-test notices."""
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]


# the batched LAPACK calls and einsums the package may make: one-off
# factorizations, not per-vertex work (module, stripped source line)
DENSE_CALLS_ALLOWED = {
    # the 81 x 81 (band 8) Cholesky inverse, once per band and level
    ("spectral.py", "cinv = np.linalg.inv(np.linalg.cholesky(gram))"),
    # the 3 x 3 matrix of a quadratic integrand, once per integrand or run
    ("integrand.py", "if np.linalg.eigvalsh(M).min() <= 0:"),
    ("cli.py", 'Minv = np.linalg.inv(integ.params["M"])'),
}
DENSE_CALL = re.compile(r"\b(einsum|inv|eigvalsh|eigvals|solve)\(")


def test_per_vertex_kernels_avoid_einsum_and_batched_lapack():
    """Per-vertex contractions go through spheremesh.rowdot and BLAS
    products, and 2x2 forms through the closed forms of spheremesh, not
    through np.einsum or a batched np.linalg inv/eigvalsh/eigvals/solve;
    only the one-off calls of DENSE_CALLS_ALLOWED remain, and each of them
    is still there."""
    found = set()
    for path in sorted((ROOT / "src" / "wulffstab").glob("*.py")):
        for line in path.read_text().splitlines():
            code = line.split("#")[0].strip()
            if DENSE_CALL.search(code):
                found.add((path.name, code))
    assert found == DENSE_CALLS_ALLOWED


# modules whose (N, 3) rows go through spheremesh.rownorm and rowcross;
# einstein's n-column norms stay with numpy, which sums 8 or more columns
# pairwise, an order a column loop would not reproduce
ROW_KERNEL_MODULES = ("spheremesh", "surface", "stability", "operators",
                      "curvature", "integrand")


def _dotted(node):
    """'np.linalg.norm' for the attribute chain of a call, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def test_row_norms_and_cross_products_go_through_the_row_kernels():
    """The mesh, surface, stability, operator, curvature and integrand
    layers make no np.linalg.norm call along an axis and no np.cross call:
    rownorm and rowcross give their bits with fewer temporaries. A norm
    of one whole vector (no axis) is left to numpy."""
    found = []
    for name in ROW_KERNEL_MODULES:
        path = ROOT / "src" / "wulffstab" / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = _dotted(node.func)
            if func == "np.cross" or (
                    func == "np.linalg.norm"
                    and any(k.arg == "axis" for k in node.keywords)):
                found.append((path.name, node.lineno, func))
    assert found == []
