"""Repository tooling: the benchmark's self-test, run the way the benchmark
documents it, and a guard on how the package computes per-vertex kernels."""

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
