"""Experiment configuration: a flat INI-style key-value file.

One section per subcommand plus a [common] section; every key is validated
before any computation starts. See docs in README for the schema.
"""

import configparser

import numpy as np

from .einstein import DIMENSION_MAX, KAPPA_MAX
from .integrand import HARMONIC_POLYNOMIALS, Integrand


class ConfigError(Exception):
    """Invalid configuration; message carries section/key or line context."""


# every section and key that a subcommand reads; any other name is rejected,
# so a misspelled key cannot silently leave its default in force
KEYS = {
    "common": ("seed", "level", "out", "p", "integrand", "tolerance"),
    "sweep": ("family", "amplitudes"),
    "curvature": ("family", "epsilon"),
    "kernel": ("levels", "n_vectors", "threshold"),
    "center": ("translation", "translation_norm", "recovery_tol",
               "epsilons"),
    "einstein": ("dimensions", "kappas", "budget"),
}


def _check_names(cp):
    """Reject sections and keys outside KEYS, naming section.key."""
    for key in cp.defaults():
        raise ConfigError(f"{cp.default_section}.{key}: unknown section; "
                          f"sections are {', '.join(KEYS)}")
    for name in cp.sections():
        keys = cp.options(name)
        if name not in KEYS:
            where = f"{name}.{keys[0]}" if keys else name
            raise ConfigError(f"{where}: unknown section [{name}]; "
                              f"sections are {', '.join(KEYS)}")
        for key in keys:
            if key not in KEYS[name]:
                raise ConfigError(f"{name}.{key}: unknown key; [{name}] "
                                  f"takes {', '.join(KEYS[name])}")


def parse_integrand(text):
    """Integrand from a config token.

    Formats: 'constant' or 'constant:V'; 'quadratic:a,b,c' (diagonal) or
    nine comma-separated entries; 'fourier:base,amplitude,l,m'.
    """
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    try:
        if head == "constant":
            return Integrand.constant(float(rest) if rest else 1.0)
        if head == "quadratic":
            vals = [float(t) for t in rest.split(",")]
            if len(vals) == 3:
                return Integrand.quadratic_form(np.diag(vals))
            if len(vals) == 9:
                return Integrand.quadratic_form(np.array(vals).reshape(3, 3))
            raise ConfigError("quadratic integrand needs 3 or 9 entries")
        if head == "fourier":
            base, amp, ell, m = rest.split(",")
            mode = (int(ell), int(m))
            if mode not in HARMONIC_POLYNOMIALS:
                raise ConfigError(f"fourier mode (l, m) = {mode} is not one "
                                  "of the tabulated harmonics (l <= 3)")
            return Integrand.fourier_perturbed(float(base), float(amp), mode)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad integrand spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown integrand family {head!r}")


def parse_family(text):
    """Perturbation family token: 'harmonic:l,m' or 'kernel:cx,cy,cz'."""
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    try:
        if head == "harmonic":
            ell, m = (int(t) for t in rest.split(","))
            if abs(m) > ell:
                raise ConfigError(f"harmonic mode needs |m| <= l, got "
                                  f"(l, m) = ({ell}, {m})")
            return ("harmonic", ell, m)
        if head == "kernel":
            c = np.array([float(t) for t in rest.split(",")])
            if c.shape != (3,) or not c.any() or not np.isfinite(c).all():
                raise ConfigError("kernel family needs a finite nonzero "
                                  "3-vector")
            return ("kernel", c)
    except ValueError as exc:
        raise ConfigError(f"bad family spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown perturbation family {head!r}")


class ExperimentConfig:
    """Validated experiment settings for one subcommand run."""

    def __init__(self, path):
        cp = configparser.ConfigParser()
        try:
            with open(path) as fh:
                cp.read_file(fh, source=str(path))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"parse error: {exc}") from exc
        _check_names(cp)
        self._cp = cp
        common = cp["common"] if cp.has_section("common") else {}
        self.seed = self._int(common, "common", "seed", 0)
        if self.seed < 0:
            raise ConfigError("common.seed must be 0 or more")
        self.level = self._int(common, "common", "level", 5)
        self.out = common.get("out", "out")
        self.p = self._float(common, "common", "p", 4.0)
        self.integrand_spec = common.get("integrand", "constant")
        try:
            self.integrand = parse_integrand(self.integrand_spec)
        except ConfigError as exc:
            raise ConfigError(f"common.integrand: {exc}") from exc
        self.tolerance = self._float(common, "common", "tolerance", 1e-8)
        if not self.tolerance > 0:
            raise ConfigError("common.tolerance must be positive")
        if not 1 < self.p < np.inf:
            raise ConfigError("common.p must lie in (1, inf)")
        if not 2 <= self.level <= 8:
            raise ConfigError("common.level must lie in [2, 8]")
        self._read_einstein()

    def _read_einstein(self):
        """The [einstein] settings, range-checked with the rest of the file
        so that every subcommand rejects a bad one."""
        self.einstein_dimensions = self.ints("einstein", "dimensions", "3,4,5")
        if (min(self.einstein_dimensions) < 3
                or max(self.einstein_dimensions) > DIMENSION_MAX):
            raise ConfigError(f"einstein.dimensions must lie in [3, "
                              f"{DIMENSION_MAX}]")
        self.einstein_kappas = self.floats("einstein", "kappas", "-1,0,1")
        if max(abs(k) for k in self.einstein_kappas) > KAPPA_MAX:
            raise ConfigError(f"einstein.kappas must lie in [-{KAPPA_MAX:g}, "
                              f"{KAPPA_MAX:g}]")
        self.einstein_budget = self._int(self.section("einstein"), "einstein",
                                         "budget", 200000)
        if self.einstein_budget <= 0:
            raise ConfigError("einstein.budget must be positive")

    def _int(self, sec, name, key, default):
        try:
            return int(sec.get(key, default))
        except ValueError as exc:
            raise ConfigError(f"{name}.{key} must be an integer: {exc}") from exc

    def _float(self, sec, name, key, default):
        try:
            value = float(sec.get(key, default))
        except ValueError as exc:
            raise ConfigError(f"{name}.{key} must be a number: {exc}") from exc
        if not np.isfinite(value):
            raise ConfigError(f"{name}.{key} must be finite")
        return value

    def section(self, name):
        return self._cp[name] if self._cp.has_section(name) else {}

    def amplitudes(self, name, default="1e-4,1e-2,6"):
        """Amplitude list: explicit 'a,b,c,...' or geometric 'lo,hi,count'."""
        vals = self.floats(name, "amplitudes", default)
        if len(vals) == 3 and vals[2] == int(vals[2]) and vals[2] >= 4:
            vals = np.geomspace(vals[0], vals[1], int(vals[2])).tolist()
        if any(v <= 0 for v in vals) or sorted(vals) != vals:
            raise ConfigError(f"{name}.amplitudes must be positive and sorted")
        return np.array(vals)

    def family(self, name, default="harmonic:2,0"):
        try:
            return parse_family(self.section(name).get("family", default))
        except ConfigError as exc:
            raise ConfigError(f"{name}.family: {exc}") from exc

    def floats(self, name, key, default):
        """Non-empty list of finite numbers separated by ',' or ';'."""
        text = self.section(name).get(key, default)
        try:
            vals = [float(t) for t in text.replace(";", ",").split(",")
                    if t.strip()]
        except ValueError as exc:
            raise ConfigError(f"{name}.{key} must be a list of numbers: "
                              f"{exc}") from exc
        if not vals or not np.all(np.isfinite(vals)):
            raise ConfigError(f"{name}.{key} must list one or more finite "
                              "numbers")
        return vals

    def ints(self, name, key, default):
        vals = self.floats(name, key, default)
        if any(v != int(v) for v in vals):
            raise ConfigError(f"{name}.{key} must list integers")
        return [int(v) for v in vals]
