"""Experiment configuration: a flat INI file checked against one schema.

One section per subcommand plus [common]. SCHEMA names every section and
key with its parser, default and range. ExperimentConfig parses and checks
the whole file when it is read, so every subcommand rejects a bad value in
any section, with a ConfigError naming section.key, before it computes or
writes anything. [common] values are attributes of the config (cfg.level);
every other section is a namespace of typed values (cfg.kernel.levels).
"""

import configparser
from types import SimpleNamespace

import numpy as np

from . import spectral
from .einstein import DIMENSION_MAX, KAPPA_MAX
from .integrand import Integrand
from .stability import CENTER_RADIUS_MAX

# the unit sphere translated by t reads as an exponential graph whose
# radius reaches log(1 - |t|) opposite t, so centering starts from it only
# for |t| up to this
TRANSLATION_NORM_MAX = 1.0 - np.exp(-CENTER_RADIUS_MAX)
# the one-step family eps (<x, t> + Y20) of `wulffstab center` has
# |radius| <= eps (1 + max Y20) for every unit t
EPSILON_MAX = CENTER_RADIUS_MAX / (1.0 + np.sqrt(5.0 / (4.0 * np.pi)))


class ConfigError(Exception):
    """Invalid configuration; message carries section/key or line context."""


def _number(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _numbers(text):
    """Non-empty list of finite numbers separated by ',' or ';'."""
    vals = [_number(t) for t in text.replace(";", ",").split(",")
            if t.strip()]
    if not vals:
        raise ValueError("needs one or more numbers")
    return vals


def _integers(text):
    vals = _numbers(text)
    if any(v != int(v) for v in vals):
        raise ValueError(f"{text!r} must list integers")
    return [int(v) for v in vals]


def _amplitudes(text):
    """Explicit 'a,b,...' or geometric 'lo,hi,count', 4 <= count <= 100."""
    vals = _numbers(text)
    if (len(vals) == 3 and min(vals) > 0 and vals[2] == int(vals[2])
            and vals[2] >= 4):
        if vals[2] > 100:
            raise ValueError(f"geometric count {vals[2]:g} exceeds 100")
        vals = np.geomspace(vals[0], vals[1], int(vals[2])).tolist()
    return np.array(vals)


def parse_integrand(text):
    """Elliptic integrand from a config token.

    Formats: 'constant' or 'constant:V'; 'quadratic:a,b,c' (diagonal) or
    nine comma-separated entries; 'fourier:base,amplitude,l,m'.
    """
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    try:
        if head == "constant":
            integrand = Integrand.constant(_number(rest) if rest else 1.0)
        elif head == "quadratic":
            vals = [_number(t) for t in rest.split(",")]
            if len(vals) not in (3, 9):
                raise ConfigError("quadratic integrand needs 3 or 9 entries")
            integrand = Integrand.quadratic_form(
                np.diag(vals) if len(vals) == 3
                else np.array(vals).reshape(3, 3))
        elif head == "fourier":
            base, amp, ell, m = rest.split(",")
            integrand = Integrand.fourier_perturbed(_number(base), _number(amp),
                                                    (int(ell), int(m)))
        else:
            raise ConfigError(f"unknown integrand family {head!r}")
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad integrand spec {text!r}: {exc}") from exc
    if not integrand.is_elliptic:
        raise ConfigError(f"integrand {text!r} is not elliptic (ellipticity "
                          f"margin {integrand.ellipticity_margin:.3g})")
    return integrand


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


# section -> key -> (parser, default token, range check, message); the only
# names a config may use, so a misspelled key cannot leave its default in
# force. A None default is worked out from [common] (kernel.levels).
SCHEMA = {
    "common": {
        "seed": (int, "0", lambda v: v >= 0, "must be 0 or more"),
        "level": (int, "5", lambda v: 2 <= v <= 8, "must lie in [2, 8]"),
        "out": (str, "out", None, None),
        "p": (_number, "4", lambda v: v > 1, "must lie in (1, inf)"),
        "integrand": (parse_integrand, "constant", None, None),
        "tolerance": (_number, "1e-8", lambda v: v > 0, "must be positive"),
    },
    "sweep": {
        "family": (parse_family, "harmonic:2,0", None, None),
        "amplitudes": (_amplitudes, "1e-4,1e-2,6",
                       lambda a: (a > 0).all() and (np.diff(a) >= 0).all(),
                       "must be positive and sorted"),
    },
    "curvature": {
        "family": (parse_family, "harmonic:2,0", None, None),
        "epsilon": (_number, "1e-3", lambda v: 0 < v <= CENTER_RADIUS_MAX,
                    f"must lie in (0, {CENTER_RADIUS_MAX:g}], the smallness "
                    "gate of stability.center"),
    },
    "kernel": {
        "levels": (_integers, None, lambda v: all(2 <= lv <= 8 for lv in v),
                   "must lie in [2, 8]"),
    },
    "center": {
        "translation": (lambda text: np.array(_numbers(text)),
                        "0.03,-0.02,0.028",
                        lambda t: t.shape == (3,) and t.any(),
                        "must be a nonzero 3-vector"),
        "translation_norm": (_number, "0.05",
                             lambda v: 0 < v <= TRANSLATION_NORM_MAX,
                             f"must lie in (0, {TRANSLATION_NORM_MAX:.6g}]: "
                             "the translated unit sphere's radius "
                             "log(1 - norm) must pass the "
                             f"{CENTER_RADIUS_MAX:g} smallness gate of "
                             "stability.center"),
        "epsilons": (_numbers, "0.01,0.02,0.04",
                     lambda v: (len(v) >= 2 and min(v) > 0
                                and max(v) <= EPSILON_MAX
                                and len(set(v)) == len(v)),
                     "must list two or more distinct amplitudes in "
                     f"(0, {EPSILON_MAX:.6g}]: eps (<x, t> + Y20) must pass "
                     f"the {CENTER_RADIUS_MAX:g} smallness gate of "
                     "stability.center"),
    },
    "einstein": {
        "dimensions": (_integers, "3,4,5",
                       lambda v: 3 <= min(v) and max(v) <= DIMENSION_MAX,
                       f"must lie in [3, {DIMENSION_MAX}]"),
        "kappas": (_numbers, "-1,0,1",
                   lambda v: max(abs(k) for k in v) <= KAPPA_MAX,
                   f"must lie in [-{KAPPA_MAX:g}, {KAPPA_MAX:g}]"),
        "budget": (int, "200000", lambda v: v > 0, "must be positive"),
    },
}


def _check_names(cp):
    """Reject sections and keys outside SCHEMA, naming section.key."""
    for key in cp.defaults():
        raise ConfigError(f"{cp.default_section}.{key}: unknown section; "
                          f"sections are {', '.join(SCHEMA)}")
    for name in cp.sections():
        keys = cp.options(name)
        if name not in SCHEMA:
            where = f"{name}.{keys[0]}" if keys else name
            raise ConfigError(f"{where}: unknown section [{name}]; "
                              f"sections are {', '.join(SCHEMA)}")
        for key in keys:
            if key not in SCHEMA[name]:
                raise ConfigError(f"{name}.{key}: unknown key; [{name}] "
                                  f"takes {', '.join(SCHEMA[name])}")


class ExperimentConfig:
    """Every SCHEMA value of one config file, parsed and range-checked."""

    def __init__(self, path):
        # no interpolation: a '%' in a value is a character, not a reference
        cp = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                cp.read_file(fh, source=str(path))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"parse error: {exc}") from exc
        _check_names(cp)
        for name, keys in SCHEMA.items():
            given = cp[name] if cp.has_section(name) else {}
            values = {}
            for key, (parse, default, ok, message) in keys.items():
                text = given.get(key, default)
                try:
                    values[key] = None if text is None else parse(text)
                except (ValueError, ConfigError) as exc:
                    raise ConfigError(f"{name}.{key}: {exc}") from exc
                if ok is not None and text is not None and not ok(values[key]):
                    raise ConfigError(f"{name}.{key}: {message}")
            if name == "common":
                vars(self).update(values)
            else:
                setattr(self, name, SimpleNamespace(**values))
        if self.kernel.levels is None:
            self.kernel.levels = list(range(max(2, self.level - 2),
                                            self.level + 1))
        # both bases carry a radius in the graph band of the level's
        # icosphere, 10 * 4^level + 2 nodes
        band = spectral.graph_band(10 * 4 ** self.level + 2)
        for name in ("sweep", "curvature"):
            family = getattr(self, name).family
            if family[0] == "harmonic" and family[1] > band:
                raise ConfigError(
                    f"{name}.family: harmonic degree {family[1]} exceeds "
                    f"band {band} of the level-{self.level} directions")

    @property
    def unit_sphere(self):
        """The integrand is constant:1, so the base is the unit sphere."""
        return (self.integrand.family == "constant"
                and self.integrand.params["value"] == 1.0)
