import configparser
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import wulffstab
from wulffstab.config import SCHEMA, ConfigError, ExperimentConfig

README = os.path.join(os.path.dirname(__file__), "..", "README.md")

KEYS = [(section, key) for section, keys in SCHEMA.items() for key in keys]

ITEMS = ["0", "1", "2", "5", "0.5", "1e-3", "-1", "-0.25", "1e300", "nan",
         "inf", "-inf", "x", ""]

# finite, huge, negative, nan/inf, empty, list and garbage tokens; a
# geometric sweep.amplitudes count above 100 is rejected before
# np.geomspace allocates anything.
TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.lists(st.sampled_from(ITEMS), max_size=5).map(",".join),
    st.sampled_from(["harmonic:2,0", "harmonic:12,0", "harmonic:2,-3",
                     "kernel:1,0,0", "kernel:0,0,0", "constant:2",
                     "quadratic:1,1,4", "fourier:1,0.9,2,0", "spline:1",
                     "1e-4,1e-2,6", "1e-3,1e-2,1e300", "1e-4,1e-2,1e9",
                     "0.01;0.02", "%(x)s"]),
    st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=12),
)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(where=st.sampled_from(KEYS), token=TOKENS)
def test_any_token_is_accepted_or_rejected_by_name(tmp_path_factory, where,
                                                   token):
    """One key set to any token: the config is either accepted or rejected
    with a ConfigError that names that key; no other exception escapes."""
    section, key = where
    path = tmp_path_factory.mktemp("fuzz") / "exp.ini"
    path.write_text(f"[{section}]\n{key} = {token}\n", encoding="utf-8")
    try:
        ExperimentConfig(path)
    except ConfigError as exc:
        assert str(exc).startswith(f"{section}.{key}"), str(exc)


def test_undecodable_config_exits_2(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_bytes(b"[common]\nlevel = \xff\n")
    with pytest.raises(ConfigError, match="parse error"):
        ExperimentConfig(path)


def test_readme_config_block_matches_schema(tmp_path):
    """The ini block under README's "Config format", written verbatim,
    loads through ExperimentConfig and names exactly the sections and keys
    of SCHEMA."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read().split("## Config format", 1)[1]
    block = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block, encoding="utf-8")
    ExperimentConfig(path)
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(block)
    assert {name: set(cp[name]) for name in cp.sections()} == {
        name: set(keys) for name, keys in SCHEMA.items()}


def test_readme_library_tour_runs():
    """The python block under README's "Library tour" runs as written, in
    a fresh interpreter that turns every warning into an error."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read().split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    src = os.path.dirname(os.path.dirname(wulffstab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-W", "error", "-c", block],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
