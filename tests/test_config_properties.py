"""Property tests: bad config values surface as ConfigError and nothing else."""

import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from iontrap.cli import _FULL_KEYS, _REDUCED_KEYS, parse_config
from iontrap.experiments import ConfigError, Options

# A fixed seed and no example database keep the suite deterministic.
# Hypothesis still caches unicode tables and source constants on disk, from
# test collection on, so its home moves out of the working tree.
DETERMINISTIC = settings(database=None, derandomize=True, deadline=None)
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "iontrap-hypothesis")

# every spelling float() accepts (nan, inf, huge, subnormal), plus any text
VALUES = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
)
PARAMS = st.one_of(*(st.fixed_dictionaries({key: VALUES for key in keys})
                     for keys in (_FULL_KEYS, _REDUCED_KEYS)))


@DETERMINISTIC
@example(params={"nu": "1", "delta_breve": "1", "eta_breve": "1e200",
                 "lambda": "1"})
@example(params={"nu": "-1", "omega_ge": "1.9", "omega_l": "1",
                 "omega_r": "0.25", "eta": "0.1"})
@given(params=PARAMS)
def test_parse_config_raises_only_config_error(tmp_path_factory, params):
    path = tmp_path_factory.getbasetemp() / "property.ini"
    lines = ["[params]"] + [f"{key} = {value}" for key, value in params.items()]
    path.write_text("\n".join(lines) + "\n[experiment]\nname = spectrum\n",
                    encoding="utf-8")
    try:
        cfg = parse_config(str(path))
    except ConfigError:
        return
    assert cfg.experiment == "spectrum"


@DETERMINISTIC
@given(raw=st.one_of(VALUES, st.lists(VALUES, max_size=4).map(",".join)))
def test_options_getters_return_finite_values(raw):
    for getter in ("get_float", "get_int", "get_floats", "get_ints"):
        try:
            value = getattr(Options({"key": raw}), getter)("key", ())
        except ConfigError:
            continue
        values = value if isinstance(value, tuple) else (value,)
        assert all(math.isfinite(v) for v in values)
