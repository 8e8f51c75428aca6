from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkmlab.config import FLAG_KEYS, OUTPUT_DIR_ENV, ExperimentConfig, load_config
from kkmlab.errors import ConfigError

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "risk_scan.cfg"

# every section and its keys, as the loader reads them
SCHEMA = {name: [f.name for f in fields(cls)]
          for name, cls in get_type_hints(ExperimentConfig).items()}


def test_demo_config_loads():
    cfg = load_config(DEMO_CONFIG)
    assert cfg.run.master_seed == 42 and cfg.run.output_dir == Path("out")
    assert cfg.kernel.family == "gaussian" and cfg.data.spread == 1.2
    assert cfg.nystrom.mode == "general" and cfg.cluster.rel_tol == 1e-9
    assert cfg.lab.grid == [(2, 4), (2, 8), (4, 8), (4, 16)]
    assert cfg.sweep.n_values == [64, 128, 256] and cfg.sweep.methods == ["exact", "nystrom"]
    assert cfg.sweep.reps == 25 and cfg.sweep.m_fixed is None


def test_unset_keys_take_the_defaults(tmp_path):
    path = tmp_path / "min.cfg"
    path.write_text("[run]\nmaster_seed = 3\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.kernel.family == "gaussian" and cfg.cluster.rounds is None
    assert cfg.lab.grid == [(2, 4), (2, 8), (4, 8)] and cfg.run.workers == 1


def test_grid_k_stops_at_the_exact_class_limit(tmp_path):
    # 2^16 center sets is the largest class rad-check may list
    path = tmp_path / "lab.cfg"
    path.write_text("[lab]\ngrid = 16x16\n\n[run]\nmaster_seed = 3\n", encoding="utf-8")
    assert load_config(path).lab.grid == [(16, 16)]
    path.write_text("[lab]\ngrid = 2x4, 17x17\n\n[run]\nmaster_seed = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"\[lab\] grid must be .* k <= 16"):
        load_config(path)


def test_flag_beats_environment_beats_file(tmp_path, monkeypatch):
    path = tmp_path / "exp.cfg"
    path.write_text("[nystrom]\nmode = general\n\n[data]\ninline = 50% of 2\n\n"
                    "[run]\nmaster_seed = 3\noutput_dir = file\n", encoding="utf-8")
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    cfg = load_config(path)
    assert cfg.run.output_dir == Path("file") and cfg.data.inline == "50% of 2"
    monkeypatch.setenv(OUTPUT_DIR_ENV, "env")
    assert load_config(path).run.output_dir == Path("env")
    cfg = load_config(path, {"output_dir": "flag", "m": 7, "seed": 9, "k": None})
    assert cfg.run.output_dir == Path("flag") and cfg.run.master_seed == 9
    assert cfg.nystrom.m == 7 and cfg.nystrom.mode == "fixed" and cfg.cluster.k == 2


@pytest.mark.parametrize("raw, value", [("1", True), ("True", True), ("yes", True), ("ON", True),
                                        ("0", False), ("false", False), ("No", False), ("off", False)])
def test_bool_reads_its_eight_words(tmp_path, raw, value):
    path = tmp_path / "exp.cfg"
    path.write_text(f"[kernel]\nnormalize = {raw}\n\n[run]\nmaster_seed = 3\n", encoding="utf-8")
    assert load_config(path).kernel.normalize is value


def test_every_flag_sets_a_schema_key():
    for section, key in FLAG_KEYS.values():
        assert key in SCHEMA[section]


_VALUE = st.sampled_from([
    "", "0", "1", "-1", "3", "24", "1.5", "nan", "inf", "2%", "%(k)s", "2x4", "2x4, 4x8",
    "0x4", "2x", "x", "24,", "true", "exact, nystrom", "bogus", "fixed", "general", "csv",
    "inline", "polynomial", "linear", "1 2; 3 4",
]) | st.text(alphabet=" ,x0123456789.-%aenf;#", max_size=12)


@st.composite
def _config_text(draw):
    """INI text over the schema's sections and keys, with an unknown one now and then."""
    names = draw(st.lists(st.sampled_from(list(SCHEMA)), max_size=4, unique=True))
    if draw(st.integers(0, 3)) == 3:
        names.append(draw(st.sampled_from(["DEFAULT", "clusterr"])))
    text = ""
    for name in dict.fromkeys([*names, "run"]):
        keys = st.sampled_from([*SCHEMA.get(name, []), "kk"])
        body = draw(st.dictionaries(keys, _VALUE, max_size=3))
        if name == "run" and draw(st.integers(0, 3)) < 3:  # most draws pass the seed check
            body["master_seed"] = "42"
        text += f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
    return text


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"


@settings(max_examples=300, deadline=None)
@given(text=_config_text(),
       flags=st.dictionaries(st.sampled_from(sorted(FLAG_KEYS)), _VALUE, max_size=2))
def test_any_config_text_loads_or_raises_config_error(fuzz_path, text, flags):
    fuzz_path.write_text(text, encoding="utf-8")
    try:
        assert isinstance(load_config(fuzz_path, flags), ExperimentConfig)
    except ConfigError as exc:
        assert "\n" not in str(exc)
