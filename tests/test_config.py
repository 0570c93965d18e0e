"""The run config: every ``REPRO_*`` setting, one table, one parser.

Each declared variable is checked for its default, one good value and
one bad value that must fail as a :class:`ConfigError` naming it; the
flag-only settings the same way through their flags.  The rest pins
the shared rules: one set of on/off words, a flag beats its variable,
an empty variable is unset, and an undeclared ``REPRO_*`` name is an
error rather than silently ignored.
"""

import importlib
import re
from pathlib import Path

import pytest

from repro.config import (
    ENV_NAMES,
    OFF_WORDS,
    ON_WORDS,
    SETTINGS,
    SMALL,
    TINY,
    ConfigError,
    RunConfig,
    env_value,
    get_scale,
    resolve_config,
)
from repro.exec.faults import FaultPlan, parse_fault_spec

#: variable -> (field, default, good text, its value, bad text)
ENV_CASES = {
    "REPRO_SCALE": ("scale", SMALL, "tiny", TINY, "huge"),
    "REPRO_JOBS": ("jobs", 1, "5", 5, "many"),
    "REPRO_CACHE_DIR": ("cache_dir", ".repro-cache", "/tmp/c", "/tmp/c",
                        "yes"),
    "REPRO_TELEMETRY": ("telemetry", False, "1", True, "bogus"),
    "REPRO_HEARTBEAT": ("heartbeat", None, "0.2", 0.2, "abc"),
    "REPRO_MANIFEST_FSYNC": ("manifest_fsync", False, "yes", True, "maybe"),
    "REPRO_FAULT_INJECT": ("fault_inject", None, "raise:every=5",
                           FaultPlan(parse_fault_spec("raise:every=5")),
                           "explode"),
    "REPRO_STAGE2_KERNEL": ("stage2_kernel", True, "off", False,
                            "reference"),
}

#: flag -> (field, default, good value, its value, bad value)
FLAG_CASES = {
    "--on-error": ("on_error", "collect", "raise", "raise", "ignore"),
    "--retries": ("retries", 0, 2, 2, -1),
    "--cell-timeout": ("cell_timeout", None, 30.0, 30.0, -5.0),
}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Tests run on the defaults, whatever the caller exported."""
    for name in ENV_NAMES:
        monkeypatch.delenv(name, raising=False)


class TestTable:
    def test_every_variable_has_a_case(self):
        assert set(ENV_CASES) == ENV_NAMES
        flag_only = {s.flag for s in SETTINGS if s.env is None}
        assert set(FLAG_CASES) == flag_only

    def test_table_matches_the_config_fields(self):
        assert [s.field for s in SETTINGS] == list(RunConfig.__annotations__)


class TestVariables:
    @pytest.mark.parametrize("name", sorted(ENV_CASES))
    def test_default(self, name):
        field, default, _, _, _ = ENV_CASES[name]
        assert getattr(resolve_config(), field) == default
        assert env_value(field) == default

    @pytest.mark.parametrize("name", sorted(ENV_CASES))
    def test_good_value(self, name, monkeypatch):
        field, _, text, value, _ = ENV_CASES[name]
        monkeypatch.setenv(name, text)
        assert getattr(resolve_config(), field) == value
        assert env_value(field) == value

    @pytest.mark.parametrize("name", sorted(ENV_CASES))
    def test_bad_value_names_the_variable(self, name, monkeypatch):
        field, _, _, _, bad = ENV_CASES[name]
        monkeypatch.setenv(name, bad)
        with pytest.raises(ConfigError, match=name):
            resolve_config()
        with pytest.raises(ConfigError, match=name):
            env_value(field)

    @pytest.mark.parametrize("name", sorted(ENV_CASES))
    def test_empty_is_unset(self, name, monkeypatch):
        field, default, _, _, _ = ENV_CASES[name]
        monkeypatch.setenv(name, "  ")
        assert getattr(resolve_config(), field) == default


class TestFlags:
    @pytest.mark.parametrize("flag", sorted(FLAG_CASES))
    def test_default_good_and_bad(self, flag):
        field, default, good, value, bad = FLAG_CASES[flag]
        assert getattr(resolve_config(), field) == default
        assert getattr(resolve_config({field: good}), field) == value
        with pytest.raises(ConfigError, match=flag):
            resolve_config({field: bad})

    @pytest.mark.parametrize("name,flag,field,env,given,expected", [
        ("REPRO_JOBS", "--jobs", "jobs", "5", 3, 3),
        ("REPRO_SCALE", "--scale", "scale", "paper", "tiny", TINY),
        ("REPRO_CACHE_DIR", "--cache-dir", "cache_dir", "/env", "off", None),
        ("REPRO_TELEMETRY", "--telemetry", "telemetry", "off", True, True),
    ])
    def test_flag_beats_its_variable(self, name, flag, field, env, given,
                                     expected, monkeypatch):
        monkeypatch.setenv(name, env)
        assert getattr(resolve_config({field: given}), field) == expected
        # An unset flag (None or "") defers to the variable.
        for unset in (None, ""):
            assert (getattr(resolve_config({field: unset}), field)
                    == getattr(resolve_config(), field))

    def test_bad_flag_beats_a_good_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        with pytest.raises(ConfigError, match="--jobs"):
            resolve_config({"jobs": "many"})

    def test_typed_zero_is_off(self):
        assert resolve_config({"cell_timeout": 0.0}).cell_timeout is None

    def test_jobs_zero_means_one_per_cpu(self):
        assert resolve_config({"jobs": 0}).jobs >= 1

    def test_unknown_flag_is_a_programming_error(self):
        with pytest.raises(TypeError):
            resolve_config({"heartbeat": 1.0})  # a variable, not a flag
        with pytest.raises(TypeError):
            resolve_config({"nonsense": 1})


class TestWords:
    @pytest.mark.parametrize("word", ON_WORDS + ("ON", " Yes "))
    def test_on_words(self, word, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", word)
        assert resolve_config().telemetry is True

    @pytest.mark.parametrize("word", OFF_WORDS + ("OFF", " None "))
    def test_off_words(self, word, monkeypatch):
        for name in ("REPRO_TELEMETRY", "REPRO_STAGE2_KERNEL",
                     "REPRO_CACHE_DIR", "REPRO_HEARTBEAT"):
            monkeypatch.setenv(name, word)
        config = resolve_config()
        assert config.telemetry is False
        assert config.stage2_kernel is False
        assert config.cache_dir is None
        assert config.heartbeat is None

    @pytest.mark.parametrize("flag,field", [
        ("--cache-dir", "cache_dir"), ("--cell-timeout", "cell_timeout"),
    ])
    def test_flags_take_the_same_off_words(self, flag, field):
        for word in OFF_WORDS:
            assert getattr(resolve_config({field: word}), field) is None

    @pytest.mark.parametrize("value", ["-1", "0.0", "soon"])
    def test_a_duration_is_positive_or_an_off_word(self, value,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", value)
        with pytest.raises(ConfigError, match="REPRO_HEARTBEAT"):
            resolve_config()


class TestNames:
    @pytest.mark.parametrize("name", [
        "REPRO_RETRIES", "REPRO_ARTIFACT_CACHE", "REPRO_EXEC_VERBOSE",
        "REPRO_HEARTBEAT_TIMEOUT", "REPRO_BACKEND", "REPRO_SCLAE",
        # Retired with the ssh workers and the shared store tier.
        "REPRO_SHARED_STORE", "REPRO_WORKERS", "REPRO_SSH_COMMAND",
        "REPRO_REMOTE_PYTHON", "REPRO_SSH_CONNECT_TIMEOUT",
    ])
    def test_undeclared_name_is_rejected(self, name, monkeypatch):
        monkeypatch.setenv(name, "1")
        with pytest.raises(ConfigError, match=name) as excinfo:
            resolve_config()
        assert "\n" not in str(excinfo.value)


def _resolves(name):
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(found, attr):
                return False
            found = getattr(found, attr)
        return True
    return False


class TestDocs:
    #: Files that tell people which variables to set.
    DOCUMENTS = (".github/workflows/ci.yml", "README.md", "DESIGN.md",
                 ".claude/skills/verify/SKILL.md")

    @pytest.mark.parametrize("document", DOCUMENTS)
    def test_documented_names_are_declared(self, document):
        text = (Path(__file__).resolve().parents[1] / document).read_text(
            encoding="utf-8")
        undeclared = set(re.findall(r"REPRO_[A-Z0-9_]+", text)) - ENV_NAMES
        assert sorted(undeclared) == []

    @pytest.mark.parametrize("document", ["README.md", "DESIGN.md"])
    def test_documented_code_exists(self, document):
        """Every backticked ``repro.*`` dotted name imports as a module
        or resolves as an attribute of the longest one that does."""
        text = (Path(__file__).resolve().parents[1] / document).read_text(
            encoding="utf-8")
        names = {name for span in re.findall(r"`([^`\n]+)`", text)
                 for name in re.findall(r"(?<![\w.])repro(?:\.\w+)+", span)}
        assert names
        assert sorted(name for name in names if not _resolves(name)) == []


class TestScale:
    def test_get_scale_by_name_and_default(self, monkeypatch):
        assert get_scale("paper").name == "paper"
        assert get_scale() is SMALL
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert get_scale() is TINY

    def test_unknown_scale_is_a_config_error(self):
        with pytest.raises(ConfigError, match="huge"):
            get_scale("huge")
