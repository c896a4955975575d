"""Round trips and line-edit fuzzing of the four text formats: tabular
problems (`save_tabular`/`load_tabular`), checkpoints
(`write_arrays`/`read_arrays`, with `policy_from_arrays` as the actor
loader), value-vector files (`write_vectors`/`read_vectors`) and run
configs (`serialize_config`/`parse_config_text`, with `RunConfig.from_dict`
as the loader).

A round trip reproduces its input exactly: the same shapes, and every
float with the same repr. An edited file either loads into a valid,
all-finite object or raises its format's own error.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from morlkit.cli import VectorFileError, read_vectors, write_vectors
from morlkit.config import ConfigError, RunConfig, parse_config_text, serialize_config
from morlkit.envs import (
    TabularFormatError,
    TabularMomdp,
    load_tabular,
    random_tabular_momdp,
    save_tabular,
)
from morlkit.nets import (
    CheckpointFormatError,
    GaussianPolicyParams,
    mlp_init,
    policy_from_arrays,
    policy_param_list,
    policy_to_arrays,
    read_arrays,
    write_arrays,
)

ROUND_TRIPS = settings(max_examples=50, deadline=None)
FUZZ = settings(max_examples=150, deadline=None)

# Replacement tokens for the fuzzer: numbers at and past every range
# boundary, non-numbers and a comment marker.
TOKENS = (
    "nan", "-nan", "inf", "-inf", "1e400", "1e-320", "-1", "-0.0", "0", "0.5", "1", "2", "1.5",
    "x", "#", "array",
)
EDITS = ("delete", "duplicate", "swap", "cut", "token", "insert")


def reprs(values) -> list[str]:
    """Each float's repr: equal lists mean equal floats, zero signs included."""
    return [repr(float(x)) for x in np.ravel(values)]


def edit_lines(data, text: str) -> str:
    """text after 1-3 random line edits: delete, duplicate or swap a line,
    cut it short, replace one of its tokens, or insert a line of tokens."""
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, len(lines)))
        op = data.draw(st.sampled_from(EDITS))
        if op == "insert" or k == len(lines):
            lines.insert(k, " ".join(data.draw(st.lists(st.sampled_from(TOKENS), max_size=4))))
        elif op == "delete":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        elif op == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        else:
            tokens = lines[k].split()
            if op == "cut":
                tokens = tokens[: data.draw(st.integers(0, len(tokens)))]
            elif tokens:
                tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(st.sampled_from(TOKENS))
            lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def finite_floats():
    return st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def problems(draw):
    """A random problem with 1-3 states, actions and objectives, arbitrary
    finite rewards, any discount in [0, 1) and any terminal states."""
    shape = tuple(draw(st.integers(1, 3)) for _ in range(3))
    base = random_tabular_momdp(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), *shape)
    rewards = draw(arrays(np.float64, base.rewards.shape, elements=finite_floats()))
    discount = draw(st.floats(0.0, 1.0, exclude_max=True))
    terminal = np.array(draw(st.lists(st.booleans(), min_size=shape[0], max_size=shape[0])))
    return TabularMomdp(base.transitions, rewards, base.initial, discount, terminal)


@ROUND_TRIPS
@given(problems())
def test_problem_file_round_trip(m):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.momdp"
        save_tabular(m, path)
        loaded = load_tabular(path)
    assert repr(loaded.discount) == repr(m.discount)
    for name in ("transitions", "rewards", "initial", "terminal"):
        a, b = getattr(loaded, name), getattr(m, name)
        assert a.shape == b.shape and reprs(a) == reprs(b), name


@ROUND_TRIPS
@given(
    st.dictionaries(
        st.text(min_size=0, max_size=6),
        arrays(np.float64, st.lists(st.integers(0, 3), max_size=3).map(tuple)),
        max_size=4,
    )
)
def test_checkpoint_round_trip(named):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.ckpt"
        if any(name.split() != [name] for name in named):
            with pytest.raises(ValueError, match="bad array name"):
                write_arrays(path, named)
            return
        write_arrays(path, named)
        loaded = read_arrays(path)
    assert sorted(loaded) == sorted(named)
    for name, a in named.items():
        assert loaded[name].shape == a.shape and reprs(loaded[name]) == reprs(a), name


@pytest.mark.parametrize("name", ["", "a\tb", "a\rb", "a\x0bb", "a\u2028b"])
def test_unreadable_array_name_rejected_on_write(tmp_path, name):
    # Found by the round trip above: read_arrays splits headers and lines on
    # any whitespace, so such a name was written but could not be read back.
    with pytest.raises(ValueError, match="bad array name"):
        write_arrays(tmp_path / "a.ckpt", {name: np.zeros(1)})


@ROUND_TRIPS
@given(st.integers(1, 4).flatmap(lambda d: st.lists(st.tuples(*[finite_floats()] * d), max_size=5)))
def test_vector_file_round_trip(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.txt"
        write_vectors(rows, path)
        loaded = read_vectors(path, len(rows[0]) if rows else 1)
    assert [reprs(v.values) for v in loaded] == [reprs(row) for row in rows]


@FUZZ
@given(st.data())
def test_edited_problem_file_loads_or_is_rejected(data):
    terminal = np.array([False, False, True])
    m = random_tabular_momdp(np.random.default_rng(0), 3, 2, 2)
    m = TabularMomdp(m.transitions, m.rewards, m.initial, 0.9, terminal)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.momdp"
        save_tabular(m, path)
        path.write_text(edit_lines(data, path.read_text()))
        try:
            loaded = load_tabular(path)
        except TabularFormatError:
            return
    assert 0.0 <= loaded.discount < 1.0
    assert all(np.isfinite(a).all() for a in (loaded.transitions, loaded.rewards, loaded.initial))


@FUZZ
@given(st.data())
def test_edited_checkpoint_loads_or_is_rejected(data):
    rng = np.random.default_rng(0)
    policy = GaussianPolicyParams(mlp_init([3, 4, 2], rng), rng.normal(size=2))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "actor.ckpt"
        write_arrays(path, policy_to_arrays(policy))
        path.write_text(edit_lines(data, path.read_text()))
        try:
            loaded = policy_from_arrays(read_arrays(path))
        except CheckpointFormatError:
            return
    assert all(np.isfinite(a).all() for a in policy_param_list(loaded))


@FUZZ
@given(st.data())
def test_edited_vector_file_loads_or_is_rejected(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ccs.txt"
        write_vectors([(10.288, -3.71), (2.85, -1.95), (0.0, -0.5)], path)
        path.write_text(edit_lines(data, path.read_text()))
        try:
            loaded = read_vectors(path, 2)
        except VectorFileError:
            return
    assert all(v.dim == 2 and np.isfinite(v.array).all() for v in loaded)


CONFIG = Path(__file__).parent.parent / "configs" / "treasure.cfg"
# Keys for inserted and renamed lines: every section the readers know, a
# retired key, one the readers reject by name and one no reader knows.
CONFIG_KEYS = (
    "seed", "trainer.objective_count", "trainer.steps_per_update", "trainer.discount",
    "trainer.learning_rate", "trainer.hidden_sizes", "trainer.seed", "trainer.aols_epsilon",
    "env.kind", "env.width", "env.start", "env.treasures", "env.step_penalty", "env.path",
    "env.objective_index", "qa.0.name", "qa.1.name", "qa.0.direction", "qa.0.precision",
    "explain.0.increment", "explain.1.max_alternatives", "bench.objective_index",
    "bench.episodes", "env.widht",
)
# Values for edited lines: small numbers at and past every range boundary
# (no grid large enough to cost memory), non-numbers, lists and kinds.
CONFIG_VALUES = TOKENS + (
    "", "-5", "20", "0,0", "2,2", "3,x", "1,2,3.0", "0,2,3.0;2,2,12.0", "0,0,1.0", ";",
    "treasure", "locomotion", "tabular", "maximize", "minimize", "a b", "=",
)
CONFIG_EDITS = ("delete", "duplicate", "swap", "cut", "value", "key", "insert")


def line_texts():
    """One line of text, without surrounding whitespace or line breaks."""
    return st.text(max_size=8).map(str.strip).filter(lambda t: "".join(t.splitlines()) == t)


@ROUND_TRIPS
@given(
    st.dictionaries(
        line_texts().filter(lambda k: k and "=" not in k and not k.startswith("#")),
        line_texts(),
        max_size=6,
    )
)
def test_config_round_trip(cfg):
    assert parse_config_text(serialize_config(cfg)) == cfg


def edit_config_lines(data, text: str) -> str:
    """text after 1-3 random line edits: delete, duplicate or swap a line,
    cut it short, replace its value or key, or insert a key=value line."""
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, len(lines)))
        op = data.draw(st.sampled_from(CONFIG_EDITS))
        if op == "insert" or k == len(lines):
            key, value = data.draw(st.sampled_from(CONFIG_KEYS)), data.draw(st.sampled_from(CONFIG_VALUES))
            lines.insert(k, f"{key}={value}")
        elif op == "delete":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        elif op == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        elif op == "cut":
            lines[k] = lines[k][: data.draw(st.integers(0, len(lines[k])))]
        else:
            key, _, value = lines[k].partition("=")
            if op == "value":
                value = data.draw(st.sampled_from(CONFIG_VALUES))
            else:
                key = data.draw(st.sampled_from(CONFIG_KEYS))
            lines[k] = f"{key}={value}"
    return "\n".join(lines) + "\n"


@FUZZ
@given(st.data())
def test_edited_config_loads_or_is_rejected(data):
    text = edit_config_lines(data, CONFIG.read_text())
    try:
        run = RunConfig.from_dict(parse_config_text(text, source="edited.cfg"))
    except ConfigError:
        return
    assert run.env_factory().objective_count == run.trainer.objective_count
