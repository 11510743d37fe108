"""Seeded mutation fuzzing of every parser that reads input from outside.

Each mutant of a well-formed file (a truncation, a few flipped bytes or two
swapped fields) must either load or raise CsrtError, never another
exception. Each bad flag or config-file value, a size above its key's
bound included, must fail the command with its one-line diagnostic before
it creates an output directory, and in-range generation settings must
either write a corpus that loads or fail the same way. The draws use only
the standard library's seeded `random`.
"""

import dataclasses
import random
import re

import numpy as np
import pytest

from csrt import config
from csrt.cli import COMMANDS, run
from csrt.data import CorpusSpec, gen_corpus, load_corpus
from csrt.errors import CsrtError
from csrt.model import Architecture, Checkpoint, Model, load_checkpoint, save_checkpoint
from csrt.training import TrainState, _finish_checkpoint, start_from

MUTANTS = 300  # per file


def truncate(rng, raw, binary):
    return raw[: rng.randrange(len(raw))]


def flip_bytes(rng, raw, binary):
    out = bytearray(raw)
    for _ in range(rng.randint(1, 4)):
        out[rng.randrange(len(out))] ^= rng.randint(1, 255)
    return bytes(out)


def swap_fields(rng, raw, binary):
    """Swap two 4-byte words of a binary file, or two delimited fields of a text file."""
    if binary:
        i, j = sorted(rng.sample(range(0, len(raw) - 3, 4), 2))
        return raw[:i] + raw[j : j + 4] + raw[i + 4 : j] + raw[i : i + 4] + raw[j + 4 :]
    parts = re.split(rb"([\t\n :=])", raw)
    i, j = rng.sample(range(0, len(parts), 2), 2)
    parts[i], parts[j] = parts[j], parts[i]
    return b"".join(parts)


MUTATIONS = (truncate, flip_bytes, swap_fields)


def column_of(table, column):
    """The cells of one column of a tab-separated text table, one a line."""
    return b"\n".join(row.split(b"\t")[column] for row in table.rstrip(b"\n").split(b"\n"))


def with_column(table, column, cells):
    """`table` with its `column` replaced, line by line, by the lines of `cells` (a missing
    line leaves an empty cell, an extra one is dropped)."""
    rows = [row.split(b"\t") for row in table.rstrip(b"\n").split(b"\n")]
    for row, cell in zip(rows, cells.split(b"\n") + [b""] * len(rows)):
        row[column] = cell
    return b"".join(b"\t".join(row) + b"\n" for row in rows)


def fuzz(path, load, seed, binary=False, column=None):
    """Write MUTANTS mutants of `path` in turn, calling load() on each; restore it after.
    With `column`, only that column of a tab-separated table is mutated."""
    original = path.read_bytes()
    target = original if column is None else column_of(original, column)
    rng = random.Random(seed)
    try:
        for i in range(MUTANTS):
            mutate = MUTATIONS[i % len(MUTATIONS)]
            mutant = mutate(rng, target, binary)
            path.write_bytes(mutant if column is None else with_column(original, column, mutant))
            try:
                load()
            except CsrtError:
                pass
            except Exception as exc:
                where = path.name if column is None else f"{path.name} column {column}"
                pytest.fail(f"{where} mutant {i} ({mutate.__name__}, seed {seed}): "
                            f"{type(exc).__name__}: {exc}")
    finally:
        path.write_bytes(original)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-corpus")
    gen_corpus(CorpusSpec(train_count=2, dev_count=1, test_count=1, seed=4), root)
    return root


# target: (file, column or None for the whole file). The surfaces and spans columns of
# utts.tsv are also fuzzed alone, so that mutants which keep a line's three fields reach the
# surface and span parsers; those two targets carry the names of the tables they replaced.
CORPUS_TARGETS = {
    "vocab.tsv": ("vocab.tsv", None),
    "train-cs/utts.tsv": ("train-cs/utts.tsv", None),
    "train-cs/transcripts.tsv": ("train-cs/utts.tsv", 1),
    "train-cs/spans.tsv": ("train-cs/utts.tsv", 2),
    "train-cs/feats.csft": ("train-cs/feats.csft", None),
}


@pytest.mark.parametrize("seed, target", enumerate(CORPUS_TARGETS))
def test_corpus_mutants_load_or_raise_csrt_error(corpus_dir, seed, target):
    rel, column = CORPUS_TARGETS[target]
    fuzz(corpus_dir / rel, lambda: load_corpus(corpus_dir), seed,
         binary=rel.endswith(".csft"), column=column)


def test_checkpoint_mutants_load_or_raise_csrt_error(tmp_path):
    arch = Architecture(family="dual", input_dim=2, hidden_dim=2, encoder_layers=1,
                        encoder_mixing="recurrent", embed_dim=2, decoder_dim=2, joint_dim=2,
                        n_m=2, n_e=2)
    blocks = dict(Model(arch, seed=0).params)
    blocks["state.step"] = np.array(3.0)
    path = tmp_path / "ck.csrt"
    save_checkpoint(path, Checkpoint(arch.fingerprint(), blocks))

    def load():
        ck = load_checkpoint(path)
        Model(ck.architecture(), params=ck.model_params())

    fuzz(path, load, seed=10, binary=True)


def test_resume_state_mutants_resume_or_raise_csrt_error(tmp_path):
    arch = Architecture(family="dual", input_dim=1, hidden_dim=1, encoder_layers=1,
                        encoder_mixing="conv", embed_dim=1, decoder_dim=1, joint_dim=1,
                        n_m=1, n_e=1)
    path = tmp_path / "ck.csrt"
    ck = _finish_checkpoint(Model(arch, seed=0), TrainState(step=3, epoch=1), "pretrain")
    ck.blocks["state.batch"] = np.array(0.0)  # older versions wrote it; resume checks it is 0
    save_checkpoint(path, ck)

    def resume():
        _, st = start_from(load_checkpoint(path), arch, "pretrain", resume=True)
        assert all(type(v) is int and v >= 0 for v in (st.step, st.epoch))

    fuzz(path, resume, seed=40, binary=True)
    # Byte mutants seldom land in the few state bytes, so also redraw one state block's value.
    rng = random.Random(41)
    values = (None, [0.0, 0.0], [1.0], -2.0, -0.5, 0.5, 1.0, 2.0, 7.0, 1e300)
    for i in range(MUTANTS):
        blocks = dict(ck.blocks)
        name = rng.choice(sorted(k for k in blocks if k.startswith("state.")))
        value = rng.choice(values)
        if value is None:
            del blocks[name]
        else:
            blocks[name] = np.array(value)
        save_checkpoint(path, Checkpoint(ck.fingerprint, blocks))
        try:
            resume()
        except CsrtError:
            pass
        except Exception as exc:
            pytest.fail(f"state mutant {i} ({name} = {value!r}): {type(exc).__name__}: {exc}")


def test_config_mutants_load_or_raise_csrt_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(config.serialize_config(config.defaults()), encoding="utf-8")
    fuzz(path, lambda: config.load_config(path), seed=20)


FLAG_DRAWS = 200
# Bad texts by kind of key: non-numeric, non-integer, below range (every
# numeric range starts at 0 or above), non-finite, empty, not a choice.
INT_TEXTS = ("x", "1O", "1.5", "-1", "-5", "nan", "inf", "")
FLOAT_TEXTS = ("x", "-1", "-5", "nan", "inf", "-inf", "")
CHOICE_TEXTS = ("bogus", "")


def bad_texts(key):
    convert, default, _ = config.REGISTRY[key]
    if isinstance(default, bool):  # a switch takes no value
        return ()
    if isinstance(default, int):
        return INT_TEXTS
    if isinstance(default, float):
        return FLOAT_TEXTS
    return () if convert is str else CHOICE_TEXTS  # free text (a path or a name) takes anything


@pytest.fixture(scope="module")
def run_inputs(tmp_path_factory):
    """A corpus and a pretrained checkpoint the fuzzed commands could otherwise run on."""
    root = tmp_path_factory.mktemp("flag-fuzz")
    small = ["--epochs", "1", "--hidden-dim", "4", "--embed-dim", "4", "--decoder-dim", "4",
             "--joint-dim", "4"]
    assert run(["gen-data", "--out", str(root / "data"), "--train-count", "2", "--dev-count", "1",
                "--test-count", "1"]) == 0
    assert run(["pretrain", "--data", str(root / "data"), "--out", str(root / "pre")] + small) == 0
    valid = {
        "gen-data": ["--train-count", "2", "--dev-count", "1", "--test-count", "1"],
        "pretrain": ["--data", str(root / "data")] + small,
        "finetune": ["--data", str(root / "data"), "--init", str(root / "pre")] + small,
    }
    for command in ("decode", "eval", "eval-ls"):
        valid[command] = ["--data", str(root / "data"), "--model", str(root / "pre")]
    return valid


def _fails_before_writing(i, command, key, text, in_file, run_inputs, tmp_path, capsys):
    """Run `command` with `key` set to the bad `text` by flag or config file: it must exit 1
    (flag) or 2 (file) with its one-line diagnostic, and create no output directory."""
    out = tmp_path / f"out{i}"
    argv = [command] + run_inputs.get(command, [])
    if "out" in COMMANDS[command][1]:
        argv += ["--out", str(out)]
    if in_file:
        cfg = tmp_path / f"run{i}.cfg"
        cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    else:
        argv.append(f"--{key}={text}")
    code = run(argv)
    err = capsys.readouterr().err.splitlines()
    where = f"draw {i}: {command} {key} = {text!r} ({'config file' if in_file else 'flag'})"
    if in_file:
        assert code == 2 and len(err) == 1, f"{where}: exit {code}, stderr {err}"
        assert err[0].startswith(f"error: {cfg}:1: bad value for '{key}'"), f"{where}: {err}"
    else:
        assert code == 1 and err, f"{where}: exit {code}, stderr {err}"
        assert err[0].startswith(f"usage error: bad value for '{key}'"), f"{where}: {err}"
    assert not out.exists(), f"{where}: created {out}"


def test_bad_flag_values_fail_before_writing(run_inputs, tmp_path, capsys):
    rng = random.Random(30)
    draws = {c: [k for k in keys if bad_texts(k)] for c, (_, keys) in COMMANDS.items()}
    draws = {c: keys for c, keys in draws.items() if keys}
    for i in range(FLAG_DRAWS):
        command = rng.choice(sorted(draws))
        key = rng.choice(draws[command])
        _fails_before_writing(i, command, key, rng.choice(bad_texts(key)), rng.random() < 0.5,
                              run_inputs, tmp_path, capsys)


ABOVE_DRAWS = 100
# The keys that size what a command allocates; each states an upper bound in its range.
SIZE_KEYS = {"units-per-language", "feature-dim", "frames-min", "frames-max", "utt-units-min",
             "utt-units-max", "cs-spans-max", "train-count", "dev-count", "test-count",
             "hidden-dim", "encoder-layers", "embed-dim", "decoder-dim", "joint-dim"}
# Above every bound; refused by the converter before anything is allocated.
ABOVE_TEXTS = ("100001", "1000000000000", "1" + "0" * 30)


def test_above_range_sizes_fail_before_writing(run_inputs, tmp_path, capsys):
    int_keys = [k for k, (_, default, _) in config.REGISTRY.items() if type(default) is int]
    assert {k for k in int_keys if not _accepted(k, ABOVE_TEXTS[0])} == SIZE_KEYS
    rng = random.Random(31)
    draws = {c: sorted(SIZE_KEYS.intersection(keys)) for c, (_, keys) in COMMANDS.items()}
    draws = {c: keys for c, keys in draws.items() if keys}
    for i in range(ABOVE_DRAWS):
        command = rng.choice(sorted(draws))
        _fails_before_writing(i, command, rng.choice(draws[command]), rng.choice(ABOVE_TEXTS),
                              rng.random() < 0.5, run_inputs, tmp_path, capsys)


GEN_DRAWS = 100
# Texts for each corpus-generation key, some below its range and some whose frames overflow
# float32; a draw takes only the texts config.REGISTRY accepts, so every value is in range.
GEN_TEXTS = {
    "units-per-language": ("1", "2", "3", "6"),
    "feature-dim": ("1", "2", "5"),
    "frames-min": ("1", "2", "3", "5"),
    "frames-max": ("1", "2", "4", "6"),
    "noise-sigma": ("0", "0.1", "0.5", "3", "1e39", "1e308"),
    "utt-units-min": ("0", "1", "2", "3", "5"),
    "utt-units-max": ("1", "2", "3", "6", "9"),
    "cs-spans-max": ("1", "2", "4", "9"),
    "cs-matrix-fraction": ("0.01", "0.1", "0.5", "0.7", "0.99"),
    "cross-lingual-offset": ("0", "0.5", "2", "5", "1e39", "1.7e308"),
    "train-count": ("1", "2"),
    "dev-count": ("1", "2"),
    "test-count": ("1", "2"),
    "seed": ("0", "1", "99", "4294967295"),
}


def _accepted(key, text):
    try:
        config.convert(key, text)
    except CsrtError:
        return False
    return True


def test_in_range_generation_settings_generate_or_fail_cleanly(tmp_path, capsys):
    """gen-data with in-range values either writes a corpus that loads, or fails with one
    line (a cross-key conflict or unrepresentable frames) and writes nothing."""
    assert set(GEN_TEXTS) == {config.key_of(f.name) for f in dataclasses.fields(CorpusSpec)}
    texts = {key: [t for t in options if _accepted(key, t)] for key, options in GEN_TEXTS.items()}
    rng = random.Random(53)
    for i in range(GEN_DRAWS):
        out = tmp_path / f"out{i}"
        drawn = [(key, rng.choice(options)) for key, options in texts.items()
                 if key.endswith("-count") or rng.random() < 0.5]  # others keep their default
        code = run(["gen-data", "--out", str(out)] + [f"--{k}={t}" for k, t in drawn])
        err = capsys.readouterr().err.splitlines()
        where = f"draw {i}: {' '.join(f'{k}={t}' for k, t in drawn)}"
        if code == 0:
            assert not err, f"{where}: stderr {err}"
            load_corpus(out)
        else:
            assert code == 2 and len(err) == 1, f"{where}: exit {code}, stderr {err}"
            assert err[0].startswith("error: ") and not out.exists(), f"{where}: {err}"
