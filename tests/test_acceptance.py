"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The directional training criteria run two toy worlds end to end:

* the default world (independent language prototypes) for learnability,
  the three-encoder comparison, and the decoding checks;
* a cross-lingually confusable world (each E prototype 0.4 away from its
  M twin) where language leakage is structural, for the language-
  separation and fine-tuning-data directions.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import time

import numpy as np
import pytest

from csrt import autodiff as ad
from csrt.alignments import BLANK
from csrt.checks import full_model_grad_check, loss_grad_sweep, oracle_sweep
from csrt.config import resolved
from csrt.data import CorpusSpec, gen_corpus
from csrt.decoding import rnnt_decode
from csrt.losses import ctc_loss
from csrt.metrics import dump_frame_posteriors, eval_language_separation, evaluate_split
from csrt.model import Model
from csrt.training import TrainingConfig, arch_for, finetune, pretrain

SEPARATION_SEEDS = (1, 2, 3)


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def train_cfg(**overrides):
    """The defaults and `overrides`, by key; an unknown key raises."""
    return resolved(None, overrides)


def run_pretrain(corpus, vals, variant):
    tcfg = TrainingConfig.from_values(vals)
    arch = arch_for(variant, vals, corpus.vocab, corpus.split("train-cs")[0].features.shape[1])
    ck = pretrain(
        corpus.split("train-mono-m"),
        corpus.split("train-mono-e"),
        tcfg,
        arch,
        dev_m=corpus.split("dev-mono-m"),
        dev_e=corpus.split("dev-mono-e"),
        vocab=corpus.vocab,
    )
    return ck, arch


def run_finetune(corpus, ck_pre, arch, vals):
    tcfg = TrainingConfig.from_values(vals)
    corpora = {
        "cs": corpus.split("train-cs"),
        "mono-m": corpus.split("train-mono-m"),
        "mono-e": corpus.split("train-mono-e"),
    }
    ck = finetune(corpora, ck_pre, tcfg, arch, dev=corpus.split("dev-cs"), vocab=corpus.vocab)
    return Model(arch, params=ck.model_params()), ck


@pytest.fixture(scope="module")
def default_world(tmp_path_factory):
    """Default-spec corpus, pre-trained and LS-fine-tuned with default config."""
    root = tmp_path_factory.mktemp("acc-default")
    corpus = gen_corpus(CorpusSpec(seed=0), root)
    vals = train_cfg(variant="conditional-ls")
    ck_pre, arch = run_pretrain(corpus, vals, "conditional-ls")
    model_ls, _ = run_finetune(corpus, ck_pre, arch, vals)
    return corpus, vals, ck_pre, arch, model_ls


@pytest.fixture(scope="module")
def confusable_worlds(tmp_path_factory):
    """Three seeded confusable-prototype worlds with both fine-tuning regimes."""
    out = []
    for seed in SEPARATION_SEEDS:
        root = tmp_path_factory.mktemp(f"acc-confusable-{seed}")
        corpus = gen_corpus(
            CorpusSpec(
                train_count=200,
                dev_count=30,
                test_count=150,
                units_per_language=8,
                cross_lingual_offset=0.4,
                seed=seed,
            ),
            root,
        )
        vals = train_cfg(seed=seed, epochs=3)
        ck_pre, arch = run_pretrain(corpus, vals, "conditional-ls")
        ft = dict(vals, epochs=8)
        model_ls, _ = run_finetune(corpus, ck_pre, arch, dict(ft, variant="conditional-ls"))
        model_implicit, _ = run_finetune(corpus, ck_pre, arch, dict(ft, variant="conditional"))
        out.append((corpus, ck_pre, arch, ft, model_ls, model_implicit))
    return out


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    worst = oracle_sweep(trials=200, seed=2024)
    elapsed = time.time() - t0
    ok = worst["ctc"] < 1e-6 and worst["rnnt"] < 1e-6 and elapsed < 60
    report(
        1,
        ok,
        f"oracle equivalence over 200 instances: ctc {worst['ctc']:.2e}, "
        f"rnnt {worst['rnnt']:.2e} (< 1e-6), {elapsed:.1f}s",
    )


def test_criterion_2_gradient_correctness():
    t0 = time.time()
    worst = loss_grad_sweep(trials=20, seed=2025)
    full = full_model_grad_check()
    elapsed = time.time() - t0
    ok = worst["ctc"] < 1e-4 and worst["rnnt"] < 1e-4 and full < 1e-4 and elapsed < 120
    report(
        2,
        ok,
        f"grad checks: ctc {worst['ctc']:.2e}, rnnt {worst['rnnt']:.2e}, "
        f"full model {full:.2e} (< 1e-4), {elapsed:.1f}s",
    )


def test_criterion_3_algebra_laws(vocab55):
    from csrt.alignments import collapse, compose, decompose, mask_labels
    from csrt.errors import AlignmentConflictError

    rng = np.random.default_rng(77)
    t0 = time.time()
    ids = (BLANK,) + vocab55.m_ids() + vocab55.e_ids()
    units = vocab55.m_ids() + vocab55.e_ids()
    conflicts = 0
    for _ in range(1000):
        z = tuple(int(ids[rng.integers(len(ids))]) for _ in range(int(rng.integers(0, 12))))
        zm, ze = decompose(z, vocab55)
        assert compose(zm, ze) == z
        assert decompose(compose(zm, ze), vocab55) == (zm, ze)
        merged = collapse(compose(zm, ze))
        assert mask_labels(merged, "M", vocab55) == collapse(zm)
        assert mask_labels(merged, "E", vocab55) == collapse(ze)
        y = tuple(int(units[rng.integers(len(units))]) for _ in range(int(rng.integers(0, 12))))
        ym = list(mask_labels(y, "M", vocab55))
        ye = list(mask_labels(y, "E", vocab55))
        rebuilt = tuple((ym if vocab55.lang_of(u) == "M" else ye).pop(0) for u in y)
        assert rebuilt == y
        m = int(rng.integers(1, 6))
        e = int(rng.integers(6, 11))
        t = int(rng.integers(0, 6))
        try:
            compose((BLANK,) * t + (m,), (BLANK,) * t + (e,))
        except AlignmentConflictError as err:
            conflicts += 1
            assert err.frame == t
    elapsed = time.time() - t0
    ok = conflicts == 1000 and elapsed < 60
    report(3, ok, f"compose/decompose/mask/projection laws x1000 exact, "
                  f"{conflicts}/1000 conflicts rejected, {elapsed:.1f}s")


def test_criterion_4_total_probability():
    import itertools
    import math

    from csrt.alignments import min_ctc_length

    rng = np.random.default_rng(99)
    t0 = time.time()
    logits = rng.standard_normal((4, 3))
    m = logits.max(axis=1, keepdims=True)
    lp = logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    total = 0.0
    for length in range(5):
        for y in itertools.product((1, 2), repeat=length):
            if min_ctc_length(y) <= 4:
                total += math.exp(-ctc_loss([lp], [y]).item())
    elapsed = time.time() - t0
    ok = abs(total - 1.0) < 1e-6
    report(4, ok, f"sum over all label sequences T=4 |V|=2: {total:.9f} (1 +- 1e-6), {elapsed:.1f}s")


def test_criterion_5_end_to_end_learnability(default_world):
    corpus, vals, _, _, model_ls = default_world
    t0 = time.time()
    scores = {}
    for split in ("test-cs", "test-mono-m", "test-mono-e"):
        rep, _ = evaluate_split(model_ls, corpus.split(split), corpus.vocab, beam=10)
        scores[split] = rep
    elapsed = time.time() - t0
    mer = scores["test-cs"].mer.rate
    cer = scores["test-mono-m"].cer.rate
    wer = scores["test-mono-e"].wer.rate
    ok = mer <= 0.05 and cer <= 0.05 and wer <= 0.05
    report(
        5,
        ok,
        f"beam-10 on {scores['test-cs'].n_utts} held-out CS: MER {100 * mer:.2f}% "
        f"(<= 5%), mono CER {100 * cer:.2f}%, mono WER {100 * wer:.2f}% (<= 5%), "
        f"eval {elapsed:.0f}s",
    )


def test_criterion_6_separation_insertion_direction(confusable_worlds):
    lines = []
    ok = True
    for seed, (corpus, _, _, _, model_ls, model_implicit) in zip(
        SEPARATION_SEEDS, confusable_worlds
    ):
        cs = corpus.split("test-cs") + corpus.split("dev-cs")
        ls = eval_language_separation(model_ls, cs, corpus.vocab)
        imp = eval_language_separation(model_implicit, cs, corpus.vocab)
        seed_ok = ls["M"]["ins"] < imp["M"]["ins"] and ls["E"]["ins"] < imp["E"]["ins"]
        ok = ok and seed_ok
        lines.append(
            f"seed {seed}: LS INS M {100 * ls['M']['ins']:.2f} E {100 * ls['E']['ins']:.2f} "
            f"vs implicit M {100 * imp['M']['ins']:.2f} E {100 * imp['E']['ins']:.2f}"
        )
    report(6, ok, "LS insertion rate strictly lower on both sub-nets; " + "; ".join(lines))


def test_criterion_7_finetune_data_direction(confusable_worlds):
    corpus, ck_pre, arch, ft_vals, model_mix, _ = confusable_worlds[0]
    model_cs_only, _ = run_finetune(
        corpus, ck_pre, arch, dict(ft_vals, variant="conditional-ls", **{"mono-mix-ratio": 0.0})
    )
    rates = {}
    for tag, model in (("cs+mono", model_mix), ("cs-only", model_cs_only)):
        errors = tokens = 0
        for split in ("test-mono-m", "test-mono-e"):
            rep, _ = evaluate_split(model, corpus.split(split), corpus.vocab, beam=10)
            errors += rep.mer.errors
            tokens += rep.mer.ref_len
        rates[tag] = errors / tokens
    ok = rates["cs+mono"] < rates["cs-only"]
    report(
        7,
        ok,
        f"mono-split error: cs+mono {100 * rates['cs+mono']:.2f}% < "
        f"cs-only {100 * rates['cs-only']:.2f}%",
    )


def test_criterion_8_conditional_independence(default_world):
    corpus, vals, _, _, model_ls = default_world
    vals3 = dict(vals, variant="three-encoder")
    ck3, arch3 = run_pretrain(corpus, vals3, "three-encoder")
    model3, _ = run_finetune(corpus, ck3, arch3, vals3)
    rep_ls, _ = evaluate_split(model_ls, corpus.split("test-cs"), corpus.vocab, beam=10)
    rep3, _ = evaluate_split(model3, corpus.split("test-cs"), corpus.vocab, beam=10)
    gap = abs(rep3.mer.rate - rep_ls.mer.rate)
    ok = gap <= 0.01
    report(
        8,
        ok,
        f"CS MER: dual+LS {100 * rep_ls.mer.rate:.2f}% vs three-encoder "
        f"{100 * rep3.mer.rate:.2f}%, gap {100 * gap:.2f} points (<= 1.0)",
    )


def test_criterion_9_ls_reduction_law(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc-lsred")
    corpus = gen_corpus(CorpusSpec(train_count=40, dev_count=8, test_count=8, seed=6), root)
    vals = train_cfg(epochs=1)
    ck_pre, arch = run_pretrain(corpus, vals, "conditional-ls")
    _, ck_a = run_finetune(
        corpus, ck_pre, arch, dict(vals, variant="conditional-ls", epochs=2, **{"lambda": 1.0})
    )
    _, ck_b = run_finetune(corpus, ck_pre, arch, dict(vals, variant="conditional", epochs=2))
    same = all(
        ck_a.blocks[k].tobytes() == ck_b.blocks[k].tobytes()
        for k in ck_a.blocks
        if not k.startswith("state.")
    )
    report(9, same, "lambda=1 fine-tuning bit-identical to plain transducer fine-tuning")


def test_criterion_10_decoding_checks(default_world):
    from test_decoding import reference_greedy

    corpus, _, _, _, model = default_world
    utts = corpus.split("test-cs")
    assert len(utts) >= 100
    greedy_ok = True
    beam_ok = True
    chain_ok = True
    for utt in utts[:100]:
        got = rnnt_decode(model, utt.features, beam=1)
        want = reference_greedy(model, utt.features)
        greedy_ok = greedy_ok and got[0] == want[0] and abs(got[1] - want[1]) < 1e-9
        scores = [rnnt_decode(model, utt.features, beam=k)[1] for k in (1, 2, 4, 10)]
        beam_ok = beam_ok and scores[-1] >= scores[0] - 1e-12
        chain_ok = chain_ok and all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))
    ok = greedy_ok and beam_ok and chain_ok
    report(
        10,
        ok,
        f"beam-1 == reference greedy on 100 utts: {greedy_ok}; "
        f"beam-10 score >= beam-1 everywhere: {beam_ok}; "
        f"monotone over beams 1,2,4,10: {chain_ok}",
    )


def test_posterior_dump_matches_spans(default_world, tmp_path):
    """Fig-2-style check: unit-mass dominance tiles the embedded spans."""
    corpus, _, _, _, model = default_world
    utt = corpus.split("test-cs")[0]
    out = tmp_path / "posteriors.csv"
    dump_frame_posteriors(model, utt.features, out, corpus.vocab)
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == utt.n_frames
    # The window-3 temporal mixing smears one frame across span boundaries,
    # so dominance is judged against spans dilated by a single frame.
    e_frames, e_dilated = set(), set()
    for a, b, lang in utt.spans:
        if lang == "E":
            e_frames.update(range(a, b))
            e_dilated.update(range(a - 1, b + 1))
    e_dominant = set()
    for line in rows:
        cells = line.split(",")
        frame = int(cells[0])
        if float(cells[5]) > 0.5:
            e_dominant.add(frame)
        if float(cells[2]) > 0.5:
            assert frame not in e_frames or frame + 1 not in e_frames or frame - 1 not in e_frames, (
                f"M units dominate deep inside an E span at frame {frame}"
            )
    assert e_dominant <= e_dilated
    for a, b, lang in utt.spans:
        if lang == "E":
            assert e_dominant & set(range(a, b)), f"no E emission inside span {a}:{b}"
