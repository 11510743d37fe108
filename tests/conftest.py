import numpy as np
import pytest

from csrt import autodiff as ad
from csrt.alignments import Vocabulary
from csrt.data import CorpusSpec, gen_corpus


@pytest.fixture(scope="session")
def vocab22():
    return Vocabulary(m_surfaces=("m1", "m2"), e_surfaces=("e1", "e2"))


@pytest.fixture(scope="session")
def vocab55():
    return Vocabulary(
        m_surfaces=tuple(f"m{i}" for i in range(1, 6)),
        e_surfaces=tuple(f"e{i}" for i in range(1, 6)),
    )


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Small generated corpus shared by data/training/decoding tests."""
    spec = CorpusSpec(train_count=25, dev_count=6, test_count=8, seed=13)
    out = tmp_path_factory.mktemp("tiny-corpus")
    return spec, gen_corpus(spec, out), out


def random_log_rows(rng, t, v1):
    logits = rng.standard_normal((t, v1))
    m = logits.max(axis=1, keepdims=True)
    return logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))


def sum_all(x):
    """Sum of every entry of a Tensor as a 0-d Tensor, built from recorded ops."""
    n = x.data.size
    return ad.reshape(ad.matmul(ad.reshape(x, (1, n)), ad.Tensor(np.ones((n, 1)))), ())
