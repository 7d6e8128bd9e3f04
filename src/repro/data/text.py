"""Synthetic language-model corpus (Penn TreeBank stand-in).

A first-order Markov chain over a Zipf-distributed vocabulary: each
token's successor distribution concentrates on a few likely followers,
so the corpus has real sequential structure an LSTM can learn (its
perplexity falls well below the uniform baseline) while remaining fully
offline and reproducible.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class TextDataset:
    """Token-id streams for language modelling."""

    name: str
    vocab_size: int
    train_tokens: np.ndarray
    valid_tokens: np.ndarray
    test_tokens: np.ndarray

    def batchify(self, split: str, seq_len: int,
                 batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Shape a token stream into ``(num_batches, T, B)`` id tensors.

        Returns ``(inputs, targets)`` where targets are inputs shifted
        by one token, the standard next-token objective.
        """
        stream = {
            "train": self.train_tokens,
            "valid": self.valid_tokens,
            "test": self.test_tokens,
        }[split]
        usable = (stream.shape[0] - 1) // (seq_len * batch_size)
        if usable == 0:
            raise ValueError(
                f"split {split!r} too short for seq_len={seq_len}, "
                f"batch_size={batch_size}"
            )
        count = usable * seq_len * batch_size
        inputs = stream[:count].reshape(usable, batch_size, seq_len)
        targets = stream[1:count + 1].reshape(usable, batch_size, seq_len)
        # (num_batches, T, B) layout for the LSTM layers
        return inputs.transpose(0, 2, 1), targets.transpose(0, 2, 1)


def make_synthetic_ptb(vocab_size: int = 500, train_tokens: int = 40_000,
                       valid_tokens: int = 4_000, test_tokens: int = 4_000,
                       branching: int = 8,
                       rng: Optional[np.random.Generator] = None) -> TextDataset:
    """Generate the Markov-chain corpus.

    Parameters
    ----------
    branching:
        Number of likely successors per token; smaller values make the
        corpus more predictable (lower achievable perplexity).
    """
    for split, length in (("train", train_tokens), ("valid", valid_tokens),
                          ("test", test_tokens)):
        if length < 0:
            raise ValueError(f"{split}_tokens must be >= 0, got {length}")
    rng = rng if rng is not None else np.random.default_rng(0)

    # Zipf-ish unigram prior over the vocabulary.
    ranks = np.arange(1, vocab_size + 1)
    unigram = (1.0 / ranks) / (1.0 / ranks).sum()

    # Per-token successor sets drawn from the unigram prior.
    successors = np.empty((vocab_size, branching), dtype=np.int64)
    weights = np.empty((vocab_size, branching))
    for token in range(vocab_size):
        successors[token] = rng.choice(vocab_size, size=branching,
                                       replace=False, p=unigram)
        raw = rng.dirichlet(np.ones(branching) * 0.5)
        weights[token] = raw

    # ``rng.choice(a, p=p)`` is one ``random()`` searched (side="right")
    # in ``cumsum(p) / cumsum(p)[-1]``.  Each split draws its uniforms in
    # one call and searches the same rows, so the tokens and the
    # generator's end state are those of one ``choice`` per token.
    start = unigram.cumsum()
    start /= start[-1]
    cdf = weights.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    rows, follow = cdf.tolist(), successors.tolist()

    def _generate(length: int) -> np.ndarray:
        uniforms = rng.random(length + 1)
        current = int(start.searchsorted(uniforms[0], side="right"))
        tokens, walk = np.empty(length, dtype=np.int64), uniforms[1:]
        for begin in range(0, length, 4096):   # bounds the float lists
            chunk = walk[begin:begin + 4096].tolist()
            for index, uniform in enumerate(chunk, begin):
                tokens[index] = current
                current = follow[current][bisect_right(rows[current],
                                                       uniform)]
        return tokens

    return TextDataset(
        name="ptb",
        vocab_size=vocab_size,
        train_tokens=_generate(train_tokens),
        valid_tokens=_generate(valid_tokens),
        test_tokens=_generate(test_tokens),
    )
