"""The four training workloads of the benchmark and the inputs they run on.

Every input is a function of the run's seed: the synthetic corpora take
their data seed from it, and the bigvocab TSV is written by this module
from it. The program receives only the generated inputs and a
``TrainConfig``; nothing here reaches into its internals.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tavat.adv import AdvConfig
from tavat.data import SPECIAL_TOKENS, DatasetSpec, tagging_vocabulary
from tavat.model import ModelConfig
from tavat.train import Seeds, TrainConfig

# bigvocab corpus: filler words drawn from a Zipf law over a large lexicon,
# so most of the ~9k ids are rare and many occur only in dev rows
LEXICON = 100_000
ZIPF_EXPONENT = 0.8
CUES_PER_CLASS = 8
LABEL_NOISE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tagging: bool = False
    reads_file: bool = False
    # the first batch step must reproduce model.loss(model.forward(batch)) bitwise;
    # true only where the adversary adds an exactly zero perturbation
    clean: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("small-tavat",
                 "c09 config (dim 16, K=2): steps bound by Python dispatch over tiny tape ops "
                 "and per-token loops such as the special-token filter in vocab.scatter"),
        Workload("wide-tavat",
                 "dim 64, 2 blocks, ffn 256, K=3: steps bound by numpy arithmetic in matmul vjps, "
                 "layer_norm and the per-node .grad copies of backward"),
        Workload("bigvocab-tavat",
                 "Zipf TSV read through the delimited loader, ~9k ids: every step moves whole "
                 "N x D arrays (embedding vjp, gradient copies, Adam, vocab.scatter sums)",
                 reads_file=True),
        Workload("tagging-clean",
                 "--mode clean tagging: no adversary work, so adv and vocab changes must not move it; "
                 "the only run of the per-token head, per-token loss and span-F1 eval",
                 tagging=True, clean=True),
    )
}


# The run's seed picks the data; parameter init and adversarial draws are part
# of the workload. Whether the tagging model learns B- from I- within a few
# epochs depends mostly on the init: with the init varying by seed, dev span
# F1 after 7 epochs ranged 0.57-0.99 over ten seeds.
INIT_SEED = 4
ADVERSARIAL_SEED = 5


def seeds_for(seed: int) -> Seeds:
    return Seeds(init=INIT_SEED, data=seed, adversarial=ADVERSARIAL_SEED)


def write_bigvocab_tsv(path: Path, seed: int, rows: int) -> None:
    """Two-class text/label rows: planted class cue words among Zipf fillers."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, LEXICON + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    lengths = rng.integers(8, 19, size=rows)
    fillers = rng.choice(LEXICON, size=int(lengths.sum()), p=weights)
    lines = []
    start = 0
    for length in lengths:
        label = int(rng.integers(2))
        own = int(rng.integers(2, 5))
        other = int(rng.integers(0, own))
        words = [f"w{r}" for r in fillers[start:start + length]]
        start += length
        words += [f"k{label}_{int(rng.integers(CUES_PER_CLASS))}" for _ in range(own)]
        words += [f"k{1 - label}_{int(rng.integers(CUES_PER_CLASS))}" for _ in range(other)]
        rng.shuffle(words)
        if rng.random() < LABEL_NOISE:
            label = 1 - label
        lines.append(f"{' '.join(words)}\t{label}\n")
    path.write_text("".join(lines), encoding="utf-8")


def make_config(name: str, seed: int, work_dir: Path) -> TrainConfig:
    """The workload's TrainConfig for one seed; generated inputs go to ``work_dir``."""
    common = dict(seeds=seeds_for(seed), optimizer="adam", batch_size=32, max_len=24,
                  out_dir=str(work_dir))
    # at dim 64 the default adversary (epsilon 1.0) keeps the model at chance
    # for the few hundred steps a run affords; a tenth of it does not
    mild = dict(epsilon=0.1, sigma=0.01, alpha=0.03)
    if name == "small-tavat":
        return TrainConfig(
            model=ModelConfig(vocab_size=56, dim=16, blocks=1, heads=2, ffn_dim=32,
                              max_len=24, classes=2),
            adv=AdvConfig(epsilon=0.3, sigma=0.03, alpha=0.09, K=2),
            dataset=DatasetSpec(n=3000, noise=0.2, dev_fraction=1 / 3, split_seed=seed),
            lr=0.005, epochs=6, **common)
    if name == "wide-tavat":
        return TrainConfig(
            model=ModelConfig(vocab_size=56, dim=64, blocks=2, heads=4, ffn_dim=256,
                              max_len=24, classes=2),
            adv=AdvConfig(K=3, **mild),
            dataset=DatasetSpec(n=1200, noise=0.1, dev_fraction=1 / 3, split_seed=seed),
            lr=0.002, epochs=3, **common)
    if name == "bigvocab-tavat":
        path = work_dir / f"bigvocab-seed{seed}.tsv"
        write_bigvocab_tsv(path, seed, rows=1200)
        return TrainConfig(
            model=None,
            adv=AdvConfig(K=2, **mild),
            dataset=DatasetSpec(source="delimited", path=str(path), dev_fraction=0.3,
                                split_seed=seed),
            lr=0.002, epochs=2, **common)
    if name == "tagging-clean":
        # without positions attention cannot tell B- from I- and span F1 stalls near 0.5
        return TrainConfig(
            model=ModelConfig(vocab_size=len(SPECIAL_TOKENS) + len(tagging_vocabulary()),
                              dim=64, blocks=2, heads=4, max_len=24, classes=5,
                              head="tagging", use_positional=True),
            # the CLI's --mode clean: one step, zero perturbation, no token features
            adv=AdvConfig(mode="freelb", use_vocab=False, use_token_norm=False,
                          sigma=0.0, K=1),
            dataset=DatasetSpec(source="synthetic-tagging", n=1600, dev_fraction=0.25,
                                split_seed=seed),
            lr=0.003, epochs=8, **common)
    raise KeyError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
