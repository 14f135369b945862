"""Token-aware virtual adversarial training at desk scale.

A self-contained float64 training engine: a minimal reverse-mode
autodiff tensor core, a small transformer (or MLP) text model with a
perturbation injection point, the dual instance/token perturbation
inner loop with a global per-token perturbation vocabulary, PGD and
single-perturbation baselines as configuration reductions, and the
oracles that certify all of it.
"""
from .adv import (AccumulatedGradient, AdvConfig, PerturbationPair,
                  SpecialTokenPolicy, init_delta, instance_step,
                  project_frobenius, scaling_index, tavat_batch_step, token_step)
from .data import (Batch, DatasetSpec, Example, Tokenizer, build_tokenizer,
                   generate_synthetic_classification, generate_synthetic_tagging,
                   load_delimited, make_batches, subsample)
from .model import ModelConfig, TextModel, load_checkpoint, save_checkpoint
from .tensor import Tensor, backward, cross_entropy_loss
from .train import TrainConfig, evaluate, run_ablation, train
from .vocab import (PerturbationVocabulary, apply_to_embedding, gather,
                    init_vocabulary, load_vocabulary, save_vocabulary, scatter)

__version__ = "0.1.0"
