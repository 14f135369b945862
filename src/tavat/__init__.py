"""Token-aware virtual adversarial training at desk scale.

A self-contained float64 training engine: a minimal reverse-mode
autodiff tensor core, a small transformer text model with a
perturbation injection point, the dual instance/token perturbation
inner loop with a global per-token perturbation vocabulary (its
arithmetic in ``adv``, its table and file format in ``vocab``), PGD and
single-perturbation baselines as configuration reductions. The
oracles that certify all of it live with the tests, in tests/oracles.py.
"""
from .adv import (AccumulatedGradient, AdvConfig, SpecialTokenPolicy, gather, init_delta,
                  init_vocabulary, instance_step, project_frobenius, scaling_index, scatter,
                  tavat_batch_step, token_step)
from .data import (Batch, DatasetSpec, Example, Tokenizer, build_tokenizer,
                   generate_synthetic_classification, generate_synthetic_tagging,
                   load_delimited, make_batches)
from .model import ModelConfig, TextModel, load_checkpoint, save_checkpoint
from .tensor import Tensor, backward, cross_entropy_loss
from .train import TrainConfig, evaluate, run_ablation
from .vocab import (PerturbationVocabulary, apply_to_embedding, load_vocabulary,
                    save_vocabulary)

__version__ = "0.1.0"
