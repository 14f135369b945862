"""Command-line entry point: train / evaluate / ablate / export-vocab.

Flags override config-file values, which override built-in defaults.
The default output root comes from TAVAT_OUT_DIR when set.

Exit status 0 is a finished command. Exit status 2, with one error line,
is refused input: a config value or a pair of them the run cannot take,
a path that does not exist, or a file that is not what it should be
(argparse's own usage errors exit 2 too). An engine fault keeps its
traceback and exits 1.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import DatasetFormatError, build_dataset, encode_examples, make_batches
from .model import (CheckpointFormatError, ConfigError, load_checkpoint, require_file,
                    save_checkpoint)
from .train import (OPTIMIZERS, TrainConfig, check_head, check_positional, config_from_dict,
                    evaluate, format_ablation_table, run_ablation, train)
from .vocab import VocabularyFormatError, apply_to_embedding, load_vocabulary


# --mode: AdvConfig overrides; "clean" is plain fine-tuning, a single zero
# perturbation at the only step
MODES = {
    "tavat": {"mode": "tavat"},
    "freelb": {"mode": "freelb", "use_vocab": False, "use_token_norm": False},
    "pgd": {"mode": "pgd", "use_vocab": False, "use_token_norm": False},
    "clean": {"mode": "freelb", "use_vocab": False, "use_token_norm": False,
              "sigma": 0.0, "K": 1},
}


def _load_config(args) -> TrainConfig:
    """The command's config; anything that refuses building it is a ConfigError."""
    if args.config:
        require_file(args.config)
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
        if not isinstance(raw, dict):
            raise ValueError(f"a config is a JSON object, not a {type(raw).__name__}")
        for name in ("epochs", "batch_size", "lr", "out_dir", "run_name", "optimizer",
                     "init_embedding_from_vocab"):
            value = getattr(args, name, None)
            if value is not None:
                raw[name] = value
        if getattr(args, "mode", None):
            raw["adv"] = {**raw.get("adv", {}), **MODES[args.mode]}
        return config_from_dict(raw)
    except (TypeError, ValueError) as exc:
        # a field no config has, as in a file older than its removal, a file that
        # is not JSON, or a refused value
        raise ConfigError(f"{args.config}: {exc}" if args.config else str(exc)) from exc


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--optimizer", choices=list(OPTIMIZERS))
    p.add_argument("--mode", choices=list(MODES))
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--run-name", dest="run_name")
    p.add_argument("--init-embedding-from-vocab", dest="init_embedding_from_vocab")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``tavat`` parser and its subcommands' parsers by name."""
    parser = argparse.ArgumentParser(prog="tavat",
                                     description="Token-aware virtual adversarial training")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training job")
    _add_train_flags(p_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", help="JSON config file with the dataset spec")
    p_eval.add_argument("--split", choices=["train", "dev", "test"], default="dev")

    p_ablate = sub.add_parser("ablate", help="run a toggle-grid comparison")
    _add_train_flags(p_ablate)
    p_ablate.add_argument("--grid", choices=["table5", "table6"], default="table5")
    p_ablate.add_argument("--seeds", type=int, nargs="+")

    p_export = sub.add_parser("export-vocab",
                              help="fold a learned perturbation vocabulary into a checkpoint")
    p_export.add_argument("--checkpoint", required=True)
    p_export.add_argument("--vocab", required=True)
    p_export.add_argument("--out", required=True)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args, None if args.command == "export-vocab" else _load_config(args))
    except (ConfigError, CheckpointFormatError, VocabularyFormatError, DatasetFormatError) as exc:
        # refused input; the message names the value, the pair or the file
        command = commands[args.command]
        command.exit(2, f"{command.prog}: error: {exc}\n")


def _run(args, config: TrainConfig | None) -> int:
    if args.command == "train":
        result = train(config)
        print(f"run {config.run_name}: dev metric {result.dev_metric}")
        print(f"checkpoint: {result.checkpoint_path}")
        if result.vocab_path:
            print(f"perturbation vocabulary: {result.vocab_path}")
        print(f"metrics: {result.metrics_path}")
        return 0

    if args.command == "evaluate":
        require_file(args.checkpoint)
        model = load_checkpoint(args.checkpoint)
        tokenizer, train_ex, dev_ex, test_ex = build_dataset(
            config.dataset, seed=config.seeds.data)
        if model.config.vocab_size != tokenizer.vocab_size:
            raise CheckpointFormatError(
                f"{args.checkpoint}: vocab_size {model.config.vocab_size} != dataset tokenizer "
                f"{tokenizer.vocab_size}: the checkpoint was trained on another vocabulary")
        check_head(model.config.head, config.dataset, CheckpointFormatError, args.checkpoint)
        examples = {"train": train_ex, "dev": dev_ex, "test": test_ex}[args.split]
        if not examples:
            raise ConfigError(f"the {args.split} split of the dataset is empty")
        encoded = encode_examples(tokenizer, examples, config.max_len)
        check_positional(model.config, encoded, CheckpointFormatError, args.checkpoint)
        batches = make_batches(encoded, config.batch_size)
        metrics = evaluate(model, batches)
        print(json.dumps(metrics, sort_keys=True))
        return 0

    if args.command == "ablate":
        rows = run_ablation(config, grid=args.grid, seeds=args.seeds)
        print(format_ablation_table(rows))
        out_dir = config.resolved_out_dir()
        out_dir.mkdir(parents=True, exist_ok=True)
        table_path = out_dir / f"ablation-{args.grid}.json"
        table_path.write_text(json.dumps(rows, indent=2), encoding="utf-8")
        print(f"table written to {table_path}")
        return 0

    if args.command == "export-vocab":
        require_file(args.out, parent=True)
        require_file(args.checkpoint)
        require_file(args.vocab)
        model = load_checkpoint(args.checkpoint)
        learned = load_vocabulary(args.vocab, expect_dim=model.config.dim)
        model.set_embedding(apply_to_embedding(
            model.params["embedding.weight"].data, learned))
        save_checkpoint(model, args.out)
        print(f"embedding updated with perturbation vocabulary: {args.out}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
