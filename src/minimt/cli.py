"""Command-line entry point: prepare, train, translate, evaluate, experiment.

Every command is deterministic under a fixed config and seed. Failures exit
nonzero with a stage-named diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from minimt.config import ConfigError, DecodeSection, EvaluationSection, load_config
from minimt.data import read_lines
from minimt.experiment import (
    ExperimentRunner,
    StageFailure,
    make_preset,
    score_files,
    translate_file,
)

logger = logging.getLogger(__name__)


def _load_experiment_config(args):
    config = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed  # checked when the runner is built, as the file's seed is
    if getattr(args, "out_dir", None) is not None:
        config.out_dir = str(args.out_dir)
    return config


def cmd_prepare(args) -> int:
    runner = ExperimentRunner(_load_experiment_config(args))
    built = runner.prepare()
    print(f"prepare: {'built' if built else 'cached'} vocabulary and split manifests "
          f"under {runner.out}")
    return 0


def cmd_train(args) -> int:
    config = _load_experiment_config(args)
    runner = ExperimentRunner(config)
    runner.prepare()
    if args.mode == "baseline" and config.data.mono_files:
        logger.warning("baseline mode ignores the configured monolingual corpora")
    directions = [args.direction] if args.direction else config.directions
    for direction in directions:
        if direction not in config.directions:
            raise ConfigError(f"direction {direction!r} is not in the config's directions")
        ckpt = runner.train(direction, args.mode)
        print(f"train: {direction} [{args.mode}] -> {ckpt}")
    return 0


def cmd_translate(args) -> int:
    lines = read_lines(args.input)
    translate_file(args.checkpoint, args.vocab, lines, args.output, args)
    print(f"translate: {len(lines)} lines -> {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    print(score_files(args.hypotheses, args.references, args.max_n, args.k, args.macro).render())
    return 0


def cmd_experiment(args) -> int:
    if args.preset:
        if not args.out_dir:
            raise ConfigError("--preset needs --out-dir")
        config = make_preset(args.preset, args.out_dir, seed=args.seed or 0)
    elif args.config:
        config = _load_experiment_config(args)
    else:
        raise ConfigError("experiment needs --config or --preset")
    report = ExperimentRunner(config).run()
    print(report.render_table(scale=100))
    print(f"\nartifacts under {config.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minimt",
        description="Desk-scale comparison of translation-only vs. translation+CLM finetuning")
    parser.add_argument("-v", "--verbose", action="store_true", help="log stage progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build vocabulary and split manifests")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", type=Path)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train one regime for the configured direction(s)")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--mode", required=True, choices=["baseline", "mtl"])
    p.add_argument("--direction", help="e.g. aa->bb; defaults to every configured direction")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", type=Path)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("translate", help="beam-decode a file of source sentences")
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("--vocab", required=True, type=Path)
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    decode = DecodeSection()
    p.add_argument("--beam-size", type=int, default=decode.beam_size)
    p.add_argument("--length-penalty", type=float, default=decode.length_penalty)
    p.add_argument("--max-decode-len", type=int, default=decode.max_decode_len)
    p.add_argument("--penalty-form", choices=["pow", "gnmt"], default=decode.penalty_form)
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("evaluate", help="corpus BLEU of hypotheses against references")
    p.add_argument("--hypotheses", required=True, type=Path)
    p.add_argument("--references", required=True, type=Path)
    evaluation = EvaluationSection()
    p.add_argument("--max-n", type=int, default=evaluation.max_n)
    p.add_argument("--k", type=float, default=evaluation.smoothing_k)
    p.add_argument("--macro", action="store_true",
                   help="average per-sentence scores instead of micro-averaging counts")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("experiment", help="full baseline-vs-multitask comparison")
    p.add_argument("--config", type=Path)
    p.add_argument("--preset", choices=["smoke", "desk", "paper-faithful"])
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", type=Path)
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(message)s")
    try:
        return args.fn(args)
    except StageFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: {args.command}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
