"""Command-line frontend: train, classify, synth, eval, bench.

Exit codes: 0 success, 2 input error (files, data), 3 configuration or
protocol error, 4 numeric failure. Every command starts by echoing its
full effective configuration, seed included, and no command leaves a
partial output file behind on failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .classifier import TrainConfig, classify_set, train_all
from .datasets import (
    MANIFOLDS,
    Gallery,
    SynthParams,
    load_gallery,
    load_image_sets,
    normalize_gallery,
    save_gallery,
    synth_generate,
)
from .errors import ConfigError, DataError, NumericError
from .fileio import write_atomic
from .harness import (
    NOISE_MODES,
    ProtocolSpec,
    measure_run,
    report_key_values,
    report_text,
    run_kfold,
)
from .persistence import load_models, save_models

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--hidden-layers", type=int, default=2, help="number of hidden layers (default 2)"
    )
    p.add_argument(
        "--width",
        type=int,
        action="append",
        help="hidden layer width; repeat once per layer or give once for all (default 20)",
    )
    p.add_argument(
        "--c-first", type=float, default=1e6, help="ridge tradeoff for hidden layers (default 1e6)"
    )
    p.add_argument(
        "--c-final", type=float, default=1e18, help="ridge tradeoff for the final layer (default 1e18)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepelm",
        description="Deep ELM auto-encoder training and image-set classification.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="extra diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train classifier models from a gallery manifest")
    p.add_argument("manifest", help="gallery manifest path")
    p.add_argument("--out", required=True, help="output model bundle path")
    _add_config_flags(p)

    p = sub.add_parser("classify", help="classify probe sets with a trained bundle")
    p.add_argument("--model", required=True, help="model bundle path")
    p.add_argument("--probes", required=True, help="probe manifest path ('-' label = unlabeled)")
    p.add_argument("--out", required=True, help="output report path (TSV)")

    p = sub.add_parser("synth", help="generate a synthetic gallery")
    p.add_argument("--out-dir", required=True, help="directory for manifest and feature files")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--sets-per-class", type=int, default=4)
    p.add_argument("--samples-per-set", type=int, default=20)
    p.add_argument("--dim", type=int, default=50, help="feature dimension")
    p.add_argument("--manifold", choices=MANIFOLDS, default="blob")
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", help="k-fold evaluation with optional noise/size stress")
    p.add_argument("manifest", help="gallery manifest path")
    p.add_argument("--out", required=True, help="report path (text; a .kv sibling is written too)")
    p.add_argument("--folds", type=int, default=2)
    p.add_argument(
        "--gallery-sets-per-class",
        type=int,
        default=None,
        help="training sets per class per fold (default: half)",
    )
    p.add_argument("--noise-mode", choices=NOISE_MODES, default="nc")
    p.add_argument("--nr", type=int, default=None, help="cap on samples per set")
    _add_config_flags(p)

    p = sub.add_parser("bench", help="time training and per-set classification")
    p.add_argument("manifest", help="gallery manifest path")
    _add_config_flags(p)

    return parser


def _config_from_args(args) -> TrainConfig:
    h = args.hidden_layers
    if h < 1:
        raise ConfigError("h must be >= 1 (--hidden-layers)")
    widths = args.width
    if not widths:
        widths = [20] * h
    elif len(widths) == 1:
        widths = widths * h
    elif len(widths) != h:
        raise ConfigError(
            f"--width given {len(widths)} times but --hidden-layers is {h}"
        )
    layer_C = [args.c_first] * h + [args.c_final]
    return TrainConfig(
        hidden_layers=h, layer_widths=widths, layer_C=layer_C, seed=args.seed
    )


def _banner(command: str, pairs: list[tuple[str, object]]) -> None:
    print(f"deepelm {command}: " + " ".join(f"{k}={v}" for k, v in pairs))


def _config_pairs(config: TrainConfig) -> list[tuple[str, object]]:
    return [
        ("seed", config.seed),
        ("hidden_layers", config.hidden_layers),
        ("widths", ",".join(str(w) for w in config.layer_widths)),
        ("C", ",".join(f"{c:g}" for c in config.layer_C)),
    ]


def _check_out_dir(out: str) -> None:
    """Raise DataError unless the directory that out goes into exists."""
    parent = Path(out).parent
    if not parent.is_dir():
        raise DataError(f"output directory not found: {parent}")


def cmd_train(args) -> int:
    config = _config_from_args(args)
    _banner("train", [("manifest", args.manifest), ("out", args.out)] + _config_pairs(config))
    _check_out_dir(args.out)
    gallery = load_gallery(args.manifest)
    norm, stats = normalize_gallery(gallery)
    t0 = time.perf_counter()
    models = train_all(norm, config, feature_stats=stats)
    train_s = time.perf_counter() - t0
    save_models(args.out, models)
    print(
        f"trained: classes={len(gallery.classes)} sets={len(gallery.sets)} "
        f"samples={gallery.total_samples} d={gallery.feature_dim} "
        f"train_seconds={train_s:.2f} model={args.out}"
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    _banner("classify", [("model", args.model), ("probes", args.probes), ("out", args.out)])
    _check_out_dir(args.out)
    models = load_models(args.model)
    probes = load_image_sets(args.probes)
    d = probes[0].feature_dim
    if d != models.feature_dim:
        raise DataError(
            f"feature dimension mismatch: model d={models.feature_dim}, probes d={d}"
        )
    labels = models.class_labels
    lines = ["#deepelm-classification v1"]
    lines.append(
        "\t".join(["set_id", "predicted", "votes"] + [f"err_{lab}" for lab in labels])
    )
    correct = labeled = 0
    for probe in probes:
        pred = classify_set(probe, models)
        votes = ",".join(f"{lab}:{pred.vote_counts[lab]}" for lab in labels)
        totals = pred.per_sample_errors.sum(axis=0)
        row = [probe.set_id, pred.set_label, votes] + [repr(float(t)) for t in totals]
        lines.append("\t".join(row))
        if probe.label is not None:
            labeled += 1
            correct += pred.set_label == probe.label
    if labeled:
        accuracy = 100.0 * correct / labeled
        lines.append(f"#accuracy\t{accuracy:.2f}\tover {labeled} labeled probe sets")
        print(f"classified {len(probes)} sets, accuracy {accuracy:.2f}%")
    else:
        print(f"classified {len(probes)} sets (unlabeled, no accuracy)")
    write_atomic(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        params = SynthParams(
            classes=args.classes,
            sets_per_class=args.sets_per_class,
            samples_per_set=args.samples_per_set,
            feature_dim=args.dim,
            manifold=args.manifold,
            noise_sigma=args.noise_sigma,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _banner(
        "synth",
        [
            ("out_dir", args.out_dir),
            ("classes", params.classes),
            ("sets_per_class", params.sets_per_class),
            ("samples_per_set", params.samples_per_set),
            ("dim", params.feature_dim),
            ("manifold", params.manifold),
            ("noise_sigma", params.noise_sigma),
            ("seed", params.seed),
        ],
    )
    gallery = synth_generate(params)
    manifest = save_gallery(gallery.sets, args.out_dir)
    print(f"wrote {len(gallery.sets)} sets ({gallery.total_samples} samples) to {manifest}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _config_from_args(args)
    spec = ProtocolSpec(
        folds=args.folds,
        gallery_sets_per_class=args.gallery_sets_per_class,
        seed=args.seed,
        noise_mode=args.noise_mode,
        max_samples_per_set=args.nr,
    )
    _banner(
        "eval",
        [("manifest", args.manifest), ("out", args.out), ("folds", spec.folds),
         ("gallery_sets_per_class", spec.gallery_sets_per_class),
         ("noise_mode", spec.noise_mode), ("nr", spec.max_samples_per_set)]
        + _config_pairs(config),
    )
    _check_out_dir(args.out)
    gallery = load_gallery(args.manifest)
    report = run_kfold(gallery, spec, config)
    out = Path(args.out)
    write_atomic(out, report_text(report))
    write_atomic(out.with_suffix(".kv"), report_key_values(report))
    print(
        f"eval: mean accuracy {report.mean_accuracy:.2f}% "
        f"(std {report.std_accuracy:.2f}%) over {spec.folds} folds, report={out}"
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    config = _config_from_args(args)
    _banner("bench", [("manifest", args.manifest)] + _config_pairs(config))
    gallery = load_gallery(args.manifest)
    report = measure_run(gallery, list(gallery.sets), config)
    print("metric\tvalue")
    print(f"train_seconds\t{report.train_seconds:.2f}")
    print(f"test_seconds_per_set\t{report.test_seconds_per_set:.6f}")
    print(f"peak_memory_bytes\t{report.peak_memory_bytes}")
    # the concatenated gallery and the class stack, the units of the
    # training peak's bound (see README, "Training memory")
    d = gallery.feature_dim
    dims = (d, *config.layer_widths, d)
    print(f"gallery_matrix_bytes\t{8 * d * gallery.total_samples}")
    stack_bytes = 8 * len(gallery.classes) * sum(a * b for a, b in zip(dims, dims[1:]))
    print(f"class_stack_bytes\t{stack_bytes}")
    print(f"resubstitution_accuracy_pct\t{report.mean_accuracy:.2f}")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "classify": cmd_classify,
    "synth": cmd_synth,
    "eval": cmd_eval,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
