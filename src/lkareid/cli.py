"""Command-line entry point: inspect, gradcheck, train, eval.

Exit codes: 0 success, 1 validation, usage or out-of-memory failure, 2
numerical failure.  gradcheck and train take --seed, and every subcommand
is bit-reproducible single-threaded.  train writes its resolved
configuration, step log and checkpoint into --out, and on a numerical
failure still checkpoints the last finished step; eval prints its report
and, given --out, writes it there too.  The configuration, checkpoint and
report are written beside their path and renamed over it, so a failed
write leaves an earlier file whole.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .attention import LkaConfig, count_params_flops, eca_kernel_size
from .evaluation import MAX_RANK, evaluate_features, load_manifest
from .model import ModelConfig, build_model, extract_features, load_checkpoint, save_checkpoint, write_atomic
from .tensor import NumericsError
from .training import SyntheticDatasetSpec, TrainConfig, fit, pk_identities, split_query_gallery, synth_generate
from .verify import TOLERANCE, run_gradcheck


def cmd_inspect(args):
    dec = LkaConfig(args.C, args.K, args.d)
    k1d = eca_kernel_size(args.C)
    _, flops = count_params_flops(dec, (1, args.C, args.H, args.W))
    payload = {
        "kernel": args.K,
        "dilation": dec.dilation,
        "channels": args.C,
        "dw_kernel": dec.dw_kernel,
        "dd_kernel": dec.dd_kernel,
        "receptive_field": dec.receptive_field,
        "params_decomposed": dec.params_decomposed,
        "params_depthwise_full": dec.params_depthwise_full,
        "params_full_conv": dec.params_full_conv,
        "lka_block_flops": flops,
        "conv1d_kernel": k1d,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"K={args.K} d={args.d} C={args.C}  ({args.H}x{args.W} input)")
    print(f"  depthwise kernel        {dec.dw_kernel}x{dec.dw_kernel}")
    print(f"  dilated depthwise       {dec.dd_kernel}x{dec.dd_kernel}, dilation {dec.dilation}")
    print(f"  receptive field         {dec.receptive_field}")
    print(f"  params decomposed       {dec.params_decomposed:,}")
    print(f"  params depthwise+1x1    {dec.params_depthwise_full:,}")
    print(f"  params full KxK conv    {dec.params_full_conv:,}")
    print(f"  LKA block FLOPs         {flops:,}")
    print(f"  conv1d kernel for C     {k1d}")
    return 0


def cmd_gradcheck(args):
    results = run_gradcheck(args.scope, args.seed)
    worst_block = max(results, key=results.get)
    ok = results[worst_block] <= TOLERANCE
    for name in sorted(results):
        status = "pass" if results[name] <= TOLERANCE else "FAIL"
        print(f"{name:14s} worst rel. error {results[name]:.3e}  {status}")
    if args.json:
        print(json.dumps({"results": results, "pass": ok}, sort_keys=True))
    if not ok:
        print(f"gradcheck FAILED in block {worst_block}", file=sys.stderr)
        return 2
    return 0


def _derive_train_keys():
    """`lkareid train`'s flat config keys, each with the (config class, field)
    pairs it sets, and their defaults.  A key is its fields' name (p and k
    excepted); its default is that of the first of its fields that has one."""
    aliases = {"identities_per_batch": "p", "instances_per_identity": "k"}
    keys, defaults = {}, {}
    for cls in (TrainConfig, ModelConfig, SyntheticDatasetSpec):
        for f in dataclasses.fields(cls):
            key = aliases.get(f.name, f.name)
            keys[key] = keys.get(key, ()) + ((cls, f.name),)
            if f.default is not dataclasses.MISSING:
                defaults.setdefault(key, f.default)
    return keys, defaults


_TRAIN_KEYS, _DEFAULTS = _derive_train_keys()


def _text(value):
    """A key's value as config.json holds it; stem_widths is "16,32,64"."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else value


def _parse(key, value):
    """The field value of a key's text or config.json value."""
    default = _DEFAULTS[key]
    if isinstance(default, bool):
        if str(value).lower() in ("1", "true", "yes"):
            return True
        if str(value).lower() in ("0", "false", "no"):
            return False
        raise ValueError("expected a boolean")
    if isinstance(default, tuple):
        return tuple(int(v) for v in str(value).split(","))
    return type(default)(value)


def resolve_train_config(config_path=None, overrides=()):
    """Flat key=value config layer plus CLI overrides; unknown keys rejected."""
    resolved = {key: _text(default) for key, default in _DEFAULTS.items()}

    def apply(key, value, where):
        if key not in _TRAIN_KEYS:
            raise ValueError(f"{where}: unknown config key {key!r}")
        try:
            resolved[key] = _text(_parse(key, value))
        except ValueError as exc:
            raise ValueError(f"{where}: config key {key}={value!r}: {exc}") from None

    if config_path:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{config_path}: {exc}") from None
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{config_path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            apply(key.strip(), value.strip(), f"{config_path}:{lineno}")
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set {item!r}: expected key=value")
        key, value = item.split("=", 1)
        apply(key.strip(), value.strip(), "--set")
    return resolved


def _configs_from_resolved(resolved):
    """(ModelConfig, TrainConfig, SyntheticDatasetSpec) with every field set
    from its key's value in `resolved`."""
    kwargs = {ModelConfig: {}, TrainConfig: {}, SyntheticDatasetSpec: {}}
    for key, fields in _TRAIN_KEYS.items():
        for cls, name in fields:
            kwargs[cls][name] = _parse(key, resolved[key])
    return tuple(cls(**kw) for cls, kw in kwargs.items())


def cmd_train(args):
    resolved = resolve_train_config(args.config, args.set or ())
    if args.seed is not None:
        resolved["seed"] = args.seed
    model_cfg, train_cfg, data_spec = _configs_from_resolved(resolved)
    data = synth_generate(data_spec)
    train_idx, _, _ = split_query_gallery(data, data_spec)
    # settings that fail only together: an HCA grid larger than its branch
    # map (the cost walk checks each block) and P above the split's identities
    count_params_flops(model_cfg, (1, 3, data_spec.image_size, data_spec.image_size))
    pk_identities(data.identity_index(train_idx), train_cfg.identities_per_batch)
    # built before anything is written, so a model too large for memory writes nothing
    state = build_model(model_cfg, train_cfg.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_text = json.dumps(resolved, indent=2, sort_keys=True) + "\n"
    write_atomic(out_dir / "config.json", config_text.encode("utf-8"))
    records = []
    with open(out_dir / "log.jsonl", "w", encoding="utf-8") as log:

        def log_fn(record):
            records.append(record)
            log.write(json.dumps(record) + "\n")
            log.flush()

        try:
            fit(state, data, train_cfg, sample_positions=train_idx, log_fn=log_fn)
        except NumericsError as exc:
            log_fn({"step": len(records), "status": "diverged", "error": str(exc)})
            # a step that fails changes no parameter, so these are the
            # parameters of the last finished step
            save_checkpoint(state, out_dir / "checkpoint.lkar")
            raise
    save_checkpoint(state, out_dir / "checkpoint.lkar")
    if records:
        print(f"step {records[-1]['step']}: total loss {records[-1]['total']:.4f}")
    print(f"wrote {out_dir / 'checkpoint.lkar'}")
    return 0


def _load_image(path):
    """The image in a .npy file as float32: a (3, H, W) array of real
    numbers, finite once cast; anything else is a ValueError naming the
    file."""
    try:
        with open(path, "rb") as f:
            image = np.load(f)
    except (OSError, ValueError, EOFError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(image, np.ndarray) or image.dtype.kind not in "biuf":
        raise ValueError(f"{path}: expected an array of real numbers, got {getattr(image, 'dtype', 'an .npz archive')}")
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"{path}: image of shape {image.shape}, expected (3, H, W)")
    image = image.astype(np.float32, copy=False)
    if not np.isfinite(image).all():
        raise ValueError(f"{path}: image has non-finite pixel values")
    return image


def _model_features(state, samples, shape=None, first="the manifest's first image"):
    """Features of the samples' .npy images, loaded 32 at a time, and the
    shape every image must have: `shape`, which `first` names, or the
    first sample's."""
    batch = 32
    feats = []
    for start in range(0, len(samples), batch):
        images = []
        for s in samples[start : start + batch]:
            image = _load_image(s.path)
            shape = image.shape if shape is None else shape
            if image.shape != shape:
                raise ValueError(f"{s.path}: image of shape {image.shape}, but {first} has shape {shape}")
            images.append(image)
        feats.append(extract_features(state, np.stack(images)).data)
    return np.concatenate(feats, axis=0), shape


def cmd_eval(args):
    query = load_manifest(args.query, split="query")
    gallery = load_manifest(args.gallery, split="gallery")
    if args.checkpoint:
        for s in query.samples + gallery.samples:  # before any image goes through the model
            if s.path is None or not s.path.endswith(".npy"):
                raise ValueError(f"model evaluation needs a .npy image path, got {s.path!r}")
        state = load_checkpoint(args.checkpoint)
        query_feats, shape = _model_features(state, query.samples)
        gallery_feats, _ = _model_features(state, gallery.samples, shape, "the query manifest's first image")
    else:
        query_feats, gallery_feats = query.features(), gallery.features()
    report = evaluate_features(query_feats, query.samples, gallery_feats, gallery.samples, max_rank=args.max_rank)
    text = report.to_json()
    if args.out:
        write_atomic(args.out, (text + "\n").encode("utf-8"))
    print(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="lkareid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="decomposition, cost, and kernel-size report")
    p.add_argument("--K", type=int, default=21, help="nominal large kernel size (odd)")
    p.add_argument("--d", type=int, default=3, help="dilation of the decomposition")
    p.add_argument("--C", type=int, default=256, help="channel count")
    p.add_argument("--H", type=int, default=32)
    p.add_argument("--W", type=int, default=32)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--scope", choices=("all", "lka", "hca", "losses", "model"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="toy-scale training on the synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="mAP/CMC evaluation of manifests")
    p.add_argument("--query", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--checkpoint", help="extract features with this model instead")
    p.add_argument("--out", help="write the report JSON here")
    p.add_argument("--max-rank", type=int, default=MAX_RANK)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2, the numerical-failure code, on a usage error
        return 1 if exc.code else 0
    try:
        # Every op checks its output for NaN/Inf and raises NumericsError,
        # which is reported below; numpy's own warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
