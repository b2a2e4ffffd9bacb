"""Command-line pipeline: simulate, train, infer, stitch, evaluate, spectrum,
epie, gradcheck. Stages chain through files and carry the config hash. A model
variant is trained with `train --set variant=V` and scored with `evaluate`.

Every stage is deterministic for a fixed BLAS thread count. Matrix products may
run on several BLAS threads (OpenBLAS), and results need not be bitwise equal
across thread counts: the test suite checks that training gradients at batch
32 and at batch 11 (an epoch's last, partial batch in criterion 9) are
identical under OPENBLAS_NUM_THREADS=1 and 2, and that at 29 and 31, the only
such sizes of 1-32, weight gradients differ in their last bits (9 of them, all
of layers at 4 x 4).
"""

import argparse
import ctypes
import os
import sys

import numpy as np

from . import dataset, epie as epie_mod, gridio, model, recon, train as train_mod, verify
from .autodiff import NonFiniteError
from .config import RunConfig


def _build_config(args):
    """The config file's values, then --seed, then each --set: an explicit
    `--set *_seed=...` wins over --seed."""
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.set_master_seed(args.seed)
    for kv in args.set or []:
        if "=" not in kv:
            raise ValueError(f"--set expects key=value, got '{kv}'")
        key, value = kv.split("=", 1)
        cfg.set(key.strip(), value.strip())
    return cfg


def _check_hash(expected, found, force, what):
    if force:
        return
    if not expected or not found:
        raise ValueError(f"config hash missing for {what} (use --force to override)")
    if expected != found:
        raise ValueError(f"config hash mismatch for {what}: {expected} != {found} "
                         "(use --force to override)")


def _persist_config(cfg, outdir):
    os.makedirs(outdir, exist_ok=True)
    cfg.save(os.path.join(outdir, "config.txt"))


def cmd_simulate(args):
    cfg = _build_config(args)
    v = cfg.values
    amp, phase = dataset.gen_object(v["object_size"], v["object_size"], v["object_seed"])
    probe = cfg.make_probe()
    plan = dataset.plan_scan(v["rows"], v["cols"], v["step"], v["jitter_max"],
                             v["probe_size"], v["scan_seed"])
    intensity, table, _ = dataset.make_dataset(amp, phase, probe, plan, cfg.noise_cfg())
    table["split"] = dataset.split_rows(table["row"], v["rows"], v["train_rows"],
                                        v["test_rows"], v["val_fraction"], v["split_seed"])
    meta = {"config_hash": cfg.data_hash(), "rows": v["rows"], "cols": v["cols"],
            "step": v["step"], "jitter_max": v["jitter_max"],
            "probe_size": v["probe_size"], "probe_radius": v["probe_radius"],
            "probe_sigma": v["probe_sigma"], "probe_curvature": v["probe_curvature"]}
    dataset.save_dataset(args.out, intensity, table, amp, phase, probe, meta)
    _persist_config(cfg, args.out)
    print(f"simulate: {len(table)} frames -> {args.out} (hash {meta['config_hash']})")
    return 0


def cmd_train(args):
    cfg = _build_config(args)
    intensity, table, truth, _probe, meta = dataset.load_dataset(args.data)
    _check_hash(cfg.data_hash(), meta.get("config_hash"), args.force, "dataset")
    os.makedirs(args.out, exist_ok=True)
    result = train_mod.train(intensity[:], table, truth, cfg.model_cfg(), cfg.train_cfg(),
                             ckpt_dir=os.path.join(args.out, "checkpoint"),
                             config_hash=meta.get("config_hash", ""),
                             log_path=os.path.join(args.out, "loss_log.csv"))
    _persist_config(cfg, args.out)
    print(f"train: best val loss {result.best_val:.6g} at epoch {result.best_epoch} "
          f"-> {args.out}/checkpoint")
    return 0


def _load_ckpt_and_data(args, load):
    """The checkpoint and what `load` returns for `args.split` (intensities first,
    meta last); only that split's files are read."""
    params, mcfg, manifest = model.load_checkpoint(args.ckpt)
    data = load(args.data, split=None if args.split == "all" else args.split)
    _check_hash(manifest.get("config_hash"), data[-1].get("config_hash"),
                args.force, "checkpoint vs dataset")
    if not len(data[0]):
        raise ValueError(f"{os.path.join(args.data, 'manifest.csv')}: no frames in split "
                         f"'{args.split}'")
    return params, mcfg, manifest, data


PRED_FIELDS = ["index", "row", "col", "y", "x", "split"]


def cmd_infer(args):
    _build_config(args)
    params, mcfg, manifest, (intensity, table, _probe, _meta) = _load_ckpt_and_data(
        args, dataset.load_frames)
    os.makedirs(os.path.join(args.out, "pred"), exist_ok=True)
    rows = []
    for i, ((amp, phase), entry) in enumerate(zip(
            recon.iter_infer(intensity[:], params, mcfg), table[PRED_FIELDS[1:]].tolist())):
        gridio.write_grid(os.path.join(args.out, "pred", f"{i:05d}_amp.ptg"), amp)
        gridio.write_grid(os.path.join(args.out, "pred", f"{i:05d}_phase.ptg"), phase)
        rows.append([i, *entry])
    gridio.write_csv(os.path.join(args.out, "predictions.csv"), PRED_FIELDS, rows)
    gridio.write_json(os.path.join(args.out, "pred_meta.json"),
                      {"config_hash": manifest.get("config_hash", ""),
                       "variant": mcfg.variant, "split": args.split})
    print(f"infer: {len(rows)} predictions -> {args.out}")
    return 0


def _read_predictions(pred_dir, rows):
    """Each row's (amplitude, phase) prediction files, read one pair at a time;
    every file must have the first one's shape."""
    shape = None
    for row in rows:
        pair = []
        for kind in ("amp", "phase"):
            path = os.path.join(pred_dir, "pred", f"{row['index']:05d}_{kind}.ptg")
            grid = gridio.read_grid(path)
            shape = shape or grid.shape
            if grid.shape != shape:
                raise ValueError(f"{path}: shape {grid.shape} is not the first "
                                 f"prediction's {shape}")
            pair.append(grid)
        yield tuple(pair)


def cmd_stitch(args):
    cfg = _build_config(args)
    rows = dataset.read_table(os.path.join(args.pred, "predictions.csv"), PRED_FIELDS,
                              PRED_FIELDS[:-1])
    if not rows:
        raise ValueError(f"no predictions in {args.pred}/predictions.csv")
    amp, phase, mask, origin = recon.stitch_amp_phase(
        _read_predictions(args.pred, rows), [(row["y"], row["x"]) for row in rows],
        weight_floor=cfg["stitch_weight_floor"])
    os.makedirs(args.out, exist_ok=True)
    for name, field in (("stitched_amp", amp), ("stitched_phase", phase), ("coverage", mask)):
        recon.write_field(os.path.join(args.out, name + ".ptg"), field, origin)
    canvas = tuple(o + n for o, n in zip(origin, mask.shape))
    print(f"stitch: canvas {canvas} -> {args.out}")
    return 0


def cmd_evaluate(args):
    cfg = _build_config(args)
    # `iter_infer` reads a batch's files when it slices it; the report follows the last
    params, mcfg, _, (intensity, table, truth, _probe, meta) = _load_ckpt_and_data(
        args, dataset.load_dataset)
    rep = recon.report(dataset.positions(table), recon.iter_infer(intensity, params, mcfg),
                       truth, weight_floor=cfg["stitch_weight_floor"],
                       config_hash=meta.get("config_hash", ""), seed=args.seed or 0)
    recon.write_report(args.out, rep)
    print(f"evaluate: {len(intensity)} frames ({args.split}) -> {args.out}/report.txt")
    return 0


def cmd_spectrum(args):
    _build_config(args)
    grid = gridio.read_grid(args.grid)
    side = min(grid.shape)
    radii, curve, bands = recon.radial_psd(grid[:side, :side])
    os.makedirs(args.out, exist_ok=True)
    recon.write_psd(os.path.join(args.out, "psd.txt"), radii, curve)
    gridio.write_json(os.path.join(args.out, "bands.json"),
                      {"low": bands[0], "mid": bands[1], "high": bands[2]})
    print(f"spectrum: low {bands[0]:.2f}% mid {bands[1]:.2f}% high {bands[2]:.2f}%")
    return 0


def cmd_epie(args):
    cfg = _build_config(args)
    intensity, table, probe, meta = dataset.load_frames(args.data)
    _check_hash(cfg.data_hash(), meta.get("config_hash"), args.force, "dataset")
    # the scan's (N, p, p) stack takes one contiguous block, which cannot reuse the
    # heap holes that earlier stages of this process freed: hand those back to the
    # OS before the stack is read and after it is freed (glibc; elsewhere nothing)
    trim_heap = getattr(ctypes.CDLL(None), "malloc_trim", lambda pad: 0)
    trim_heap(0)
    state = epie_mod.epie_reconstruct(intensity[:], dataset.positions(table), probe,
                                      iters=cfg["epie_iters"], beta=cfg["epie_beta"],
                                      seed=cfg["epie_seed"])
    trim_heap(0)
    os.makedirs(args.out, exist_ok=True)
    gridio.write_grid(os.path.join(args.out, "epie_amplitude.ptg"), np.abs(state.object_est))
    gridio.write_grid(os.path.join(args.out, "epie_phase.ptg"), np.angle(state.object_est))
    with open(os.path.join(args.out, "error_history.txt"), "w") as fh:
        for e in state.error_history:
            fh.write(f"{e:.10g}\n")
    print(f"epie: final data error {state.error_history[-1]:.3e} "
          f"after {len(state.error_history)} sweeps")
    return 0


def cmd_gradcheck(args):
    _build_config(args)
    results = verify.run_gradcheck(verbose=True)
    failed = [r for r in results if not r[3]]
    print(f"gradcheck: {len(results) - len(failed)}/{len(results)} passed")
    return 1 if failed else 0


def _add_common(sp):
    sp.add_argument("--config", help="config file (key = value lines)")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override one config key")
    sp.add_argument("--seed", type=int,
                    help="master seed for all stages; an explicit --set *_seed=... wins")
    sp.add_argument("--force", action="store_true",
                    help="proceed despite config-hash mismatch")


def build_parser():
    parser = argparse.ArgumentParser(prog="ptychokit")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="object + scan + frames -> dataset dir")
    _add_common(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("train", help="dataset -> checkpoint + loss log + epoch record")
    _add_common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("infer", help="checkpoint + frames -> predicted patches")
    _add_common(sp)
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--split", default="test", choices=["train", "val", "test", "all"])
    sp.set_defaults(fn=cmd_infer)

    sp = sub.add_parser("stitch", help="predicted patches -> full field")
    _add_common(sp)
    sp.add_argument("--pred", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_stitch)

    sp = sub.add_parser("evaluate", help="predictions vs ground truth -> report")
    _add_common(sp)
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--split", default="test", choices=["train", "val", "test", "all"])
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("spectrum", help="grid -> radial PSD + band energies")
    _add_common(sp)
    sp.add_argument("--grid", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("epie", help="frames + probe -> iterative reference recon")
    _add_common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_epie)

    sp = sub.add_parser("gradcheck", help="run the finite-difference suite")
    _add_common(sp)
    sp.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, MemoryError, FloatingPointError,
            NonFiniteError) as exc:
        # str() of a KeyError is the repr of its message: print the message itself
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
