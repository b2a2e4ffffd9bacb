"""Benchmark of the ptychokit CLI pipeline.

    python3 perfbench/run.py --workload train-n8 --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports ptychokit from ./src.
Every stage is a call of `ptychokit.cli.main` in this one process, with the
workload seed passed as `--seed`. After the stages of a round the outputs are
checked against perfbench/reference.py. Rounds repeat until --seconds have
passed. The last line of stdout is one JSON object: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the public functions of ptychokit are wrapped (spans.py) and
the metrics are the per-layer ones. The line before it gives the machine
facts. See perfbench/README.md.
"""

import argparse
import collections
import contextlib
import ctypes
import glob
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The 512-frame set of acceptance criterion 9: 32x16 scan, step 8, object 300^2.
SMALL_SET = ("rows=32", "cols=16", "object_size=300", "train_rows=26", "test_rows=6")

# Each workload: the data keys every stage shares (they define the dataset
# hash) and either the train stage's own keys or, for the deployment
# pipeline, the ePIE sweeps. Epoch and sweep counts are set so that the
# timed part lasts 20-35 s: single-thread speed on the reference machine
# swings by up to +-27% in phases of 5-30 s, and shorter timings spread
# too much.
WORKLOADS = {
    "train-n8": {"data": SMALL_SET, "train": ("n_c=8", "epochs=4")},
    "train-n32": {"data": SMALL_SET, "train": ("n_c=32", "epochs=2")},
    "reconstruct": {"data": (), "train": None, "epie_iters": 10},
}
# Set-up lasts 0.2 s (reconstruct) to 1 s (training), far shorter than the
# phases in which the machine's speed swings. Repeats made back to back all
# land in one phase, so they are spread over the run instead: this many
# extra set-ups at each sampling point (before the timed stages and after
# each of them), and the median of all is reported. Each sample is deleted
# before the next, so every one follows a deletion of the same size: file
# creation here is cheaper or dearer by up to 10x with recent deletions.
SETUP_SAMPLES = {"train-n8": 3, "train-n32": 3, "reconstruct": 2}
# Frames in the forward pass that warms up the reconstruct model in set-up.
# Without it the checkpoint write alone (0.02-0.07 s, about 60 small files)
# is set-up, and its time doubles whenever the file system is busy.
WARMUP_FRAMES = 16

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def limit_blas_threads(nproc):
    """Refuse more BLAS threads than cores; default to one per core."""
    for var in BLAS_ENV:
        value = os.environ.get(var)
        if value is not None and (not value.isdigit() or int(value) > nproc):
            fail(f"{var}={value}: more BLAS threads than the {nproc} cores available")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", str(nproc)))


def blas_threads():
    """Threads OpenBLAS reports for itself, or None if it is not loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine_facts(np, nproc):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    threads = blas_threads()
    if threads is None:
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    if threads > nproc:
        fail(f"BLAS runs {threads} threads on {nproc} cores")
    return {"nproc": nproc, "cpu": model,
            "blas": blas.get("openblas configuration") or f"{blas['name']} {blas['version']}",
            "blas_threads": threads, "numpy": np.__version__,
            "python": sys.version.split()[0]}


class Run:
    """Counts operations (stage calls and checks) and times stages."""

    def __init__(self, cli, seed, tracer):
        self.cli = cli
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def stage(self, name, argv):
        """Run one CLI stage as a counted operation; its seconds, or None if it failed."""
        self.attempted += 1
        seconds = self.invoke(name, argv)
        if seconds is None:
            self.failed += 1
        return seconds

    def invoke(self, name, argv):
        """Run one CLI stage; its seconds, or None if it failed."""
        argv = [name] + list(argv) + ["--seed", str(self.seed)]
        span = self.tracer.span(f"stage.{name}") if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(sys.stderr):
                code = self.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - t0
        if code != 0:
            print(f"stage failed ({code}): ptychokit {' '.join(argv)}", file=sys.stderr)
            return None
        return seconds

    def check(self, name, fn, *args):
        """Run one output check as a counted operation."""
        from checks import CheckFailed

        self.attempted += 1
        try:
            fn(*args)
        except CheckFailed as exc:
            self.failed += 1
            self.correct = False
            print(f"check {name} FAILED: {exc}", file=sys.stderr)
        except Exception:
            self.failed += 1
            print(f"check {name} could not run:", file=sys.stderr)
            traceback.print_exc()


def sets(keys):
    return [a for k in keys for a in ("--set", k)]


def set_up(run, spec, name, out, pk, times):
    """Make the workload's fixed input in `out`; its seconds.

    Training workloads simulate their dataset (its seconds also go to
    times["simulate"]). Reconstruct writes an untrained n_c=32 checkpoint,
    loads it back and warms the model up with a forward pass on a seeded
    batch, as a deployment would before serving.
    Set-up is not counted as operations: if it fails, the run stops.
    """
    import numpy as np

    t0 = time.perf_counter()
    if spec["train"] is None:
        cfg = pk.config.RunConfig()
        cfg.set_master_seed(run.seed)
        mcfg = cfg.model_cfg()
        pk.model.save_checkpoint(out, pk.model.init_params(mcfg), mcfg, seed=run.seed,
                                 config_hash=cfg.data_hash())
        params, mcfg, _ = pk.model.load_checkpoint(out)
        n = cfg["probe_size"]
        batch = np.random.default_rng(run.seed).uniform(0.0, cfg["i_sat"], (WARMUP_FRAMES, n, n))
        pk.model.forward(batch, params, mcfg)
    else:
        seconds = run.invoke("simulate", ["--out", out] + sets(spec["data"]))
        if seconds is None:
            fail(f"set-up of {name}: simulate failed")
        times["simulate"].append(seconds)
    return time.perf_counter() - t0


def one_round(run, spec, work, fixed, pk, times, sample_setup):
    """One round: the timed stages, then the checks of their outputs.

    Training workloads time `train`; reconstruct times `simulate` through
    `epie`. Appends each stage's seconds to `times`, and their sum to
    times["wall"]; calls sample_setup() before the first stage and after
    each. Returns the dataset's frame counts by split, plus "all".
    """
    import numpy as np
    import checks

    d = {k: os.path.join(work, k) for k in ("data", "train", "pred", "stitch", "eval",
                                            "spectrum", "epie")}
    for path in d.values():
        shutil.rmtree(path, ignore_errors=True)
    data_keys = sets(spec["data"])
    wall = []

    def stage(name, argv):
        seconds = run.stage(name, argv)
        if seconds is not None:
            times[name].append(seconds)
            wall.append(seconds)
        sample_setup()

    sample_setup()

    if spec["train"] is None:
        data_dir, ckpt = d["data"], fixed
        stage("simulate", ["--out", data_dir] + data_keys)
        stage("infer", ["--ckpt", ckpt, "--data", data_dir, "--out", d["pred"],
                        "--split", "test"])
        stage("stitch", ["--pred", d["pred"], "--out", d["stitch"]] + data_keys)
        stage("evaluate", ["--ckpt", ckpt, "--data", data_dir, "--out", d["eval"],
                           "--split", "test"] + data_keys)
        stage("spectrum", ["--grid", os.path.join(d["eval"], "phase_hat.ptg"),
                           "--out", d["spectrum"]])
        stage("epie", ["--data", data_dir, "--out", d["epie"]] + data_keys
              + sets([f"epie_iters={spec['epie_iters']}"]))
    else:
        data_dir = fixed
        stage("train", ["--data", data_dir, "--out", d["train"]] + data_keys
              + sets(spec["train"]))
    times["wall"].append(sum(wall))
    times["peak_rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    if run.tracer:
        run.tracer.uninstall()
    rng = np.random.default_rng(run.seed)
    data = checks.DataDir(data_dir)
    if spec["train"] is not None:
        run.check("lr_schedule", checks.lr_schedule, data, d["train"])
        run.check("loss_decreases", checks.loss_decreases, d["train"])
        batch = []
        run.check("checkpoint_batch",
                  lambda: batch.append(checks.CheckpointBatch(data, d["train"], pk)))
        run.check("loss_matches_float64", lambda: checks.loss_matches(d["train"], batch[0], pk))
        run.check("unit_circle", lambda: checks.unit_circle(batch[0], pk))
    else:
        run.check("forward_model", checks.forward_model, data, rng)
        run.check("parseval", checks.parseval, data)
        pred = []
        run.check("read_predictions", lambda: pred.append(checks.PredDir(d["pred"])))
        run.check("predictions", lambda: checks.predictions(data, pred[0]))
        run.check("stitch", lambda: checks.stitched(data, pred[0], d["stitch"]))
        run.check("ssim", lambda: checks.ssim(data, pred[0], d["eval"], rng, pk.recon))
        run.check("psnr", lambda: checks.psnr(data, pred[0], d["eval"]))
        run.check("bands", checks.bands, d["eval"], d["spectrum"])
        run.check("epie_error", checks.epie_converges, d["epie"])
    if run.tracer:
        run.tracer.install()
    counts = {split: len(data.indices(split)) for split in ("train", "val", "test")}
    counts["all"] = len(data.rows)
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "ptychokit", "cli.py")):
        fail(f"no ptychokit sources under {SRC}; run from a source checkout")
    nproc = len(os.sched_getaffinity(0))
    limit_blas_threads(nproc)
    sys.path[:0] = [SRC, HERE]

    import importlib
    import numpy as np

    from ptychokit import cli

    pk = argparse.Namespace(**{m: importlib.import_module(f"ptychokit.{m}")
                               for m in ("autodiff", "circphase", "config", "losses",
                                         "model", "recon")})
    import spans as tracing

    facts = machine_facts(np, nproc)
    spec = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    run = Run(cli, args.seed, tracer)
    times = collections.defaultdict(list)
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        if tracer:
            tracer.install()
        fixed = os.path.join(work, "setup")
        setup_times = [set_up(run, spec, args.workload, fixed, pk, times)]

        def sample_setup():
            """Time extra set-ups into a scratch directory (untraced runs only)."""
            if tracer:
                return
            for _ in range(SETUP_SAMPLES[args.workload]):
                out = os.path.join(work, "setup-sample")
                setup_times.append(set_up(run, spec, args.workload, out, pk, times))
                shutil.rmtree(out)

        rounds = 0
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            counts = one_round(run, spec, work, fixed, pk, times, sample_setup)
            rounds += 1
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def med(key):
        return statistics.median(times[key]) if times[key] else float("nan")

    stage_summary = ", ".join(f"{k} {med(k):.3f} (n={len(v)})" for k, v in times.items()
                              if k != "peak_rss_mb")
    if tracer:
        src_lines = sum(sum(1 for _ in open(p)) for p in
                        glob.glob(os.path.join(SRC, "ptychokit", "**", "*.py"), recursive=True))
        if spec["train"]:
            epochs = int(dict(k.split("=") for k in spec["train"])["epochs"])
            stage_work = {"train": epochs * counts["train"], "simulate": counts["all"]}
        else:
            stage_work = {"simulate": counts["all"], "infer": counts["test"],
                          "evaluate": counts["test"],
                          "epie": counts["all"] * spec["epie_iters"]}
        values = tracing.layer_metrics(tracer.spans, stage_work, src_lines)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        print(f"traced, {rounds} round(s); median seconds: {stage_summary}", file=sys.stderr)
        for name, secs in sorted(tracing.self_times(tracer.spans).items(), key=lambda kv: -kv[1])[:25]:
            print(f"  self {secs:9.4f} s  {name}", file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": med("wall"),
            "peak_rss_mb": times["peak_rss_mb"][-1],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"{rounds} round(s); median seconds: {stage_summary}", file=sys.stderr)
    print(json.dumps({"machine": facts, "workload": args.workload, "seed": args.seed,
                      "rounds": rounds}))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def layer_unit(name):
    if name.endswith("samples_per_s"):
        return "samples/s"
    if name.endswith("frames_per_s"):
        return "frames/s"
    if name.endswith("positions_per_s"):
        return "positions/s"
    if name.endswith("_s"):
        return "s"
    if name == "package.src_lines":
        return "lines"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
