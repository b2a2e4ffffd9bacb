"""Spans recorded from outside ptychokit by wrapping its public functions.

A span is (name, start, end, parent, attrs). Spans stay in memory until the
run ends; per-layer metrics are computed from them afterwards. The program is
not changed: `Tracer.install` replaces module attributes with timing wrappers
and `Tracer.uninstall` puts the originals back. Calls between ptychokit
modules go through module attributes (`ad.conv2d`, `gridio.write_grid`), and
calls inside a module through its globals, so both reach the wrappers.

Backward work is traced by wrapping the closures that ops put on the tape:
`autodiff.backward` swaps each (tensor, closure) node for a timed closure for
the duration of the call. Each closure is attributed to the op that made its
tensor, the model layer whose weight that op used, and the loss functions that
were running when it was made.
"""

import contextlib
import importlib
import inspect
import os
import re
import statistics
import weakref
from time import perf_counter

LAYERS = ("autodiff", "model", "losses", "train", "recon", "dataset", "physics",
          "gridio", "epie", "circphase")

ELEMENTWISE = {"add", "sub", "mul", "div", "scale", "add_const", "square",
               "sqrt_eps", "relu", "tanh", "sigmoid", "abs_"}
OP_KIND = {"conv2d": "conv2d", "upsample_bilinear2x": "upsample"}
LOSS_CONTEXTS = ("losses.total_loss", "losses.ssim")

ROLES = ("enc_c1", "enc_c2", "enc_c3", "fusion", "skip_c1", "skip_c2",
         "dec_b1c1", "dec_b1c2", "dec_b2c1", "dec_b2c2", "dec_b3c1", "dec_b3c2",
         "dec_out")


def role_of(param_name):
    """'enc1_c2.w' -> 'enc_c2', 'dec_cos_b3c1.w' -> 'dec_b3c1', 'fusion.w' -> 'fusion'."""
    layer = param_name.rsplit(".", 1)[0]
    m = re.fullmatch(r"enc\d+_(\w+)", layer)
    if m:
        return "enc_" + m.group(1)
    m = re.fullmatch(r"dec_[a-z]+_(\w+)", layer)
    if m:
        return "dec_" + m.group(1)
    return layer


def op_kind(op):
    if op in OP_KIND:
        return OP_KIND[op]
    return "elementwise" if op in ELEMENTWISE else "other"


class Tracer:
    """Wraps ptychokit's public functions and keeps the spans they record."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, attrs]
        self._stack = []
        self._restore = []
        self._tags = weakref.WeakKeyDictionary()  # tensor -> (op, role, contexts)
        self._param_names = []  # one {id(tensor): name} per open model.forward
        self._tape_cls = None

    # -- spans -------------------------------------------------------------

    def _open(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, attrs or {}])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        self._stack.pop()
        span[2] = perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _open_names(self):
        return {self.spans[i][0] for i in self._stack}

    def _tape_active(self):
        return getattr(self._tape_cls, "_active", None) is not None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, qualname, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before else None
            span = tracer._open(qualname, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after:
                after(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _tag_result(self, op):
        def after(span, args, kwargs, result):
            if hasattr(result, "requires_grad") and self._tape_active():
                contexts = tuple(c for c in LOSS_CONTEXTS if c in self._open_names())
                self._tags[result] = (op, span[4].get("role"), contexts)
        return after

    def _conv_role(self, args, kwargs):
        w = args[1] if len(args) > 1 else kwargs.get("w")
        for names in reversed(self._param_names):
            if id(w) in names:
                return {"role": role_of(names[id(w)])}
        return {}

    def _forward_wrapper(self, fn):
        tracer = self
        traced = self._wrap("model.forward", fn,
                            before=lambda a, k: {"tape": tracer._tape_active()})

        def forward(intensity, params, *args, **kwargs):
            tensors = getattr(params, "tensors", {})
            tracer._param_names.append({id(t): n for n, t in tensors.items()})
            try:
                return traced(intensity, params, *args, **kwargs)
            finally:
                tracer._param_names.pop()

        return forward

    def _bytes_written(self, span, args, kwargs, result):
        path = args[0] if args else kwargs.get("path")
        span[4]["bytes"] = os.path.getsize(path)

    def _backward_wrapper(self, fn):
        tracer = self

        def backward(tape, loss, *args, **kwargs):
            nodes = tape.nodes
            span = tracer._open("autodiff.backward", {"nodes": len(nodes)})
            try:
                tape.nodes = [tracer._timed_node(node) for node in nodes]
                return fn(tape, loss, *args, **kwargs)
            finally:
                tape.nodes = nodes
                tracer._close(span)

        return backward

    def _timed_node(self, node):
        out, closure = node[0], node[1]
        op, role, contexts = self._tags.get(out, (None, None, ()))
        if op is None:  # made outside a traced op, e.g. a module-private helper
            op = closure.__qualname__.split(".")[0].lstrip("_")
        attrs = {"role": role, "contexts": contexts}
        name = f"autodiff.{op}.bwd"
        tracer = self

        def timed(g):
            span = tracer._open(name, attrs)
            try:
                return closure(g)
            finally:
                tracer._close(span)

        return (out, timed) + tuple(node[2:])

    def install(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"ptychokit.{layer}")
            if layer == "autodiff":
                self._tape_cls = getattr(mod, "Tape", None)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name == "autodiff.backward":
                    wrapped = self._backward_wrapper(fn)
                elif name == "model.forward":
                    wrapped = self._forward_wrapper(fn)
                elif name == "autodiff.conv2d":
                    wrapped = self._wrap(name, fn, before=self._conv_role,
                                         after=self._tag_result(attr))
                elif layer == "autodiff":
                    wrapped = self._wrap(name, fn, after=self._tag_result(attr))
                elif name in LOSS_CONTEXTS:
                    wrapped = self._wrap(name, fn,
                                         before=lambda a, k: {"tape": self._tape_active()})
                elif name == "gridio.write_grid":
                    wrapped = self._wrap(name, fn, after=self._bytes_written)
                else:
                    wrapped = self._wrap(name, fn)
                setattr(mod, attr, wrapped)
                self._restore.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore = []


# ---------------------------------------------------------------------------
# per-layer metrics

def _dur(span):
    return span[2] - span[1]


def _outermost(spans, names, where=None):
    """Spans named in `names` with no ancestor also named in `names`."""
    out = []
    for s in spans:
        if s[0] not in names or (where and not where(s)):
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out.append(s)
    return out


def _total(spans, names, where=None):
    return sum(_dur(s) for s in _outermost(spans, set(names), where))


def _inside(spans, span, name):
    p = span[3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def _train_steps(spans):
    """A step runs from train.cyclic_lr to the end of the next train.adam_step."""
    starts = sorted(s[1] for s in spans if s[0] == "train.cyclic_lr")
    ends = sorted(s[2] for s in spans if s[0] == "train.adam_step")
    steps, j = [], 0
    for t0 in starts:
        while j < len(ends) and ends[j] < t0:
            j += 1
        if j < len(ends):
            steps.append(ends[j] - t0)
            j += 1
    return steps


def self_times(spans):
    """Per span name: total duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += _dur(s)
    out = {}
    for i, s in enumerate(spans):
        out[s[0]] = out.get(s[0], 0.0) + _dur(s) - child[i]
    return out


STAGE_RATES = {"train": "train_samples_per_s", "simulate": "simulate_frames_per_s",
               "infer": "infer_frames_per_s", "evaluate": "evaluate_frames_per_s",
               "epie": "epie_positions_per_s"}


def layer_metrics(spans, stage_work, src_lines):
    """Every per-layer metric from one traced run's spans.

    stage_work maps a stage to the items one call of it processes (training
    samples stepped, frames, or ePIE positions x sweeps); a stage that did
    not run reports a rate of 0.
    """
    m = {}
    names = {s[0] for s in spans}
    bwd = [s for s in spans if s[0].endswith(".bwd")]

    def bwd_total(pred):
        return sum(_dur(s) for s in bwd if pred(s))

    def kind(s):
        return op_kind(s[0][len("autodiff."):-len(".bwd")])

    elementwise = {f"autodiff.{op}" for op in ELEMENTWISE}
    m["autodiff.conv2d.fwd_s"] = _total(spans, {"autodiff.conv2d"})
    m["autodiff.conv2d.bwd_s"] = bwd_total(lambda s: kind(s) == "conv2d")
    m["autodiff.conv2d.calls"] = sum(1 for s in spans if s[0] == "autodiff.conv2d")
    m["autodiff.upsample.fwd_s"] = _total(spans, {"autodiff.upsample_bilinear2x"})
    m["autodiff.upsample.bwd_s"] = bwd_total(lambda s: kind(s) == "upsample")
    m["autodiff.elementwise.fwd_s"] = _total(spans, elementwise & names)
    m["autodiff.elementwise.bwd_s"] = bwd_total(lambda s: kind(s) == "elementwise")
    nodes = [s[4]["nodes"] for s in spans if s[0] == "autodiff.backward"]
    m["autodiff.tape_nodes_per_step"] = statistics.median(nodes) if nodes else 0

    m["model.forward_s"] = _total(spans, {"model.forward"})
    for role in ROLES:
        m[f"model.layer.{role}.fwd_s"] = sum(
            _dur(s) for s in spans
            if s[0] == "autodiff.conv2d" and s[4].get("role") == role)
        m[f"model.layer.{role}.bwd_s"] = bwd_total(lambda s, r=role: s[4].get("role") == r)
    m["model.save_checkpoint_s"] = _total(spans, {"model.save_checkpoint"})
    m["model.load_checkpoint_s"] = _total(spans, {"model.load_checkpoint"})

    for ctx in LOSS_CONTEXTS:
        m[f"{ctx}.fwd_s"] = _total(spans, {ctx})
        m[f"{ctx}.bwd_s"] = bwd_total(lambda s, c=ctx: c in s[4].get("contexts", ()))
    m["losses.ssim_value_s"] = _total(spans, {"losses.ssim_value"})

    steps = _train_steps(spans)
    m["train.steps"] = len(steps)
    m["train.step_s"] = statistics.median(steps) if steps else 0.0
    m["train.optimizer_s"] = _total(spans, {"train.clip_grad_norm", "train.adam_step"})
    m["train.validation_s"] = _total(
        spans, {"model.forward", "losses.total_loss"},
        where=lambda s: not s[4].get("tape", True) and _inside(spans, s, "train.train"))

    m["recon.infer_s"] = _total(spans, {"recon.infer"})
    m["recon.stitch_s"] = _total(spans, {"recon.stitch", "recon.stitch_phase"})
    m["recon.metrics_s"] = _total(spans, {"recon.metrics"})
    m["recon.radial_psd_s"] = _total(spans, {"recon.radial_psd"})
    m["recon.report_s"] = _total(spans, {"recon.report"})

    for name in ("make_dataset", "save_dataset", "load_dataset"):
        m[f"dataset.{name}_s"] = _total(spans, {f"dataset.{name}"})
    m["physics.exit_wave_s"] = _total(spans, {"physics.exit_wave"})
    m["physics.diffract_s"] = _total(spans, {"physics.diffract"})

    m["gridio.write_s"] = _total(spans, {"gridio.write_grid", "gridio.write_complex_grid"})
    m["gridio.read_s"] = _total(spans, {"gridio.read_grid", "gridio.read_complex_grid"})
    m["gridio.files_written"] = sum(1 for s in spans if s[0] == "gridio.write_grid")
    m["gridio.files_read"] = sum(1 for s in spans if s[0] == "gridio.read_grid")
    m["gridio.bytes_written"] = sum(s[4].get("bytes", 0) for s in spans
                                    if s[0] == "gridio.write_grid")

    m["epie.reconstruct_s"] = _total(spans, {"epie.epie_reconstruct"})
    m["epie.project_s"] = _total(spans, {"epie.fourier_magnitude_project"})
    m["epie.project_calls"] = sum(1 for s in spans if s[0] == "epie.fourier_magnitude_project")

    for stage, name in STAGE_RATES.items():
        calls = [s for s in spans if s[0] == f"stage.{stage}"]
        seconds = sum(_dur(s) for s in calls)
        m[name] = stage_work.get(stage, 0) * len(calls) / seconds if seconds else 0.0

    m["package.src_lines"] = src_lines
    return m
