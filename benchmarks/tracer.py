"""Outside-in tracing of lkareid: wrap public functions, record spans.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` swaps
each traced function for a timing wrapper in every ``lkareid`` module that
holds a reference to it (``model`` imports ``lka_forward`` by name,
``training`` imports ``forward_train``, ``cli`` imports the evaluation
functions), and ``Tracer.uninstall`` puts the originals back.  Tensor ops
also get their returned node's ``_backward`` closure wrapped, so backward
time is attributed to the op that created the node.

Spans are kept in memory as ``[name, start, end, parent, op]`` and turned
into per-layer numbers by ``layer_metrics`` once the run is over.  A
layer is the package module a span's function lives in.
"""
from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

CONV_KINDS = ("stem", "trunk", "lka_dw", "lka_dd", "pw")
NAMED_TENSOR_OPS = ("gelu", "adaptive_avg_pool", "anti_pool", "conv1d")
LAYERS = ("tensor", "attention", "model", "training", "evaluation")

# Tensor ops reported one by one; every other op that creates a graph
# node is traced too, under the one span name "tensor.other", so that
# backward's self time is the graph walk alone.
OTHER_TENSOR_OPS = (
    "add", "mul", "matmul", "tsum", "reshape", "transpose", "concat",
    "gather_rows", "sigmoid", "l2_normalize",
)

# (module, attribute, how the wrapper treats the result)
#   node: the result is a Tensor whose _backward is timed too
#   conv: like node, plus kind-labelled spans and work counts
#   plain: time the call only
TRACED = (
    ("tensor", "conv2d", "conv"),
    *(("tensor", op, "node") for op in NAMED_TENSOR_OPS + OTHER_TENSOR_OPS),
    ("tensor", "backward", "plain"),
    ("attention", "lka_forward", "plain"),
    ("attention", "hca_forward", "plain"),
    ("model", "forward_train", "plain"),
    ("model", "extract_features", "plain"),
    ("model", "save_checkpoint", "plain"),
    ("model", "load_checkpoint", "plain"),
    ("training", "train_step", "plain"),
    ("training", "pk_sample", "plain"),
    ("training", "cross_entropy_loss", "node"),
    ("training", "batch_hard_triplet_loss", "node"),
    ("training", "clip_grad_norm", "plain"),
    ("training", "Optimizer.step", "plain"),
    ("evaluation", "load_manifest", "plain"),
    ("evaluation", "evaluate", "plain"),
    ("evaluation", "evaluate_features", "plain"),
    ("evaluation", "pairwise_cosine", "plain"),
    ("evaluation", "apply_protocol_filter", "plain"),
    ("evaluation", "average_precision", "plain"),
    ("evaluation", "cmc_curve", "plain"),
)


def _pair(v):
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


def conv_kind(spec):
    """Label a Conv2dSpec the way the network uses it."""
    if max(_pair(spec.stride)) > 1:
        return "stem"
    if spec.groups > 1:
        return "lka_dd" if max(_pair(spec.dilation)) > 1 else "lka_dw"
    if _pair(spec.kernel) == (1, 1):
        return "pw"
    return "trunk"


def conv_work(spec, x_shape, itemsize):
    """Counted forward FLOPs (2 x MACs) and compulsory bytes moved.

    Bytes are one read of input, weight and bias plus one write of the
    output: the least traffic any kernel can get away with.
    """
    n, c, h, w = x_shape
    kh, kw = _pair(spec.kernel)
    oh, ow = spec.out_size(h, w)
    flops = 2 * n * spec.out_channels * (spec.in_channels // spec.groups) * kh * kw * oh * ow
    elems = n * c * h * w + spec.out_channels * (spec.in_channels // spec.groups) * kh * kw
    elems += spec.out_channels if spec.has_bias else 0
    elems += n * spec.out_channels * oh * ow
    return flops, elems * itemsize


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op label]
        self.counts = defaultdict(Counter)  # op label -> counter name -> value
        self.op = None
        self._stack = []
        self._patches = self._plan()

    # -- span recording ---------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name, value=1):
        self.counts[self.op][name] += value

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _time_backward(self, out, name):
        bw = getattr(out, "_backward", None)
        if bw is not None:
            out._backward = self._timed(name + ".bwd", bw)
        return out

    # -- patching ---------------------------------------------------------

    def _make_wrapper(self, name, fn, how):
        if how == "plain":
            return self._timed(name, fn)
        if how == "node":
            def node_wrapper(*args, **kwargs):
                idx = self._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                return self._time_backward(out, name)

            return node_wrapper

        def conv_wrapper(x, weight, bias, spec, *args, **kwargs):
            kind = conv_kind(spec)
            span = f"tensor.conv2d.{kind}"
            idx = self._open(span)
            try:
                out = fn(x, weight, bias, spec, *args, **kwargs)
            finally:
                self._close(idx)
            flops, nbytes = conv_work(spec, x.shape, x.data.itemsize)
            self.count(span + ".calls")
            self.count(span + ".flops", flops)
            self.count(span + ".bytes", nbytes)
            return self._time_backward(out, span)

        return conv_wrapper

    def _plan(self):
        """Resolve every traced function and every place it is looked up."""
        for layer in LAYERS + ("cli",):
            importlib.import_module(f"lkareid.{layer}")
        modules = {n: m for n, m in sys.modules.items() if n == "lkareid" or n.startswith("lkareid.")}
        patches = []
        for mod_name, attr, how in TRACED:
            home = modules[f"lkareid.{mod_name}"]
            span = "tensor.other" if attr in OTHER_TENSOR_OPS else f"{mod_name}.{attr}"
            if "." in attr:  # a method, patched on its class
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                patches.append((cls, meth, fn, self._make_wrapper(span, fn, how)))
                continue
            fn = getattr(home, attr)
            wrapper = self._make_wrapper(span, fn, how)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        patches.append((mod, key, fn, wrapper))
        return patches

    def install(self, op):
        self.op = op
        for owner, key, _fn, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, fn, _wrapper in self._patches:
            setattr(owner, key, fn)
        self.op = None

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


def _per_op_tables(tracer):
    """op -> {key: ms}: inclusive time per span name, self time per name
    and per layer, and inclusive time per (parent name, name)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    tables = defaultdict(lambda: defaultdict(float))
    for idx, (name, start, end, parent, op) in enumerate(spans):
        dur = (end - start) * 1e3
        self_ms = dur - child_time[idx] * 1e3
        t = tables[op]
        t["incl:" + name] += dur
        t["self:" + name] += self_ms
        t["layer:" + name.split(".", 1)[0]] += self_ms
        parent_name = spans[parent][0] if parent >= 0 else ""
        t[f"under:{parent_name}>{name}"] += dur
    return tables


def _median_present(tables, fn):
    """Median over the ops in which fn finds any work, else 0."""
    values = [v for v in (fn(t) for t in tables.values()) if v is not None]
    return float(statistics.median(values)) if values else 0.0


def _sum_keys(prefix, names):
    def fn(t):
        keys = [prefix + n for n in names if prefix + n in t]
        return sum(t[k] for k in keys) if keys else None

    return fn


def layer_metrics(tracer):
    """Per-layer numbers from the recorded spans and counts.

    Times are ms per operation: the median, over the operations in which
    a span occurs, of that operation's total.  Counts are per operation
    too and must be identical across operations.
    """
    tables = _per_op_tables(tracer)
    out = {}

    def incl(*names):
        return _sum_keys("incl:", names)

    for kind in CONV_KINDS:
        span = f"tensor.conv2d.{kind}"
        out[f"{span}.fwd_ms"] = _median_present(tables, incl(span))
        out[f"{span}.bwd_ms"] = _median_present(tables, incl(span + ".bwd"))
    for name in NAMED_TENSOR_OPS + ("other",):
        out[f"tensor.{name}.fwd_ms"] = _median_present(tables, incl(f"tensor.{name}"))
        out[f"tensor.{name}.bwd_ms"] = _median_present(tables, incl(f"tensor.{name}.bwd"))
    out["tensor.backward.self_ms"] = _median_present(tables, _sum_keys("self:", ["tensor.backward"]))
    out["attention.lka.self_ms"] = _median_present(tables, _sum_keys("self:", ["attention.lka_forward"]))
    out["attention.hca.self_ms"] = _median_present(tables, _sum_keys("self:", ["attention.hca_forward"]))
    for name in ("forward_train", "extract_features", "save_checkpoint", "load_checkpoint"):
        out[f"model.{name}_ms"] = _median_present(tables, incl(f"model.{name}"))
    under = _sum_keys("under:", ["training.train_step>model.forward_train"])
    out["training.step.forward_ms"] = _median_present(tables, under)
    out["training.step.loss_ms"] = _median_present(
        tables, incl("training.cross_entropy_loss", "training.batch_hard_triplet_loss")
    )
    out["training.step.backward_ms"] = _median_present(
        tables, _sum_keys("under:", ["training.train_step>tensor.backward"])
    )
    out["training.step.optimizer_ms"] = _median_present(
        tables, incl("training.clip_grad_norm", "training.Optimizer.step")
    )
    out["training.pk_sample_ms"] = _median_present(tables, incl("training.pk_sample"))
    for metric, span in (
        ("load_manifest_ms", "load_manifest"),
        ("pairwise_cosine_ms", "pairwise_cosine"),
        ("protocol_filter_ms", "apply_protocol_filter"),
        ("average_precision_ms", "average_precision"),
        ("cmc_ms", "cmc_curve"),
    ):
        out[f"evaluation.{metric}"] = _median_present(tables, incl(f"evaluation.{span}"))
    out["evaluation.rank_self_ms"] = _median_present(
        tables, _sum_keys("self:", ["evaluation.evaluate_features"])
    )
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = _median_present(tables, _sum_keys("layer:", [layer]))
    return out


def op_counts(tracer):
    """Per-op counters, plus the names whose value differs between ops."""
    per_op = [c for op, c in tracer.counts.items() if isinstance(op, int)]
    keys = sorted({k for c in per_op for k in c})
    values, unsteady = {}, []
    for key in keys:
        seen = {c.get(key, 0) for c in per_op}
        if len(seen) > 1:
            unsteady.append(key)
        values[key] = statistics.median_low(c.get(key, 0) for c in per_op)
    return values, unsteady
