"""Show what a criterion-7 training graph holds, and the backward's peak.

    python3 scripts/graph_memory.py --attention on

Runs one step's forward and losses of the criterion-7 run that
``tests/criterion7.py`` defines, with ``training.step_losses`` as
``train_step`` does, from the library in this checkout's ``src/``, and prints:

    traced      the bytes tracemalloc sees allocated after the losses, and
                the backward's traced peak, leaves' gradients included
    by op       the bytes of the graph's non-leaf node data, per producing op
    by closure  the bytes that backward closures keep beyond any node's
                data, per op and closure variable

An array counts once, at the buffer that owns it, and at the op that made
that buffer: a view of a node's data (a reshape, say) adds nothing, and a
closure variable shows up only when it holds a buffer that no node's data
shares.  Parameters and the input batch are leaves, counted apart; the
parameters are allocated before tracing starts.  The reports of two
checkouts compare directly: run the script in each.
"""
from __future__ import annotations

import argparse
import importlib.util
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRITERION7 = ROOT / "tests" / "criterion7.py"


def _owner(a):
    """The object that owns `a`'s buffer, following views and strided views."""
    while getattr(a, "base", None) is not None:
        a = a.base
    return a


def _cells(closure):
    """(variable name, value) of each set cell of a closure."""
    for var, cell in zip(closure.__code__.co_freevars, closure.__closure__ or ()):
        try:
            yield var, cell.cell_contents
        except ValueError:  # a cell not yet set
            continue


def _op_name(closure):
    """The op that made a node, from its backward closure's name; a conv is
    split by kind."""
    name = closure.__qualname__.split(".")[0]
    spec = dict(_cells(closure)).get("spec")
    if name == "conv2d" and spec is not None:
        name += " dense" if spec.groups == 1 else " depthwise"
    return name


def graph_bytes(loss):
    """(bytes by op, bytes by (op, closure variable), leaf bytes) of the
    graph behind `loss`, each buffer counted once, node data first.

    Nodes are walked in post-order, as ``tensor.backward`` orders them: a
    node comes after every node it was made from, so a buffer shared with
    views counts at the op that made it, whatever the operand order."""
    import numpy as np

    nodes, stack, seen = [], [(loss, False)], set()
    while stack:
        node, done = stack.pop()
        if done:
            nodes.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._prev)

    counted = set()

    def fresh(a):
        owner = _owner(a)
        if id(owner) in counted:
            return 0
        counted.add(id(owner))
        return getattr(owner, "nbytes", 0)

    leaves = sum(fresh(n.data) for n in nodes if n._backward is None)
    inner = [n for n in nodes if n._backward is not None]
    by_op, by_var = Counter(), Counter()
    for node in inner:
        by_op[_op_name(node._backward)] += fresh(node.data)
    for node in inner:
        op = _op_name(node._backward)
        for var, value in _cells(node._backward):
            for item in value if isinstance(value, (tuple, list)) else (value,):
                if isinstance(item, np.ndarray):
                    by_var[op, var] += fresh(item)
    return by_op, by_var, leaves


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--attention", choices=("on", "off"), default="on")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from lkareid.tensor import backward

    spec = importlib.util.spec_from_file_location("lkareid_criterion7", CRITERION7)
    criterion7 = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(criterion7)
    forward = criterion7.step_forward(args.attention == "on")
    forward()  # first-call caches (tap windows, rank maps) are not the graph's
    tracemalloc.start()
    try:
        loss = forward()
        held, _ = tracemalloc.get_traced_memory()
        by_op, by_var, leaves = graph_bytes(loss)
        tracemalloc.reset_peak()
        backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    def row(kind, label, nbytes, note=""):
        print(f"{kind:11s} {label:32s} {nbytes / 1e6:8.2f} MB{note}")

    print(f"criterion-7 config, one step's forward and losses, attention {args.attention}")
    row("traced", "held after the losses", held)
    row("traced", "backward peak", peak, f"  ({peak / held:.3f}x held)")
    row("leaves", "parameters, input", leaves)
    row("graph", "node data", sum(by_op.values()))
    row("graph", "closures beyond data", sum(by_var.values()))
    for op, nbytes in by_op.most_common():
        row("by op", op, nbytes)
    for (op, var), nbytes in by_var.most_common():
        if nbytes:
            row("by closure", f"{op}.{var}", nbytes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
