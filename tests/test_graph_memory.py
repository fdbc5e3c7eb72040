"""scripts/graph_memory.py, loaded by path from the checkout, counts each
buffer at the op that made it, whatever the operand order."""
import importlib.util
from pathlib import Path

import numpy as np

from lkareid import tensor as T

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "graph_memory.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("lkareid_graph_memory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_by_op_rows_do_not_depend_on_operand_order():
    graph_bytes = _load_script().graph_bytes
    rows = []
    for swap in (False, True):
        x = T.Tensor(np.ones((4, 4)), requires_grad=True)
        a = T.mul(x, 2.0)  # owns a 128-byte buffer; r is a view of it
        r = T.reshape(T.reshape(a, (16,)), (4, 4))
        by_op, _, _ = graph_bytes(T.tsum(T.add(r, a) if swap else T.add(a, r)))
        rows.append(dict(by_op))
    assert rows[0] == rows[1]
    assert rows[0]["mul"] == 128 and rows[0]["reshape"] == 0
