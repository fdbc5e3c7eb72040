"""scripts/graph_memory.py, loaded by path from the checkout, counts each
buffer at the op that made it, whatever the operand order."""
import numpy as np

from lkareid import tensor as T

from conftest import load_script


def test_by_op_rows_do_not_depend_on_operand_order():
    graph_bytes = load_script("graph_memory").graph_bytes
    rows = []
    for swap in (False, True):
        x = T.Tensor(np.ones((4, 4)), requires_grad=True)
        a = T.mul(x, 2.0)  # owns a 128-byte buffer; r is a view of it
        r = T.reshape(T.reshape(a, (16,)), (4, 4))
        by_op, _, _ = graph_bytes(T.tsum(T.add(r, a) if swap else T.add(a, r)))
        rows.append(dict(by_op))
    assert rows[0] == rows[1]
    assert rows[0]["mul"] == 128 and rows[0]["reshape"] == 0
