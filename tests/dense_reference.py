"""The dense matrix of a quasiaffinity operator: the tests' reference for the copy-row blocks."""

import numpy as np

from c0ops.subspaces import CopyBlocks, _rows


def dense(op: CopyBlocks) -> np.ndarray:
    """The copy rows expanded: weights on the diagonal, head blocks in the first copy's rows."""
    d = op.dim
    out = np.eye(op.copies * d, dtype=complex)
    for copy_list, weights, head in op.rows:
        idx = _rows(copy_list, d)
        out[idx, idx] = np.repeat(weights, d)
        for i, block in head:
            out[np.ix_(idx[:d], idx[i * d : (i + 1) * d])] += block
    return out
