"""The dense matrix of a quasiaffinity operator: the tests' reference for the copy-row blocks."""

import numpy as np

from c0ops.subspaces import CopyBlocks, _rows


def dense(op):
    """The operator as a dense matrix: copy-row blocks expanded, a dense X unchanged."""
    if not isinstance(op, CopyBlocks):
        return op
    out = np.eye(op.copies * op.dim, dtype=complex)
    for copy_list, block in op.rows:
        idx = _rows(copy_list, op.dim)
        if block.ndim == 1:
            out[idx, idx] = np.repeat(block, op.dim)
        else:
            out[np.ix_(idx, idx)] = block
    return out
