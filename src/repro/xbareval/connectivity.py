"""Batched percolation connectivity on ``(B, R, C)`` conduction tensors.

The scalar references live in :mod:`repro.crossbar.paths`:

* :func:`repro.crossbar.paths.top_bottom_connected` — union-find over one
  grid's ON sites (4-adjacency);
* :func:`repro.crossbar.paths.left_right_blocked_8` — union-find over one
  grid's OFF sites (8-adjacency), the percolation dual.

Here the same questions are answered for a whole *batch* of grids at
once, by one of two kernels per dual:

* the **label pass**, the production path: the batch is stacked into one
  image with blank separator rows and labelled in one
  :func:`scipy.ndimage.label` call, and connectivity is then a
  components-touching-both-edges lookup;
* the **unpacked boolean flood**, the bit-exact reference the property
  suite measures the label pass against.  It is also the fallback: a
  scipy failure mid-call (ABI drift, broken extension) degrades the
  process to the flood with one logged event instead of raising
  mid-campaign.

Both kernels are bit-exact against the scalar references on all inputs
(the property suite in ``tests/test_xbareval.py`` asserts agreement on
hypothesis-generated batches, including the top-bottom/left-right
percolation-duality invariant).
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage as _ndimage

from . import events as _events

#: 4- and 8-neighbourhood structuring elements for the label pass.
_STRUCT_4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
_STRUCT_8 = np.ones((3, 3), dtype=np.int64)

#: Health flag for the scipy label pass: a runtime failure (ABI drift,
#: broken extension) flips it off for the rest of the process with one
#: logged event, and every later batch takes the unpacked flood.
_label_healthy = True


def _degrade_label_pass(error: Exception) -> None:
    """Disable the label pass for this process, logging once."""
    global _label_healthy
    if not _label_healthy:  # pragma: no cover - second failure races only
        return
    _label_healthy = False
    # Through the kernel event seam (repro.xbareval.events): the sink is
    # injected by the composition root, keeping this module obs-free.
    _events.emit("xbareval.connectivity",
                 "scipy label pass failed, degrading to the unpacked flood",
                 error=f"{type(error).__name__}: {error}")


def _as_batch(grids: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(grids, dtype=bool)
    if arr.ndim != 3:
        raise ValueError(
            f"expected a (batch, rows, cols) conduction tensor, got shape {arr.shape}"
        )
    return arr


def _top_bottom_connected_unpacked(grids: np.ndarray) -> np.ndarray:
    """Boolean-tensor flood — the reference and the fallback kernel."""
    rows, cols = grids.shape[1:]
    reach = np.zeros_like(grids)
    reach[:, 0, :] = grids[:, 0, :]
    while True:
        before = reach.copy()
        for r in range(1, rows):
            reach[:, r, :] |= reach[:, r - 1, :] & grids[:, r, :]
        for r in range(rows - 2, -1, -1):
            reach[:, r, :] |= reach[:, r + 1, :] & grids[:, r, :]
        for c in range(1, cols):
            reach[:, :, c] |= reach[:, :, c - 1] & grids[:, :, c]
        for c in range(cols - 2, -1, -1):
            reach[:, :, c] |= reach[:, :, c + 1] & grids[:, :, c]
        if np.array_equal(reach, before):
            break
    return reach[:, rows - 1, :].any(axis=1)


def _top_bottom_connected_label(grids: np.ndarray) -> np.ndarray:
    """All grids in one C-level ``scipy.ndimage.label`` pass.

    The batch is stacked vertically with one blank separator row per grid
    (a single OFF row blocks 4-adjacency between neighbours), labelled
    once, and a grid conducts iff some component touches both its top and
    bottom rows.
    """
    batch, rows, cols = grids.shape
    padded = np.zeros((batch, rows + 1, cols), dtype=bool)
    padded[:, :rows, :] = grids
    labels, num = _ndimage.label(padded.reshape(batch * (rows + 1), cols),
                                 structure=_STRUCT_4)
    lab = labels.reshape(batch, rows + 1, cols)
    top = lab[:, 0, :]
    bottom = lab[:, rows - 1, :]
    top_mask = np.zeros(num + 1, dtype=bool)
    bottom_mask = np.zeros(num + 1, dtype=bool)
    top_mask[top.ravel()] = True
    bottom_mask[bottom.ravel()] = True
    common = top_mask & bottom_mask
    common[0] = False
    return common[top].any(axis=1)


def top_bottom_connected_batch(grids: np.ndarray) -> np.ndarray:
    """Per-grid top-bottom 4-connectivity through ON sites.

    Args:
        grids: boolean ``(B, R, C)`` conduction tensor.

    Returns:
        Boolean ``(B,)`` array; entry ``b`` equals
        ``top_bottom_connected(grids[b])`` (the scalar union-find
        reference), for every grid of the batch.
    """
    grids = _as_batch(grids)
    batch, rows, cols = grids.shape
    if rows == 0 or cols == 0 or batch == 0:
        return np.zeros(batch, dtype=bool)
    if _label_healthy:
        try:
            return _top_bottom_connected_label(grids)
        except Exception as error:  # scipy ABI / extension failure
            _degrade_label_pass(error)
    return _top_bottom_connected_unpacked(grids)


def _left_right_blocked_8_unpacked(grids: np.ndarray) -> np.ndarray:
    rows, cols = grids.shape[1:]
    off = ~grids
    reach = np.zeros_like(off)
    reach[:, :, 0] = off[:, :, 0]
    while True:
        before = reach.copy()
        for r in range(1, rows):
            reach[:, r, :] |= reach[:, r - 1, :] & off[:, r, :]
        for r in range(rows - 2, -1, -1):
            reach[:, r, :] |= reach[:, r + 1, :] & off[:, r, :]
        for c in range(1, cols):
            prev = reach[:, :, c - 1]
            cand = prev.copy()
            cand[:, 1:] |= prev[:, :-1]
            cand[:, :-1] |= prev[:, 1:]
            reach[:, :, c] |= cand & off[:, :, c]
        for c in range(cols - 2, -1, -1):
            nxt = reach[:, :, c + 1]
            cand = nxt.copy()
            cand[:, 1:] |= nxt[:, :-1]
            cand[:, :-1] |= nxt[:, 1:]
            reach[:, :, c] |= cand & off[:, :, c]
        if np.array_equal(reach, before):
            break
    return reach[:, :, cols - 1].any(axis=1)


def _left_right_blocked_8_label(grids: np.ndarray) -> np.ndarray:
    """OFF-site 8-connectivity via one batched label pass.

    Same separator-row stacking as the top-bottom kernel (one blank row
    also blocks diagonal adjacency); a grid is blocked iff some OFF
    component touches both its left and right columns.
    """
    batch, rows, cols = grids.shape
    padded = np.zeros((batch, rows + 1, cols), dtype=bool)
    padded[:, :rows, :] = ~grids
    labels, num = _ndimage.label(padded.reshape(batch * (rows + 1), cols),
                                 structure=_STRUCT_8)
    lab = labels.reshape(batch, rows + 1, cols)
    left = lab[:, :rows, 0]
    right = lab[:, :rows, cols - 1]
    left_mask = np.zeros(num + 1, dtype=bool)
    right_mask = np.zeros(num + 1, dtype=bool)
    left_mask[left.ravel()] = True
    right_mask[right.ravel()] = True
    common = left_mask & right_mask
    common[0] = False
    return common[left].any(axis=1)


def left_right_blocked_8_batch(grids: np.ndarray) -> np.ndarray:
    """Per-grid left-right 8-connectivity through OFF sites.

    Args:
        grids: boolean ``(B, R, C)`` conduction tensor (ON sites are
            ``True``; the flood runs over the OFF complement).

    Returns:
        Boolean ``(B,)`` array; entry ``b`` equals
        ``left_right_blocked_8(grids[b])`` (the scalar union-find
        reference): an 8-connected path of OFF sites joins the left and
        right edges.
    """
    grids = _as_batch(grids)
    batch, rows, cols = grids.shape
    if rows == 0 or cols == 0:
        # Degenerate grids are "blocked" by convention (scalar reference).
        return np.ones(batch, dtype=bool)
    if batch == 0:
        return np.zeros(0, dtype=bool)
    if _label_healthy:
        try:
            return _left_right_blocked_8_label(grids)
        except Exception as error:  # scipy ABI / extension failure
            _degrade_label_pass(error)
    return _left_right_blocked_8_unpacked(grids)


def percolation_duality_holds_batch(grids: np.ndarray) -> np.ndarray:
    """Per-grid check of the site-percolation duality.

    The top and bottom edges are ON-disconnected exactly when an
    8-connected OFF path joins the left and right edges; returns the
    boolean ``(B,)`` array of "duality holds" flags (all ``True`` for any
    well-formed grid — a test invariant, mirroring the scalar
    :func:`repro.crossbar.paths.percolation_duality_holds`).
    """
    grids = _as_batch(grids)
    return top_bottom_connected_batch(grids) == ~left_right_blocked_8_batch(grids)
