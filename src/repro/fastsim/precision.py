"""The dtypes of the vectorized kernel's arrays, named in one place.

``FastSimState`` holds one O(n_keys) write-time array (two once content
has been refreshed) plus two O(num_peers) masks (liveness, and the peers
seen on the index path), and each lane's ``Membership`` one more. The write times are float64 and the
content versions int64: the layout every pinned capture in
``tests/fastsim/data`` was recorded under, so seeded results are
bit-identical to them. This module is the only fastsim file allowed to
name a concrete dtype (invariant RL103); every other array routes its
width through the constants below.

Per-peer masks stay ``bool`` (numpy's 1-byte bool is already minimal) and
workload rank/key vectors stay int64: they index arrays directly and
narrowing them would force casts on every fancy-indexing operation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["INDEX_DTYPE", "PROB_DTYPE", "TIME_DTYPE", "VERSION_DTYPE"]

#: Dtype of ``FastSimState.written_at``: one write time per key.
TIME_DTYPE = np.dtype(np.float64)

#: Dtype of ``FastSimState.indexed_version``: the content version each
#: index entry captured on its (re-)insert.
VERSION_DTYPE = np.dtype(np.int64)

#: Dtype of the draw pipeline's rank/key index vectors (and any other
#: array used for fancy indexing).
INDEX_DTYPE = np.dtype(np.int64)

#: Dtype of probability/draw intermediates (uniform draws, resolution
#: probabilities, turnover thresholds): the Zipf tables and RNG draw path
#: are float64.
PROB_DTYPE = np.dtype(np.float64)
