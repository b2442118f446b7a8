"""Vectorized numpy execution backend (the cost-model path is the oracle).

See DESIGN.md section 12: :class:`ArrayStore` lays a dataset out as
contiguous numpy arrays and :class:`VectorizedBackend` executes the
keywords-only rectangle query over it.  The serving engine
(:class:`repro.service.QueryEngine`) is the one owner: it alone builds a
``VectorizedBackend`` and picks, per query, between it and the scalar
:class:`~repro.core.baselines.KeywordsOnlyIndex`; :data:`BACKENDS` names the
choices it accepts.  Results and charged costs are identical to the
instrumented scalar path by construction and by differential test
(``tests/fast/test_backend_oracle.py``).
"""

from .arrays import ArrayStore
from .backend import BACKENDS, VectorizedBackend, validate_backend

__all__ = ["ArrayStore", "BACKENDS", "VectorizedBackend", "validate_backend"]
