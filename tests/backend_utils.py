"""Test helper: a pure-Python reference kernel backend.

The ``native`` backend needs cffi and a C compiler, so CI cannot rely on
a second shipped backend for cross-backend equivalence testing.  This
module registers ``pymerge`` — per-pair Python merge loops, the textbook
COMPACT-FORWARD intersection — which is slow but obviously correct and
exercises exactly the contract a compiled backend must satisfy
(including the (pair, ascending element) hit order).  Tests select it
via ``use_backend("pymerge")``.
"""

import numpy as np

from repro.core.backends import KernelBackend, available_backends, register_backend


class ChargeLog:
    """Stands in for a PEContext: records every ``charge``."""

    def __init__(self):
        self.charges = []

    def charge(self, ops):
        self.charges.append(ops)


def _merge_pairs(a_concat, a_xadj, b_concat, b_xadj):
    for i in range(a_xadj.size - 1):
        ai, ae = int(a_xadj[i]), int(a_xadj[i + 1])
        bi, be = int(b_xadj[i]), int(b_xadj[i + 1])
        while ai < ae and bi < be:
            av, bv = a_concat[ai], b_concat[bi]
            if av == bv:
                yield i, av
                ai += 1
                bi += 1
            elif av < bv:
                ai += 1
            else:
                bi += 1


def _count(a_concat, a_xadj, b_concat, b_xadj, vertex_bound):
    counts = np.zeros(a_xadj.size - 1, dtype=np.int64)
    for i, _ in _merge_pairs(a_concat, a_xadj, b_concat, b_xadj):
        counts[i] += 1
    return counts


def _elements(a_concat, a_xadj, b_concat, b_xadj, vertex_bound):
    pairs, elems = [], []
    for i, v in _merge_pairs(a_concat, a_xadj, b_concat, b_xadj):
        pairs.append(i)
        elems.append(v)
    return (
        np.asarray(pairs, dtype=np.int64),
        np.asarray(elems, dtype=np.int64),
    )


def register_pymerge() -> str:
    """Register the reference backend (idempotent); returns its name.

    ``pymerge`` deliberately ships **no** fused ``count_elements``
    kernel, so it also exercises the dispatcher's derivation path
    (counts reconstructed from the hit stream via ``bincount``).
    """
    if "pymerge" not in available_backends():
        register_backend(
            "pymerge", lambda: KernelBackend("pymerge", _count, _elements)
        )
    return "pymerge"


def backend_probe_program(ctx, marker):
    """SPMD program reporting the backend each worker actually resolved.

    Module-level (hence picklable by reference) so it runs under the
    ``spawn`` start method, where the worker re-imports this module —
    ``multiprocessing`` propagates ``sys.path``, and the pymerge
    registration below re-runs inside the fresh interpreter before the
    first dispatch.
    """
    register_pymerge()
    from repro.core.backends import get_backend

    yield
    return (marker, get_backend().name)
