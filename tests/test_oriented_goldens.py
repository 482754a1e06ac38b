"""Golden digests of every PE's oriented view, in global vertex ids.

:func:`repro.core.preprocessing.build_oriented` (with the ghosts'
local-restricted rows) and
:meth:`~repro.core.preprocessing.OrientedLocalGraph.contracted` feed
both the local and the global phase.  Each digest covers, per PE, the
oriented CSR, the ghost rows, the order keys of owned vertices and
ghosts, and the contracted CSR.  A change in how a PE addresses its
vertices must leave every one of them unchanged.
"""

import hashlib

import numpy as np
import pytest

from repro.core.preprocessing import build_oriented, exchange_ghost_degrees
from repro.graphs import distribute
from repro.graphs import generators as gen
from repro.net import Machine

GRAPHS = {
    "gnm": lambda: gen.gnm(60, 240, seed=7),
    "rmat": lambda: gen.rmat(6, 5, seed=2),
    "star": lambda: gen.star(20),
    "edgeless": lambda: gen.gnm(12, 0, seed=1),
}

GOLDEN_ORIENTED = {
    "edgeless-p1": "e21abf7ff8437a5e79981fb5bb9f22318ee808e2b627ff707cfa8d5af7a158e6",
    "edgeless-p4": "51bda31bfbd76f3c6bed16413fc811225d9d710fe6aa20f0627d419f6ca65980",
    "edgeless-p16": "8bf199baff8e77a58331015903f4b60872ecfdcbd453c371c9a6bd90b95ee5d6",
    "edgeless-pn+3": "9302b8174788fa389396de7ef2766ec8e700d5bed4ebb4844ff0c73d26d0983e",
    "gnm-p1": "5f61c88a51daace199ad96fdb1504f1f16ccb5b61e61feb65b28dec19630205e",
    "gnm-p4": "5c1defe8813bf25b6de4982e6859bc692c6729293661bfd7104c1576ad6a8082",
    "gnm-p16": "53e34f87051adb431295c238da053e23f7dbe8e01c60da6d949e3632f2ef5069",
    "gnm-pn+3": "3c5ac3634876e0240e4d34dc9f52514df8470d795fd986cd832ad88005f2daeb",
    "rmat-p1": "807dd82ad4cab25442175258c54a6fc509ecc75e68356b473fe832b6b066c7d9",
    "rmat-p4": "91773a5cd62ebc9f1530cad09b27cc807a1e674886359f7a405b16cf0135ab96",
    "rmat-p16": "efddb5df14aae0103725fb9bf1c45907bc08957f599815a65a4d4d3276a6bfe2",
    "rmat-pn+3": "57efe1f10f08c034ce9e8db078aab25bb42ba2ec42b7f44300b1c2184f94ba6f",
    "star-p1": "0056171b51685e13406bd4c6e67fbc50d32e149a59575e051d4aa3481333f77c",
    "star-p4": "b5bb76df06ef58e8de580c6f997fe428d51cd62076d3bcd43dc2a363f072981d",
    "star-p16": "9fe62560254a8896388acdbbbc6cbef94b155caca552cb3164b4184895162f9e",
    "star-pn+3": "aca60862528b3fa5d89c008ba4f92f170047b976d194f49ce24adc6448e428e6",
}


def _orient_prog(ctx, dist):
    lg = dist.view(ctx.rank)
    yield from exchange_ghost_degrees(ctx, lg)
    return build_oriented(ctx, lg, with_ghosts=True)


def _global_arrays(og):
    """The digested arrays of one PE, neighbour entries as global ids
    (the view holds slots; ``ids[slots]`` are the global ids)."""
    ids = og.lg.ids
    cxadj, cadj = og.contracted()
    return [
        og.oxadj,
        ids[og.oadjncy],
        og.goxadj,
        ids[og.goadjncy],
        og.local_keys,
        og.ghost_keys,
        cxadj,
        ids[cadj],
    ]


def _digest(graph, p):
    g = GRAPHS[graph]()
    if p == "n+3":
        p = g.num_vertices + 3
    dist = distribute(g, num_pes=p)
    h = hashlib.sha256()
    for og in Machine(p).run(_orient_prog, dist).values:
        for arr in _global_arrays(og):
            arr = np.ascontiguousarray(arr, dtype=np.int64)
            h.update(np.int64(arr.size).tobytes())
            h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("p", [1, 4, 16, "n+3"])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_oriented_view_matches_golden_digest(graph, p):
    assert _digest(graph, p) == GOLDEN_ORIENTED[f"{graph}-p{p}"]
