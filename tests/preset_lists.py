"""Closed-form indecomposable lists for the preset algebras.

Built directly from the projectives, without knitting: the independent
cross-check of ``homcat.modules.classify_indecomposables`` in the tests.
"""

import numpy as np

from homcat.algebras import Alg, preset
from homcat.errors import GuardError
from homcat.linalg import Mat
from homcat.modules import Mod, injective_envelope, projective_module, quotient_module, simple_module


def _preset_name_of(alg: Alg) -> str | None:
    candidates = ["lambda1", "lambda2", "lambda3", "ground_field", f"truncpoly({alg.dim})"]
    for name in candidates:
        try:
            if alg == preset(name, alg.p):
                return name
        except ValueError:
            continue
    return None


def known_indecomposables(alg: Alg) -> list[Mod]:
    """The indecomposables of a preset algebra, at any prime, sorted as the classifier sorts them."""
    name = _preset_name_of(alg)
    if name is None:
        raise GuardError("known indecomposables only available for presets")
    if name == "lambda2":
        out = [simple_module(alg, j) for j in range(3)]
        out.append(projective_module(alg, 0))
        out.append(projective_module(alg, 2))
        out.append(injective_envelope(simple_module(alg, 1))[0])
    else:
        # uniserial projectives: the indecomposables are the quotients of each
        # e_j A by the tails of its (ordered) basis
        out = []
        for a in range(len(alg.idempotents)):
            pj = projective_module(alg, a)
            tails = np.eye(pj.dim, dtype=np.int64)
            out.extend(quotient_module(pj, Mat(alg.p, tails[:, keep:]))[0] for keep in range(1, pj.dim + 1))
    out.sort(key=lambda x: (x.dim, x.dim_vector(), x.key()))
    return out
