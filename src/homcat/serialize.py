"""JSON formats for complexes, Ext tables, and quivers.

The algebra description format lives in ``homcat.algebras``; this module adds
the complex format (support interval, per-degree module data or named
references, per-degree differential matrices) and the tabular reports.
"""

from __future__ import annotations

import numpy as np

from homcat.algebras import Alg, _json_field, _json_int, _json_ints, algebra_from_json, algebra_to_json, preset
from homcat.complexes import Cx, make_complex
from homcat.errors import ValidationError
from homcat.linalg import Mat
from homcat.modules import (
    MMap,
    Mod,
    make_module,
    projective_module,
    regular_module,
    simple_module,
    zero_module,
)

__all__ = ["complex_to_json", "complex_from_json", "module_to_json", "module_from_json"]


def module_to_json(m: Mod) -> dict:
    return {"dim": m.dim, "action": [[list(map(int, row)) for row in a.a] for a in m.action]}


def module_from_json(alg: Alg, data) -> Mod:
    """Inline action data, or a named reference like "proj:1", "simple:0",
    "regular", "zero".

    Inline data is checked before it is used: a missing or malformed field
    raises ValidationError whose witness names it (``action[2]``).
    """
    if isinstance(data, str):
        if data == "regular":
            return regular_module(alg)
        if data == "zero":
            return zero_module(alg)
        kind, _, idx = data.partition(":")
        if kind in ("proj", "simple") and idx.isdigit() and int(idx) < len(alg.idempotents):
            return (projective_module if kind == "proj" else simple_module)(alg, int(idx))
        raise ValidationError(f"unknown module reference {data!r}", witness=data)
    if not isinstance(data, dict):
        raise ValidationError("module JSON must be an object or a reference string")
    dim = _json_int(_json_field(data, "dim"), "dim")
    if dim < 0:
        raise ValidationError(f"module JSON field 'dim' must be non-negative, got {dim}", witness="dim")
    action = _json_field(data, "action")
    if not isinstance(action, (list, tuple)) or len(action) != alg.dim:
        raise ValidationError(f"module JSON field 'action' must list {alg.dim} matrices", witness="action")
    return make_module(alg, [_json_matrix(alg.p, a, f"action[{i}]", dim, dim) for i, a in enumerate(action)])


def _json_matrix(p: int, value, field: str, rows: int, cols: int) -> Mat:
    if not isinstance(value, (list, tuple)) or len(value) != rows:
        raise ValidationError(f"JSON field {field!r} must be a {rows} x {cols} matrix", witness=field)
    return Mat(p, np.array([_json_ints(row, field, cols) for row in value], dtype=np.int64).reshape(rows, cols))


def complex_to_json(x: Cx) -> dict:
    return {
        "algebra": algebra_to_json(x.alg),
        "support": [x.lo, x.hi] if not x.is_zero() else [0, -1],
        "modules": [module_to_json(x.obj(n)) for n in x.degrees()],
        "differentials": [
            [list(map(int, row)) for row in x.diff(n).mat.a]
            for n in list(x.degrees())[:-1]
        ],
    }


def complex_from_json(data: dict, alg: Alg | None = None) -> Cx:
    """Rebuild and re-validate a complex; the algebra may be inline or passed.

    Fields are checked before they are used, as in ``module_from_json``.
    """
    if not isinstance(data, dict):
        raise ValidationError("complex JSON must be an object")
    if alg is None:
        alg_data = _json_field(data, "algebra")
        alg = (
            preset(alg_data, _json_int(_json_field(data, "prime"), "prime"))
            if isinstance(alg_data, str)
            else algebra_from_json(alg_data)
        )
    lo, hi = _json_ints(_json_field(data, "support"), "support", 2)
    modules = _json_field(data, "modules")
    if not isinstance(modules, (list, tuple)) or len(modules) != max(hi - lo + 1, 0):
        raise ValidationError("complex JSON field 'modules' must list one module per degree", witness="modules")
    mods = [module_from_json(alg, m) for m in modules]
    rows = data.get("differentials", [])
    if not isinstance(rows, (list, tuple)) or len(rows) != max(len(mods) - 1, 0):
        raise ValidationError("complex JSON needs one differential per adjacent pair", witness="differentials")
    diffs = [
        MMap(mods[k], mods[k + 1], _json_matrix(alg.p, d, f"differentials[{k}]", mods[k + 1].dim, mods[k].dim))
        for k, d in enumerate(rows)
    ]
    return make_complex(alg, lo, mods, diffs)
