"""JSON round trips for complexes and module references."""

import json

import numpy as np
import pytest

from homcat.algebras import preset
from homcat.complexes import cohomology_dims, make_complex, stalk
from homcat.errors import ValidationError
from homcat.modules import hom_space, projective_module, simple_module
from homcat.samples import random_complex
from homcat.serialize import complex_from_json, complex_to_json, module_from_json

L1 = preset("lambda1", 101)


def test_complex_round_trip_random():
    rng = np.random.default_rng(31)
    for _ in range(5):
        x = random_complex(L1, rng)
        data = json.loads(json.dumps(complex_to_json(x)))
        y = complex_from_json(data)
        assert y == x


def test_complex_round_trip_stalk():
    x = stalk(simple_module(L1, 2), 3)
    y = complex_from_json(complex_to_json(x))
    assert y == x
    assert cohomology_dims(y) == {3: 1}


def test_module_references():
    assert module_from_json(L1, "regular").dim == 6
    assert module_from_json(L1, "proj:1").dim == 2
    assert module_from_json(L1, "simple:0").dim == 1
    assert module_from_json(L1, "zero").dim == 0
    with pytest.raises(ValidationError):
        module_from_json(L1, "mystery:9000")


def test_from_json_revalidates():
    x = stalk(projective_module(L1, 0), 0)
    data = complex_to_json(x)
    # corrupt an action matrix: the unit no longer acts as the identity
    data["modules"][0]["action"][0][0][0] = 7
    with pytest.raises(ValidationError):
        complex_from_json(data)


@pytest.mark.parametrize(
    "corrupt, field",
    [
        pytest.param(lambda d: d["modules"][0].pop("dim"), "dim", id="missing-dim"),
        pytest.param(lambda d: d["modules"][0]["action"].pop(), "action", id="short-action"),
        pytest.param(lambda d: d["modules"][0]["action"][1].pop(), "action[1]", id="short-action-matrix"),
        pytest.param(lambda d: d.pop("support"), "support", id="missing-support"),
        pytest.param(lambda d: d["differentials"][0].pop(), "differentials[0]", id="short-differential"),
        pytest.param(lambda d: d["differentials"][0][0].append(0), "differentials[0]", id="long-differential-row"),
        pytest.param(lambda d: d["differentials"].append([]), "differentials", id="extra-differential"),
        pytest.param(lambda d: d["modules"].__setitem__(1, "proj:7"), "proj:7", id="bad-reference-index"),
    ],
)
def test_complex_json_rejects_malformed_fields(corrupt, field):
    p2, p1 = projective_module(L1, 1), projective_module(L1, 0)
    data = complex_to_json(make_complex(L1, 0, [p2, p1], [hom_space(p2, p1)[0]]))
    assert complex_from_json(data).obj(1) == p1
    corrupt(data)
    with pytest.raises(ValidationError) as err:
        complex_from_json(data)
    assert err.value.witness == field
