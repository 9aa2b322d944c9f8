"""Measurement construction, certification identities, serialization."""

import json

import numpy as np
import pytest

from conftest import all_families, random_density, random_hermitian, random_pure
from kstretch.basis import InformationalCompletenessError, gell_mann_basis, group_basis
from kstretch.povm import (
    ConstructionError,
    PositivityError,
    SymmetricMeasurement,
    build_b_operators,
    build_stpovm,
    certification_residuals,
    chi_of_r,
    r_range,
)
from oracles import (
    probability_square_sum,
    probability_square_sum_formula,
    probability_square_sum_pure,
    square_sum_scalar,
    verify_square_sum,
)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_all_families_certify(d):
    basis = gell_mann_basis(d)
    for s, t in all_families(d):
        m = build_stpovm(basis, s, t)
        res = certification_residuals(m)
        assert res["min_effect_eigenvalue"] > -1e-10
        for key in ("completeness", "trace", "purity", "cross_outcome",
                    "cross_measurement", "conical_design", "chi_consistency"):
            assert res[key] < 1e-10, (s, t, key, res[key])


def test_b_operators_traceless_and_orthogonal():
    grouped = group_basis(gell_mann_basis(3), 1, 9)
    rows = build_b_operators(grouped)
    assert len(rows) == 1 and len(rows[0]) == 9
    for b in rows[0]:
        assert abs(np.trace(b)) < 1e-10
    # rows sum to zero so the effects resolve the identity
    assert np.max(np.abs(sum(rows[0]))) < 1e-10


def test_r_range_frozen_example():
    rows = build_b_operators(group_basis(gell_mann_basis(3), 1, 9))
    r_neg, r_pos = r_range(rows)
    assert r_neg < 0 < r_pos
    assert abs(r_neg) == pytest.approx(0.0121, abs=5e-4)
    assert r_pos == pytest.approx(0.0129, abs=5e-4)


def test_r_outside_range_raises():
    basis = gell_mann_basis(3)
    with pytest.raises(PositivityError):
        build_stpovm(basis, 1, 9, 0.5)
    with pytest.raises(PositivityError):
        build_stpovm(basis, 1, 9, 0.0)


def test_endpoint_measurement_is_psd(m19):
    min_eig = min(np.linalg.eigvalsh(a)[0] for a in m19.iter_effects())
    assert min_eig > -1e-10


def test_chi_formula(m19):
    assert m19.chi == pytest.approx(chi_of_r(3, 9, m19.r), abs=1e-14)
    lo, hi = 3 / 81, 3 / 9
    assert lo < m19.chi <= hi


def test_square_sum_identity(m19, m14):
    assert verify_square_sum(m19) < 1e-10
    assert verify_square_sum(m14) < 1e-10
    c = square_sum_scalar(3, 1, 9, m19.r)
    total = sum(a @ a for a in m19.iter_effects())
    assert np.max(np.abs(total - c * np.eye(3))) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_conical_design_residual_matches_kron_sum(d):
    """The certified residual equals the explicit deviation of
    sum_uv A (x) A from alpha 1 + beta SWAP, and both vanish."""
    basis = gell_mann_basis(d)
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    for s, t in all_families(d):
        m = build_stpovm(basis, s, t)
        alpha = s / t - m.beta / d
        total = sum(np.kron(a, a) for a in m.iter_effects())
        explicit = np.max(np.abs(total - alpha * np.eye(d * d) - m.beta * swap))
        residual = certification_residuals(m)["conical_design"]
        assert explicit < 1e-12 and residual < 1e-12, (s, t)
        assert residual == pytest.approx(explicit, abs=1e-14), (s, t)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_square_sum_scalar_is_alpha_plus_beta_d(d):
    basis = gell_mann_basis(d)
    for s, t in all_families(d):
        m = build_stpovm(basis, s, t)
        alpha = s / t - m.beta / d
        assert square_sum_scalar(d, s, t, m.r) == pytest.approx(alpha + m.beta * d, rel=1e-13)


def test_probability_square_sum_matches_formula(m19, rng):
    rho = random_density(rng, 3)
    purity = np.trace(rho @ rho).real
    direct = probability_square_sum(m19, rho)
    assert direct == pytest.approx(
        probability_square_sum_formula(m19, purity), abs=1e-10)
    vec = random_pure(rng, 3)
    proj = np.outer(vec, vec.conj())
    assert probability_square_sum(m19, proj) == pytest.approx(
        probability_square_sum_pure(m19), abs=1e-10)


def test_json_roundtrip(catalogue):
    """Writing and reloading is bit-exact for every catalogue family."""
    assert len(catalogue) == 48
    for m in catalogue:
        rebuilt = SymmetricMeasurement.from_json(m.to_json())
        assert rebuilt == m
        assert (rebuilt.d, rebuilt.s, rebuilt.t, rebuilt.r, rebuilt.chi) == \
            (m.d, m.s, m.t, m.r, m.chi)
        for a, b in zip(m.iter_effects(), rebuilt.iter_effects(), strict=True):
            assert np.array_equal(a, b), (m.d, m.s, m.t)


def test_to_json_matches_dumps_of_dict(catalogue):
    """`to_json` writes the text `json.dumps` gives for `to_json_dict` with the
    extras after it, and refuses an extra key that would replace its own."""
    config = {"d": 3, "output": "m.json", "r": "max", "t": [1, 2.5]}
    for m in catalogue:
        assert m.to_json() == json.dumps(m.to_json_dict())
        assert m.to_json(config=config, certification=m.residuals) == json.dumps(
            {**m.to_json_dict(), "config": config, "certification": m.residuals})
    with pytest.raises(ValueError, match="clash"):
        catalogue[0].to_json(chi=0.5)


def test_to_json_keeps_signed_zeros_and_ulp_neighbours_apart(m14):
    """Entries are interned by bit pattern: 0.0 and -0.0, and two values one
    ulp apart, each keep their own entry in "values" and their own text."""
    effects = m14.effects.copy()
    x = float(effects[0, 1, 0, 0].real)
    y = float(np.nextafter(x, 1.0))
    effects[0, 0, 0, 1] = complex(0.0, -0.0)
    effects[0, 0, 1, 0] = complex(-0.0, 0.0)
    effects[0, 2, 0, 0] = complex(x, y)
    effects[0, 3, 1, 1] = complex(y, x)
    m = _uncertified(m14, effects)
    text = m.to_json()
    assert text == json.dumps(m.to_json_dict())
    values = {tuple(map(float.hex, pair)) for pair in json.loads(text)["values"]}
    for pair in ([0.0, -0.0], [-0.0, 0.0], [x, y], [y, x]):
        assert json.dumps(pair) in text and tuple(map(float.hex, pair)) in values


def test_residuals_stored_and_never_loaded(m14):
    """Construction certifies once and keeps the residuals; a file's own
    certification block is ignored and the loaded measurement re-certified."""
    assert m14.residuals == certification_residuals(m14)
    doc = json.loads(m14.to_json(certification={"completeness": -1.0}))
    rebuilt = SymmetricMeasurement.from_json_dict(doc)
    assert rebuilt.residuals == certification_residuals(rebuilt)
    assert rebuilt.residuals["completeness"] >= 0.0


def _repointed(doc, u, v, e, part, delta):
    """A copy of `doc` whose effect entry (u, v, e) alone reads its [re, im]
    pair with `delta` added to one part, through a value appended for it."""
    doc = json.loads(json.dumps(doc))
    pair = list(doc["values"][doc["effects"][u][v][e]])
    pair[part] += delta
    doc["values"].append(pair)
    doc["effects"][u][v][e] = len(doc["values"]) - 1
    return doc


def test_malformed_effect_lists_rejected(m14):
    doc = m14.to_json_dict()
    ragged = json.loads(json.dumps(doc))
    ragged["effects"][0][1][2] = [0]
    short = json.loads(json.dumps(doc))
    del short["effects"][0][1][-1]
    long = json.loads(json.dumps(doc))
    long["effects"][0][0].append(0)
    triples = json.loads(json.dumps(doc))
    triples["effects"][0][0] = [[i, i, i] for i in triples["effects"][0][0]]
    missing_row = json.loads(json.dumps(doc))
    missing_row["effects"][0].pop()
    for bad in (ragged, short, long, triples, missing_row):
        with pytest.raises(ValueError, match="effects"):
            SymmetricMeasurement.from_json_dict(bad)
    bad = _repointed(doc, -1, -1, 1, 1, 0.05)  # Im A_01 of the last effect only
    with pytest.raises(ValueError, match="not Hermitian"):
        SymmetricMeasurement.from_json_dict(bad)


@pytest.mark.parametrize("key, value", [("r", "NaN"), ("r", "Infinity"), ("r", "-Infinity"),
                                        ("chi", "NaN"), ("entry", "NaN")])
def test_non_finite_values_rejected(m14, key, value):
    """`json` reads NaN and Infinity; a file holding one in r, chi or an
    effect entry fails before any eigenvalue is taken."""
    doc = m14.to_json_dict()
    if key == "entry":  # entry 3 of effect (1, 3) alone reads the value
        doc = _repointed(doc, 0, 2, 3, 0, float(value))
    else:
        doc[key] = float(value)
    text = json.dumps(doc)
    assert value in text
    with pytest.raises(ConstructionError, match="finite"):
        SymmetricMeasurement.from_json(text)


@pytest.mark.parametrize("key", ["d", "s", "t", "r", "chi", "effects", "values"])
def test_missing_key_named(m14, key):
    doc = m14.to_json_dict()
    del doc[key]
    with pytest.raises(ValueError, match=f"lacks '{key}'"):
        SymmetricMeasurement.from_json_dict(doc)


def test_effects_read_only(m14):
    """A certified measurement's effects cannot change after certification,
    built or loaded."""
    for m in (m14, SymmetricMeasurement.from_json(m14.to_json())):
        with pytest.raises(ValueError, match="read-only"):
            m.effects[0][0][0, 0] = 5
        with pytest.raises(ValueError, match="read-only"):
            m.effects[0, 1][1, 1] = 5
        for a in m.iter_effects():
            with pytest.raises(ValueError, match="read-only"):
                a += 1
    assert np.array_equal(m14.effects, SymmetricMeasurement.from_json(m14.to_json()).effects)
    mine = m14.effects.copy()  # the measurement keeps its own copy of the caller's array
    m = SymmetricMeasurement(m14.d, m14.s, m14.t, m14.r, m14.chi, mine)
    mine[0, 0, 0, 0] = 5
    assert np.array_equal(m.effects, m14.effects)


def test_loaded_incomplete_family_names_admissible_families():
    """A file whose (s,t) breaks s(t-1) = d^2 - 1 fails with the message of
    the build path, which lists the admissible families."""
    doc = build_stpovm(gell_mann_basis(3), 1, 9).to_json_dict()
    doc.update(s=1, t=4, effects=[doc["effects"][0][:4]])
    with pytest.raises(InformationalCompletenessError) as loaded:
        SymmetricMeasurement.from_json_dict(doc)
    with pytest.raises(InformationalCompletenessError) as built:
        build_stpovm(gell_mann_basis(3), 1, 4)
    assert str(loaded.value) == str(built.value)
    assert "admissible (s,t) for d=3: (8,2), (4,3), (2,5), (1,9)" in str(loaded.value)


@pytest.mark.parametrize("shape", ["flat", "short", "wrong-d"])
def test_wrongly_shaped_effects_rejected(m14, shape):
    effects = {"flat": m14.effects.reshape(4, 2, 2), "short": m14.effects[:, :3],
               "wrong-d": np.zeros((1, 4, 3, 3))}[shape]
    with pytest.raises(ConstructionError, match="not an 1 x 4 array of 2 x 2 matrices"):
        SymmetricMeasurement(m14.d, m14.s, m14.t, m14.r, m14.chi, effects)


def _uncertified(m, effects):
    """A measurement object holding arbitrary effects, bypassing certification."""
    obj = object.__new__(SymmetricMeasurement)
    for name in ("d", "s", "t", "r", "chi"):
        object.__setattr__(obj, name, getattr(m, name))
    object.__setattr__(obj, "effects", effects)
    return obj


def test_batched_residuals_match_per_effect_reference(catalogue, rng):
    """The stacked eigenvalue and reduction residuals equal a loop over the
    effects, on every family and on a copy with a different perturbation of
    each effect; the stacked r range equals a loop over the B operators."""
    for m in catalogue:
        d, s, t = m.d, m.s, m.t
        noise = [[random_hermitian(rng, d) * 1e-3 * rng.random() for _ in row]
                 for row in m.effects]
        perturbed = tuple(tuple(a + e for a, e in zip(row, noise_row))
                          for row, noise_row in zip(m.effects, noise))
        for case in (m, _uncertified(m, perturbed)):
            res = certification_residuals(case)
            effects = list(case.iter_effects())
            reference = {
                "min_effect_eigenvalue": min(np.linalg.eigvalsh(a)[0] for a in effects),
                "completeness": max(np.max(np.abs(sum(row) - np.eye(d)))
                                    for row in case.effects),
                "trace": max(abs(np.trace(a).real - d / t) for a in effects),
            }
            for key, value in reference.items():
                assert abs(res[key] - value) <= 1e-15, (d, s, t, key)
        rows = build_b_operators(group_basis(gell_mann_basis(d), s, t))
        evals = [np.linalg.eigvalsh(b) for row in rows for b in row]
        lam_max = max(e[-1] for e in evals)
        lam_min = min(e[0] for e in evals)
        r_neg, r_pos = r_range(rows)
        assert abs(r_neg + 1 / (t * lam_max)) <= 1e-15 * abs(r_neg), (d, s, t)
        assert abs(r_pos - 1 / (t * abs(lam_min))) <= 1e-15 * r_pos, (d, s, t)
        assert m.r_bounds == (r_neg, r_pos)


def test_tampered_effects_rejected(m14):
    """Re-pointing one index changes exactly one entry of the effects, and
    the file fails certification."""
    doc = _repointed(m14.to_json_dict(), 0, 0, 0, 0, 0.05)
    values = np.array(doc["values"]).view(complex).ravel()
    changed = values[np.array(doc["effects"])].reshape(m14.effects.shape) != m14.effects
    assert changed.sum() == 1 and changed[0, 0, 0, 0]
    with pytest.raises(ValueError):
        SymmetricMeasurement.from_json_dict(doc)


def test_equality_and_hash(m14):
    """Measurements compare by value, scalars and bit-identical effects: a
    round-tripped file is equal, with an equal hash; another r is not."""
    rebuilt = SymmetricMeasurement.from_json(m14.to_json())
    assert rebuilt == m14 and hash(rebuilt) == hash(m14)
    assert len({m14, rebuilt}) == 1
    other = build_stpovm(gell_mann_basis(2), 1, 4, m14.r / 2)
    assert other != m14 and m14 != "m14"
    ulp = m14.effects.copy()  # same scalars, one entry one ulp away
    ulp[0, 1, 0, 0] = np.nextafter(ulp[0, 1, 0, 0].real, 1.0)
    assert _uncertified(m14, ulp) != m14


@pytest.mark.parametrize("case", ["strings", "float-d", "bool-s", "bool-r", "str-chi",
                                  "bool-effects"])
def test_wrong_json_types_rejected(m14, case):
    """d, s and t must be JSON integers, r, chi and the values JSON numbers,
    and the effects JSON integer indices; nothing is converted silently."""
    doc = json.loads(m14.to_json())
    if case == "strings":  # every number that can be written as a string
        doc["d"], doc["r"] = str(doc["d"]), str(doc["r"])
        doc["values"] = [[str(x) for x in pair] for pair in doc["values"]]
        doc["effects"] = [[[str(i) for i in a] for a in row] for row in doc["effects"]]
        key = "'d'"
    elif case == "float-d":
        doc["d"], key = 2.9, "'d'"
    elif case == "bool-s":
        doc["s"], key = True, "'s'"
    elif case == "bool-r":
        doc["r"], key = True, "'r'"
    elif case == "str-chi":
        doc["chi"], key = str(doc["chi"]), "'chi'"
    else:
        doc["effects"] = [[[i != 0 for i in a] for a in row] for row in doc["effects"]]
        key = "'effects'"
    with pytest.raises(ValueError, match=key):
        SymmetricMeasurement.from_json_dict(doc)


def test_string_effect_entries_rejected(m14):
    """One string among the values, or among the indices, is rejected."""
    doc = json.loads(m14.to_json())
    bad_value = json.loads(json.dumps(doc))
    bad_value["values"][1][0] = str(bad_value["values"][1][0])
    with pytest.raises(ValueError, match="'values' must hold JSON numbers, not str"):
        SymmetricMeasurement.from_json_dict(bad_value)
    doc["effects"][0][1][2] = str(doc["effects"][0][1][2])
    with pytest.raises(ValueError, match="'effects' must hold JSON integers"):
        SymmetricMeasurement.from_json_dict(doc)
    assert SymmetricMeasurement.from_json_dict(json.loads(m14.to_json())) == m14


@pytest.mark.parametrize("value, match", [(False, "not bool entries"),
                                          (10**400, "beyond float range")],
                         ids=["false", "huge-int"])
def test_bool_or_huge_effect_entry_rejected(m14, value, match):
    """A JSON false among numbers is not read as 0.0, and an integer entry
    beyond float range fails with a ValueError; a JSON 0 still reads as 0.0."""
    doc = json.loads(m14.to_json())
    i, part = next((i, part) for i, pair in enumerate(doc["values"])
                   for part, x in enumerate(pair) if repr(x) == "0.0")
    doc["values"][i][part] = 0
    assert SymmetricMeasurement.from_json_dict(doc) == m14
    doc["values"][i][part] = value
    with pytest.raises(ValueError, match=match):
        SymmetricMeasurement.from_json_dict(doc)


@pytest.mark.parametrize("index, match", [
    (-1, r"indices in \[0, 14\)"), ("len", r"indices in \[0, 14\)"),
    (10**400, r"indices in \[0, 14\)"), (True, "JSON integers, not bool entries"),
    (1.0, "JSON integers, not float entries"), ("1", "JSON integers, not str entries")],
    ids=["negative", "len-values", "huge-int", "bool", "float", "string"])
def test_bad_index_rejected(m14, index, match):
    """An index must be a JSON integer in [0, len(values)): numpy would wrap a
    negative one round to the end of the table, and read a bool as 0 or 1."""
    doc = json.loads(m14.to_json())
    doc["effects"][0][1][2] = len(doc["values"]) if index == "len" else index
    assert len(doc["values"]) == 14
    with pytest.raises(ValueError, match="'effects' must hold " + match):
        SymmetricMeasurement.from_json_dict(doc)


def test_unreferenced_nan_value_rejected(m14):
    """A non-finite value fails even when no index points at it."""
    doc = json.loads(m14.to_json())
    doc["values"].append([0.0, float("nan")])
    with pytest.raises(ConstructionError, match="'values' must be finite"):
        SymmetricMeasurement.from_json_dict(doc)
    doc["values"][-1] = [0.0, 0.5]  # an unreferenced finite value is harmless
    assert SymmetricMeasurement.from_json_dict(doc) == m14


@pytest.mark.parametrize("case", ["number", "single", "triple", "nested", "all-triples",
                                  "object"])
def test_value_not_a_pair_rejected(m14, case):
    """Each entry of "values" is one [re, im] pair of JSON numbers."""
    doc = json.loads(m14.to_json())
    values = doc["values"]
    if case == "number":
        values[1] = values[1][0]
    elif case == "single":
        values[1] = values[1][:1]
    elif case == "triple":
        values[1] = values[1] + [0.0]
    elif case == "nested":
        values[1] = [values[1], values[1]]
    elif case == "all-triples":
        doc["values"] = [pair + [0.0] for pair in values]
    else:
        doc["values"] = {"0": values[0]}
    match = r"'values' must (be \[re, im\] pairs|hold JSON numbers)"
    with pytest.raises(ValueError, match=match):
        SymmetricMeasurement.from_json_dict(doc)


def test_nested_pair_layout_rejected(m14):
    """A file in the earlier layout, each effect entry spelled out as an
    [re, im] pair, is refused for want of "values": regenerate it."""
    pairs = m14.effects.view(float).reshape(m14.s, m14.t, -1, 2)
    doc = {"d": m14.d, "s": m14.s, "t": m14.t, "r": m14.r, "chi": m14.chi,
           "effects": pairs.tolist()}
    with pytest.raises(ValueError, match="lacks 'values'$"):
        SymmetricMeasurement.from_json(json.dumps(doc))


def test_catalogue_files_stay_small(catalogue):
    """Each distinct entry is written once, and every value is referenced:
    the 48 catalogue files hold 2,033 values for 155,185 entries, 0.57 MB
    in all (3.1 MB with every entry spelled out); the guard is 1 MB."""
    texts = [m.to_json() for m in catalogue]
    assert sum(map(len, texts)) < 1_000_000
    docs = [json.loads(text) for text in texts]
    assert sum(np.size(doc["effects"]) for doc in docs) == 155_185
    for doc in docs:
        assert np.array_equal(np.unique(doc["effects"]), np.arange(len(doc["values"])))


@pytest.mark.parametrize("text", ["5", "[1]", "null", '"d"'])
def test_non_object_document_rejected(text):
    """A measurement document that is not a JSON object is a ValueError, not
    a TypeError from looking up its keys."""
    with pytest.raises(ValueError, match="must hold a JSON object"):
        SymmetricMeasurement.from_json(text)
