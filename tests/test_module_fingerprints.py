"""Pinned fingerprints of exact modules: the sha256 of a canonical text of
each module's basis tags, Gram blocks and action matrices.  A change to how
a module is built must leave every exact entry as it was."""

from __future__ import annotations

import hashlib

import pytest

from qcells import hwmod
from qcells.cartan import Weight, build_root_datum, dominant_conjugate
from qcells.hwmod import build_module, gram_block
from qcells.linalg import RationalFunctions
from qcells.scalars import scalar_str


def module_text(mod) -> str:
    """One line per weight space and per action matrix, entries in scalar_str."""

    def block(lines) -> str:
        return ";".join(",".join(scalar_str(x) for x in line) for line in lines)

    out = []
    for mu in mod.basis:
        out.append(f"basis {mu.coords} {mod.basis[mu]}")
        out.append(f"gram {mu.coords} {block(gram_block(mod, mu))}")
    for name in ("fmat", "emat"):
        mats = getattr(mod, name)
        for i, mu in sorted(mats, key=lambda key: (key[0], key[1].coords)):
            out.append(f"{name} {i} {mu.coords} {block(mats[(i, mu)])}")
    return "\n".join(out) + "\n"


# recorded at the commit that solved each weight space's f-action from its
# Gram block, before it was solved from the e-images
FINGERPRINTS = [
    (
        "A3",
        (1, 1, 1),
        "6979271612bc3fc5b0ccda075cfe696cadc8ff243c43806477453f9eeea863b9",
    ),
    (
        "B3",
        (0, 2, 0),
        "77fcba5a6a8aadc809bc15daa10009f2c96454f2d900c8127049b931e11c8b56",
    ),
    (
        "B3",
        (1, 0, 2),
        "b2b07a40c2a6dfd60d9757afdd328b616ad301e8aa0a14a4188e3d13ff78cb58",
    ),
    (
        "C3",
        (1, 1, 0),
        "127e15cf8ea79947e816f302c28183b343df819dc881b671eb2c9d1a29103b63",
    ),
    (
        "D4",
        (1, 0, 0, 1),
        "04d27771b32cff613d9e038922dcce31055b8db15837f25301fda4978f8d3180",
    ),
    (
        "G2",
        (2, 1),
        "6461d02b31e70695d68601c61bd81fbb0040932ec3c50c57f7e42f125fa95d57",
    ),
    # recorded before each weight space's pick came from one injective e_i's
    # rows, when every e_i's rows were eliminated
    (
        "A4",
        (1, 0, 0, 1),
        "f189c74b2bc3f8ce9730ad747714bef9dac67e3e8e83d16b5d3f6e4b6a563463",
    ),
]


@pytest.mark.parametrize("cartan, coords", [f[:2] for f in FINGERPRINTS])
def test_extremal_gram_block_is_its_parent_pairing(cartan, coords):
    """At every extremal weight w lam of the module, exact and shadow, the
    block gram_block gives by (u_{w lam}, u_{w lam}) = 1 is the one the
    pairing formula gives from the parent's block: (f_i b', b) = (b', e_i b)
    for the basis vector b = f_i b', with e_i b the stored raising column."""
    datum = build_root_datum(cartan)
    lam = Weight(coords)
    for mod in (build_module(datum, lam), hwmod._build(datum, lam, hwmod._Shadow())):
        field = mod.field
        orbit = [mu for mu in mod.basis if dominant_conjugate(datum, mu)[1] == lam]
        assert gram_block(mod, lam) == [[field.one]]
        for mu in orbit[1:]:
            (tag,) = mod.basis[mu]
            i = tag[0]
            parent = mu + datum.alpha_weight(i)
            grow = gram_block(mod, parent)[mod.basis[parent].index(tag[1:])]
            paired = field.dot(grow, list(mod.emat[(i, mu)][0]))
            assert gram_block(mod, mu) == [[paired]], mu
        assert orbit[0] == lam and mod._lowest in orbit


@pytest.mark.parametrize("cartan, coords, digest", FINGERPRINTS)
def test_exact_module_fingerprint(cartan, coords, digest):
    mod = build_module(build_root_datum(cartan), Weight(coords))
    assert hashlib.sha256(module_text(mod).encode()).hexdigest() == digest


def stored(mod):
    """What a build stores, with the Gram block of every weight read."""
    grams = {mu: gram_block(mod, mu) for mu in mod.basis}
    return list(mod.basis.items()), grams, mod.fmat, mod.emat


@pytest.mark.parametrize("cartan, coords", [f[:2] for f in FINGERPRINTS] + [("A2", (1, 1))])
def test_one_injective_letter_builds_what_every_letter_builds(monkeypatch, cartan, coords):
    """A build that eliminates every letter's rows of Phi stores the basis,
    action matrices and Gram blocks of the default build, which eliminates
    the rows of one injective e_i, exact and shadow.  The default keeps
    every letter's rows at dominant weights only; the zero weights of A2
    V(1,1) and A4 V(1,0,0,1) are such weights."""
    datum = build_root_datum(cartan)
    lam = Weight(coords)
    fields = (RationalFunctions(), hwmod._Shadow())
    real = hwmod._phi_letters
    every_letter = []

    def recording(mod, mu, mult, letters):
        got = real(mod, mu, mult, letters)
        if len(got) > 1:
            every_letter.append(mu)
        return got

    monkeypatch.setattr(hwmod, "_phi_letters", recording)
    default = [stored(hwmod._build(datum, lam, field)) for field in fields]
    assert all(mu.is_dominant() for mu in every_letter), every_letter
    if cartan in ("A2", "A4"):
        assert Weight((0,) * datum.rank) in every_letter
    monkeypatch.setattr(hwmod, "_phi_letters", lambda mod, mu, mult, letters: letters)
    for field, want in zip(fields, default):
        assert stored(hwmod._build(datum, lam, field)) == want
