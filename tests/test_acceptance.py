"""Acceptance battery: one test per advertised guarantee, each printing a
visible pass/fail line.

The criteria cover the predicted-monomial sweeps (rank two, A3, G2), the
generator-recovery exponents, both routes to minor images, the algebra map
properties of the torus image, form radicals, matrix-coefficient
representatives, braid extremal vectors, minor commutation, the q-binomial
product identity, monomiality of every verified image, and byte-level
determinism of the sweep command.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

from qcells.cartan import Weight, build_root_datum, reduced_words, weyl_elements
from qcells.cells import (
    PresentationError,
    chamber_ansatz,
    class_equal,
    feigin_matrix_coeff,
    feigin_minor,
    minor_representative,
    ore_commutation_check,
    verify_theorem,
)
from qcells.freeuq import (
    FreeNegElement,
    feigin_on_element,
    lusztig_form,
    serre_element,
    word_weight,
    words_of_weight,
)
from qcells.hwmod import act_f, contravariant_form, extremal_vector, get_module
from qcells.linalg import RationalFunctions, column_dependencies, dot, solve_linear
from qcells.qtorus import TorusPresentation
from qcells.scalars import ScalarQ, gauss_product

ALL_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "G2")

S_ZERO = ScalarQ(0)
S_ONE = ScalarQ(1)


def report(capsys, num: str, label: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        extra = f"  ({detail})" if detail else ""
        print(f"acceptance {num} {label}: {status}{extra}", flush=True)
    assert ok, f"{label} failed {extra}"


def instances(datum, max_length=None):
    for w in weyl_elements(datum, max_length):
        if not w:
            continue
        for word in reduced_words(datum, w):
            pres = TorusPresentation(datum, word)
            for k in range(1, len(word) + 1):
                yield pres, k


def act_word(word, vec):
    for i in reversed(word):
        vec = act_f(i, vec)
    return vec


def longest_word(datum):
    return weyl_elements(datum)[-1]


def test_01_monomial_sweep_rank_two(capsys):
    t0 = time.perf_counter()
    count = 0
    ok = True
    for name in ("A1", "A2", "B2"):
        datum = build_root_datum(name)
        for pres, k in instances(datum):
            rep = verify_theorem(pres, k)
            count += 1
            if not (rep.equal and len(rep.lhs.terms) == 1):
                ok = False
    dt = time.perf_counter() - t0
    report(
        capsys, "01", "predicted monomials, all words of A1 A2 B2",
        ok and dt < 30.0, f"{count} instances, {dt:.1f}s",
    )


def test_02_monomial_sweep_a3(capsys):
    t0 = time.perf_counter()
    datum = build_root_datum("A3")
    count = 0
    ok = True
    for pres, k in instances(datum):
        rep = verify_theorem(pres, k)
        count += 1
        if not (rep.equal and len(rep.lhs.terms) == 1):
            ok = False
    dt = time.perf_counter() - t0
    report(
        capsys, "02", "predicted monomials, all words of A3",
        ok and dt < 300.0, f"{count} instances, {dt:.1f}s",
    )


def test_03_monomial_sweep_g2_short(capsys):
    t0 = time.perf_counter()
    datum = build_root_datum("G2")
    count = 0
    ok = True
    for pres, k in instances(datum, max_length=4):
        rep = verify_theorem(pres, k)
        count += 1
        if not (rep.equal and len(rep.lhs.terms) == 1):
            ok = False
    dt = time.perf_counter() - t0
    report(
        capsys, "03", "predicted monomials, G2 length <= 4",
        ok and dt < 300.0, f"{count} instances, {dt:.1f}s",
    )


def test_03_monomial_sweep_g2_full(capsys):
    # the long words need presenting weights up to coordinate sum 3; the
    # GF(p) screen rejects V(0,3) and V(1,2) (dimension near 300) without
    # building them exactly; guard the search cap explicitly
    t0 = time.perf_counter()
    datum = build_root_datum("G2")
    count = 0
    ok = True
    capped = None
    for pres, k in instances(datum):
        try:
            rep = verify_theorem(pres, k)
        except PresentationError as exc:
            capped = f"word {pres.letters} k={k}: {exc}"
            ok = False
            break
        count += 1
        if not (rep.equal and len(rep.lhs.terms) == 1):
            ok = False
    dt = time.perf_counter() - t0
    detail = capped if capped else f"{count} instances, {dt:.1f}s"
    report(capsys, "03", "predicted monomials, G2 all lengths", ok and dt < 60.0, detail)


def test_04_generator_recovery(capsys):
    count = 0
    ok = True
    residuals = set()
    for name in ("A1", "A2", "B2", "A3"):
        datum = build_root_datum(name)
        for pres, k in instances(datum):
            rep = chamber_ansatz(pres, k)
            count += 1
            if not (rep.equal and rep.exponent_match):
                ok = False
            residuals.add(rep.residual_q_power)
    detail = f"{count} instances, residual q-powers in [{min(residuals)}, {max(residuals)}]"
    report(capsys, "04", "generator recovery from minors", ok, detail)


def test_05_minor_closed_form_vs_pairing(capsys):
    count = 0
    ok = True
    for name in ("A1", "A2", "A3", "B2"):
        datum = build_root_datum(name)
        rank = len(datum.index_set)
        lams = [datum.fundamental(i) for i in datum.index_set]
        lams.append(Weight((1,) * rank))
        for w in weyl_elements(datum):
            if not w:
                continue
            for word in reduced_words(datum, w):
                pres = TorusPresentation(datum, word)
                for lam in lams:
                    closed = feigin_minor(pres, lam)
                    mod = get_module(datum, lam)
                    pairing = feigin_matrix_coeff(
                        pres, extremal_vector(mod, word), mod.highest()
                    )
                    count += 1
                    if not class_equal(closed, pairing):
                        ok = False
    report(capsys, "05", "minor image closed form vs pairing", ok, f"{count} minors")


def test_06_image_is_algebra_map(capsys):
    rng = random.Random(2024)
    count = 0
    ok = True
    for name in ALL_TYPES:
        datum = build_root_datum(name)
        pres = TorusPresentation(datum, longest_word(datum))
        for _ in range(100):
            la = rng.randrange(1, 6)
            lb = rng.randrange(1, 7 - la)
            wa = tuple(rng.choice(datum.index_set) for _ in range(la))
            wb = tuple(rng.choice(datum.index_set) for _ in range(lb))
            x = FreeNegElement.word(datum, wa)
            y = FreeNegElement.word(datum, wb)
            lhs = feigin_on_element(pres, x * y)
            rhs = feigin_on_element(pres, x) * feigin_on_element(pres, y)
            count += 1
            if lhs.terms != rhs.terms:
                ok = False
    report(capsys, "06", "torus image multiplicative", ok, f"{count} pairs")


def kernel_basis(rows):
    """One kernel vector per non-pivot column c of a nonempty matrix: e_c
    plus the solution, with free coordinates zero, of A x = -(column c)."""
    pivots = column_dependencies(rows, RationalFunctions)[0]
    out = []
    for c in range(len(rows[0])):
        if c not in pivots:
            vec = solve_linear(rows, [-row[c] for row in rows])
            vec[c] = S_ONE
            out.append(vec)
    return out


def test_07_kernel_is_form_radical(capsys):
    datum = build_root_datum("A2")
    pres = TorusPresentation(datum, (1, 2, 1))
    checked = 0
    ok = True
    for c1 in range(0, 5):
        for c2 in range(0, 5 - c1):
            if c1 + c2 == 0:
                continue
            nu = word_weight(datum, (1,) * c1 + (2,) * c2)
            zs = words_of_weight(datum, nu)
            elems = [FreeNegElement.word(datum, z) for z in zs]
            images = [feigin_on_element(pres, x) for x in elems]
            support = sorted({e for img in images for e in img.terms})
            img_rows = [
                [img.terms.get(e, S_ZERO) for img in images] for e in support
            ]
            kernel = kernel_basis(img_rows)
            gram = [[lusztig_form(x, y) for y in elems] for x in elems]
            radical = kernel_basis(gram)
            if len(kernel) != len(radical):
                ok = False
            # mutual containment: kernel vectors annihilate the form, and
            # radical vectors map to zero in the torus
            for v in kernel:
                if any(not dot(row, v).is_zero() for row in gram):
                    ok = False
            for v in radical:
                img = pres.zero()
                for c, x in zip(v, images):
                    img = img + x.scaled(c)
                if not img.is_zero():
                    ok = False
            checked += 1
    for (i, j) in ((1, 2), (2, 1)):
        if not feigin_on_element(pres, serre_element(datum, i, j)).is_zero():
            ok = False
    report(
        capsys, "07", "kernel equals form radical (A2, height <= 4)",
        ok, f"{checked} weight spaces and both Serre elements",
    )


def test_08_matrix_coefficients_realized(capsys):
    rng = random.Random(77)
    count = 0
    words_checked = 0
    ok = True
    for name in ALL_TYPES:
        datum = build_root_datum(name)
        rank = len(datum.index_set)
        short_elements = weyl_elements(datum, 2)
        specs = []
        guard = 0
        while len(specs) < 20 and guard < 400:
            guard += 1
            lam = datum.fundamental(rng.choice(datum.index_set))
            mod = get_module(datum, lam)
            w = short_elements[rng.randrange(len(short_elements))]
            left = extremal_vector(mod, w)
            z = tuple(rng.choice(datum.index_set) for _ in range(rng.randrange(0, 3)))
            right = act_word(z, mod.highest())
            if right.is_zero():
                continue
            diff = right.weight() - left.weight()
            try:
                need = datum.weight_to_root(diff)
            except ValueError:
                continue
            if any(c < 0 for c in need.coords) or sum(need.coords) > 6:
                continue
            specs.append((mod, left, right, need))
        for mod, left, right, need in specs:
            rep = minor_representative(left, right)
            for z in words_of_weight(datum, -need):
                lhs = lusztig_form(rep, FreeNegElement.word(datum, z))
                rhs = contravariant_form(left, act_word(z, right))
                words_checked += 1
                if lhs != rhs:
                    ok = False
            # off-content words pair to zero on both sides
            for _ in range(3):
                z = tuple(rng.choice(datum.index_set) for _ in range(rng.randrange(1, 7)))
                if word_weight(datum, z) == -need:
                    continue
                lhs = lusztig_form(rep, FreeNegElement.word(datum, z))
                rhs = contravariant_form(left, act_word(z, right))
                words_checked += 1
                if not (lhs.is_zero() and rhs.is_zero()):
                    ok = False
            count += 1
    report(
        capsys, "08", "matrix coefficients realized by the form",
        ok, f"{count} specs, {words_checked} words",
    )


def test_09_braid_extremal_vectors(capsys):
    from qcells.hwmod import braid_T, extremal_by_braid

    datum = build_root_datum("A2")
    ok = True
    count = 0
    for coords in ((1, 0), (0, 1), (1, 1)):
        mod = get_module(datum, Weight(coords))
        for w in weyl_elements(datum):
            count += 1
            if extremal_by_braid(mod, w) != extremal_vector(mod, w):
                ok = False
    # braid relation on a full basis of the adjoint module
    mod = get_module(datum, Weight((1, 1)))
    basis = [
        mod.basis_vector(mu, s) for mu in mod.basis for s in range(mod.dim_of(mu))
    ]
    for v in basis:
        lhs = braid_T(mod, 1, braid_T(mod, 2, braid_T(mod, 1, v)))
        rhs = braid_T(mod, 2, braid_T(mod, 1, braid_T(mod, 2, v)))
        count += 1
        if lhs != rhs:
            ok = False
    report(
        capsys, "09", "braid route to extremal vectors",
        ok, f"{count} checks incl. braid relation on dim-8 basis",
    )


def test_10_minor_commutation(capsys):
    ok = True
    count = 0
    for name in ("A1", "A2"):
        datum = build_root_datum(name)
        pres = TorusPresentation(datum, longest_word(datum))
        for i in datum.index_set:
            for j in datum.index_set:
                count += 1
                if not ore_commutation_check(
                    pres, datum.fundamental(i), datum.fundamental(j), samples=0
                ):
                    ok = False
    for name in ALL_TYPES:
        datum = build_root_datum(name)
        pres = TorusPresentation(datum, longest_word(datum))
        lam = datum.fundamental(1)
        lamp = datum.fundamental(len(datum.index_set))
        count += 1
        if not ore_commutation_check(pres, lam, lamp, samples=20):
            ok = False
    report(capsys, "10", "minor commutation laws", ok, f"{count} pairs, 20 words each")


def test_11_binomial_product_and_norms(capsys):
    ok = True
    for a in range(0, 9):
        lhs, rhs = gauss_product(a)
        if lhs != rhs:
            ok = False
    pairs = 0
    for name in ("A1", "A2", "A3", "B2", "G2"):
        datum = build_root_datum(name)
        for i in datum.index_set:
            mod = get_module(datum, datum.fundamental(i))
            for w in weyl_elements(datum):
                uw = extremal_vector(mod, w)
                pairs += 1
                if contravariant_form(uw, uw) != S_ONE:
                    ok = False
    report(
        capsys, "11", "q-binomial product identity and extremal norms",
        ok, f"a <= 8 and {pairs} extremal vectors",
    )


def test_12_verified_images_are_monomials(capsys):
    count = 0
    ok = True
    for name in ("A1", "A2", "B2", "A3"):
        datum = build_root_datum(name)
        for pres, k in instances(datum):
            rep = verify_theorem(pres, k)
            count += 1
            # monomiality is checked on its own, before any equality
            if len(rep.lhs.terms) != 1:
                ok = False
            elif not rep.equal:
                ok = False
    report(capsys, "12", "verified images are single monomials", ok, f"{count} instances")


def test_13_deterministic_sweep_output(capsys, child_env):
    outs = []
    for _ in range(4):
        proc = subprocess.run(
            [sys.executable, "-m", "qcells.cli", "sweep", "--cartan", "A2",
             "--format", "json"],
            capture_output=True,
            env=child_env,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    ok = outs[0] == outs[1] == outs[2] == outs[3] and b'"equal": true' in outs[0]
    last = json.loads(outs[0].decode().strip().splitlines()[-1])
    ok = ok and last["summary"]["instances"] == 12 and last["summary"]["equal"] == 12
    report(
        capsys, "13", "sweep output byte-identical across runs",
        ok, "4 subprocess runs compared",
    )
