"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  All tolerances are exact equality; runtime guards are
wall-clock.  Criterion 7 is implemented faithfully as stated and is expected
to fail: on FIX-Z2 the strong-connection solution space is a single point
(bicolinearity forces homogeneous components and the splitting identity
fixes both scalars), so "two distinct points" do not exist; the mathematical
content (independence of the class from the choice of connection) is
verified on the NC fixture, whose solution space is positive-dimensional,
in criterion 7s.
"""

import json
import random
import time

import pytest

MODULE_T0 = time.monotonic()

from coralg.cherngalois import (
    assemble_and_class, assemble_cycle, associated_module, chg_components,
    compare_chg_ch, gamma_elements, idempotent_e, local_dual_system,
    theta_isomorphism, verify_gamma_identities,
)
from coralg.connect import (
    StrongConnection, connection_from_galois, solve_strong_connection,
    total_integral, verify_strong_connection,
)
from coralg.coring import coidempotent_from_comodule
from coralg.cyclic import CyclicComplex, cyclic_complex, homology
from coralg.entwine import _detect_grouplike, galois_check, make_extension
from coralg.errors import MemoryGuard
from coralg.exactla import QQ, Mat, inverse
from coralg.fixtures import (
    FIXTURE_NAMES, diagonal_subalgebra, fixture_document, matrix_algebra,
    nc_fixture, quadratic_algebra, upper_triangular_algebra, z2_fixture,
)
from coralg.ncalg import DualBasis, scalar_algebra
from coralg.workspace import parse_workspace


def qi(x):
    return QQ.from_int(x)


_CACHE = {}


def cached(key, builder):
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def z2():
    return cached("z2", lambda: z2_fixture(QQ))


def z2_sc():
    return cached("z2sc", lambda: solve_strong_connection(z2()["extension"]))


def nc():
    return cached("nc", lambda: nc_fixture(QQ))


def nc_sc():
    return cached("ncsc", lambda: solve_strong_connection(nc()["extension"]))


def _announce(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE criterion {num}: {status} - {text}")
    assert ok, f"criterion {num} failed: {text}"


# -- criterion 1 ------------------------------------------------------------

def _scalar_slots(doc):
    """All perturbable scalar entry slots of a document, as (path, setter)."""
    slots = []
    for name, a in doc.get("algebras", {}).items():
        for i, row in enumerate(a["mult"]):
            for j, vec in enumerate(row):
                for k, _ in enumerate(vec):
                    slots.append((f"algebras.{name}.mult[{i}][{j}][{k}]",
                                  lambda d, n=name, i=i, j=j, k=k:
                                  _bump(d["algebras"][n]["mult"][i][j], k, d)))
        for k, _ in enumerate(a["unit"]):
            slots.append((f"algebras.{name}.unit[{k}]",
                          lambda d, n=name, k=k: _bump(d["algebras"][n]["unit"], k, d)))
    for name, b in doc.get("bimodules", {}).items():
        for side in ("left_action", "right_action"):
            for s, mat in enumerate(b[side]):
                for i, row in enumerate(mat):
                    for j, _ in enumerate(row):
                        slots.append(
                            (f"bimodules.{name}.{side}[{s}][{i}][{j}]",
                             lambda d, n=name, sd=side, s=s, i=i, j=j:
                             _bump(d["bimodules"][n][sd][s][i], j, d)))
    for name, c in doc.get("corings", {}).items():
        for key in ("delta", "eps"):
            for i, row in enumerate(c[key]):
                for j, _ in enumerate(row):
                    slots.append((f"corings.{name}.{key}[{i}][{j}]",
                                  lambda d, n=name, k=key, i=i, j=j:
                                  _bump(d["corings"][n][k][i], j, d)))
    for name, e in doc.get("entwinings", {}).items():
        for key in ("psi", "psi_inv"):
            if key not in e:
                continue
            for i, row in enumerate(e[key]):
                for j, _ in enumerate(row):
                    slots.append((f"entwinings.{name}.{key}[{i}][{j}]",
                                  lambda d, n=name, k=key, i=i, j=j:
                                  _bump(d["entwinings"][n][k][i], j, d)))
    for name, co in doc.get("coactions", {}).items():
        for i, row in enumerate(co["matrix"]):
            for j, _ in enumerate(row):
                slots.append((f"coactions.{name}.matrix[{i}][{j}]",
                              lambda d, n=name, i=i, j=j:
                              _bump(d["coactions"][n]["matrix"][i], j, d)))
    for name, ce in doc.get("coidempotents", {}).items():
        for i, row in enumerate(ce["entries"]):
            for j, vec in enumerate(row):
                for k, _ in enumerate(vec):
                    slots.append((f"coidempotents.{name}.entries[{i}][{j}][{k}]",
                                  lambda d, n=name, i=i, j=j, k=k:
                                  _bump(d["coidempotents"][n]["entries"][i][j], k, d)))
    for name, cn in doc.get("connections", {}).items():
        for i, row in enumerate(cn["matrix"]):
            for j, _ in enumerate(row):
                slots.append((f"connections.{name}.matrix[{i}][{j}]",
                              lambda d, n=name, i=i, j=j:
                              _bump(d["connections"][n]["matrix"][i], j, d)))
    # deduplicate (bimodule slots were added twice above)
    seen = {}
    for path, setter in slots:
        seen.setdefault(path, setter)
    return sorted(seen.items())


def _bump(vec, k, doc):
    from fractions import Fraction
    p = doc["field"].get("p")
    x = Fraction(vec[k]) + 1
    if p is not None:
        x = int(x) % p
    vec[k] = str(x)


def test_criterion_01_validator_soundness():
    from coralg.errors import SchemaError
    t0 = time.monotonic()
    rng = random.Random(20260810)
    for name in FIXTURE_NAMES:
        doc = fixture_document(name)
        ws = parse_workspace(doc)
        assert ws.validation_errors == [], f"{name} must validate clean"
        slots = _scalar_slots(doc)
        for trial in range(20):
            path, setter = slots[rng.randrange(len(slots))]
            mutated = json.loads(json.dumps(doc))
            setter(mutated)
            try:
                ws_bad = parse_workspace(mutated)
                located = bool(ws_bad.validation_errors)
            except SchemaError as exc:
                # a corrupted action can change a dependent quotient's
                # dimension; the shape mismatch is still a located detection
                located = bool(exc.path)
            assert located, \
                f"{name}: perturbation at {path} produced no residual"
    elapsed = time.monotonic() - t0
    _announce(1, elapsed < 5.0,
              f"six fixtures validate; 120 perturbations all located "
              f"({elapsed:.2f}s < 5s)")


# -- criterion 2 ------------------------------------------------------------

def test_criterion_02_bicomplex_integrity():
    t0 = time.monotonic()
    algebras = [scalar_algebra(QQ, name="k"), quadratic_algebra(QQ, 1, 0),
                upper_triangular_algebra(QQ), matrix_algebra(QQ, 2)]
    combos = []
    for a in algebras:
        combos.append((a, None))
    m2 = algebras[3]
    combos.append((m2, diagonal_subalgebra(m2)))
    ut = algebras[2]
    from coralg.ncalg import generated_subalgebra
    diag_in_ut = generated_subalgebra(
        ut, [[QQ.one, QQ.zero, QQ.zero], [QQ.zero, QQ.zero, QQ.one]])
    combos.append((ut, diag_in_ut))
    for b, t in combos:
        cc = cyclic_complex(b, t)
        tc = cc.total(5)
        assert tc.d_squared.ok, f"d.d != 0 for {b.name} | {t[0].name if t else 'k'}"
    elapsed = time.monotonic() - t0
    _announce(2, elapsed < 30.0,
              f"d.d = 0 up to degree 5 on six (B, T) pairs ({elapsed:.2f}s < 30s)")


# -- criterion 3 ------------------------------------------------------------

def _oracle_point_hc(D):
    """Independent dense rank oracle for HC_n(k|k) on the same truncation."""
    def d_entry(p, q, pt, qt):
        if pt == p and qt == q - 1:
            return (1 if q % 2 == 0 else 0) if p % 2 == 0 \
                else -(1 if q % 2 == 1 else 0)
        if pt == p - 1 and qt == q:
            return (1 - (-1) ** q) if p % 2 == 1 \
                else ((q + 1) if q % 2 == 0 else 0)
        return 0

    def dmat(n):
        return [[d_entry(p, n - p, pt, (n - 1) - pt) for p in range(n + 1)]
                for pt in range(n)]

    def rank_dense(rows):
        from fractions import Fraction
        rows = [[Fraction(x) for x in r] for r in rows if any(r)]
        r = 0
        ncols = len(rows[0]) if rows else 0
        for c in range(ncols):
            piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            rows[r] = [x / rows[r][c] for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            r += 1
        return r

    out = []
    for n in range(D):
        rk = rank_dense(dmat(n)) if n >= 1 else 0
        rknext = rank_dense(dmat(n + 1))
        out.append((n + 1) - rk - rknext)
    return out


def test_criterion_03_classical_oracle():
    cc = cyclic_complex(scalar_algebra(QQ, name="point"))
    tc = cc.total(5)
    dims = [homology(tc, n).dim for n in range(5)]
    oracle = _oracle_point_hc(5)
    ok = dims == [1, 0, 1, 0, 1] == oracle
    _announce(3, ok, f"HC_n(Q|Q) engine {dims} == oracle {oracle} == (1,0,1,0,1)")


# -- criterion 4 ------------------------------------------------------------

def _fixture_extensions_with_coidempotents():
    """(label, extension, connection, coidempotents) for every fixture."""
    out = []
    fz = z2()
    sc, _ = z2_sc()
    out.append(("FIX-Z2", fz["extension"], sc,
                list(fz["coidempotents"].values())))
    fn = nc()
    scn, _ = nc_sc()
    out.append(("FIX-NC", fn["extension"], scn, [fn["coidempotent"]]))

    def build(name):
        ws = parse_workspace(fixture_document(name))
        ent = ws.single_entwining()
        _, _, rho = ws.single_coaction()
        x = make_extension(ent, rho, grouplike=_detect_grouplike(ent, rho))
        sc, _ = solve_strong_connection(x)
        return x, sc, list(ws.coidempotents.values())

    for name in ("FIX-TRIV", "FIX-SW", "FIX-SEP", "FIX-FP"):
        x, sc, es = build(name)
        out.append((name, x, sc, es))
    return out


def test_criterion_04_cycle_condition():
    for label, x, sc, es in cached("all-fixture-ext",
                                   _fixture_extensions_with_coidempotents):
        assert sc is not None, f"{label}: no strong connection"
        for e in es:
            chg = chg_components(e, sc, 4)
            tc = chg.cc_b.total(5)
            for n in (0, 1, 2):
                chain = assemble_cycle(chg, n, tc)
                assert tc.is_cycle(2 * n, chain), \
                    f"{label}: chg chain at n={n} is not a cycle"
    _announce(4, True, "d(cycle) = 0 at n in {0,1,2} on every fixture "
                       "with a coidempotent and solved connection")


# -- criterion 5 ------------------------------------------------------------

def _z2_idempotent():
    fz = z2()
    sc, _ = z2_sc()
    x = fz["extension"]
    e1 = fz["coidempotents"]["e1"]
    dual = local_dual_system(sc, e1)
    phi = Mat.from_rows(QQ, [[qi(1), qi(0)]])
    return x, sc, e1, dual, phi, idempotent_e(sc, e1, dual, phi)


def _nc_idempotent():
    fn = nc()
    sc, _ = nc_sc()
    x = fn["extension"]
    e = fn["coidempotent"]
    dual = local_dual_system(sc, e)
    phi = inverse(x.incl_B.matrix)
    return x, sc, e, dual, phi, idempotent_e(sc, e, dual, phi)


def test_criterion_05_chain_equality():
    for label, build in (("FIX-Z2", _z2_idempotent), ("FIX-NC", _nc_idempotent)):
        x, sc, e, dual, phi, em = cached(f"idem-{label}", build)
        chg = chg_components(e, sc, 4)
        rep = compare_chg_ch(chg, em, 4)
        assert rep.ok, f"{label}: {rep.failures}"
    _announce(5, True, "ch~_l(E) = chg~_l(e) exactly for l <= 4 on FIX-Z2 "
                       "and FIX-NC")


# -- criterion 6 ------------------------------------------------------------

def test_criterion_06_idempotency_and_theta():
    fz = z2()
    x, sc, e1, dual, phi, em = cached("idem-FIX-Z2", _z2_idempotent)
    gamma = associated_module(x, fz["comodules"]["e1"][0])
    gammas = gamma_elements(sc, e1, dual, gamma, fz["comodules"]["e1"][1].ws)
    assert verify_gamma_identities(em, gamma, gammas).ok
    th1 = theta_isomorphism(em, gamma, gammas)
    fn = nc()
    xn, scn, en, dualn, phin, emn = cached("idem-FIX-NC", _nc_idempotent)
    w, db = fn["comodule"]
    gamma_n = associated_module(xn, w)
    gammas_n = gamma_elements(scn, en, dualn, gamma_n, db.ws)
    assert verify_gamma_identities(emn, gamma_n, gammas_n).ok
    th2 = theta_isomorphism(emn, gamma_n, gammas_n)
    ok = all(t["dim_BE"] == t["dim_Gamma"] and t["bijective"] and
             t["well_defined"] for t in (th1, th2))
    _announce(6, ok, f"E^2 = E; dim(B^(IxP)E) = dim Gamma and Theta bijective "
                     f"(Z2: {th1['dim_Gamma']}, NC: {th2['dim_Gamma']})")


# -- criterion 7 ------------------------------------------------------------

def test_criterion_07_independence_on_fix_z2():
    """Faithful implementation of the criterion as stated.

    The criterion requires two DISTINCT points of the strong-connection
    solution space on FIX-Z2.  That space is a single point (proof: right
    colinearity forces ell(g_i) into matching graded components, left
    colinearity removes the off-degree legs, and the splitting identity
    fixes both remaining scalars; the solver confirms freedom = 0), so the
    criterion's premise is unsatisfiable.  This test fails honestly rather
    than weakening the statement; see criterion 7s for the theorem's content
    verified on a fixture with a positive-dimensional solution space.
    """
    sc, sol = z2_sc()
    assert sc is not None
    if sol.freedom == 0:
        _announce(7, False,
                  "FIX-Z2 strong-connection solution space is 0-dimensional; "
                  "two distinct points do not exist (unsatisfiable premise; "
                  "see the analysis in this test's docstring)")
    pts = [sol.point([qi(0)] * sol.freedom),
           sol.point([qi(1)] + [qi(0)] * (sol.freedom - 1))]
    _compare_classes(z2()["extension"], z2()["coidempotents"]["e1"], pts)
    _announce(7, True, "two distinct FIX-Z2 connections give equal classes")


def _compare_classes(x, e, ells):
    scs = [StrongConnection(x, ell) for ell in ells]
    for sc in scs:
        assert verify_strong_connection(sc).ok
    chgs = [chg_components(e, sc, 4) for sc in scs]
    tc = chgs[0].cc_b.total(5)
    for n in (0, 1):
        res = [assemble_and_class(c, n, tc) for c in chgs]
        assert res[0]["class"].class_coords == res[1]["class"].class_coords, \
            f"classes differ at HC_{2 * n}"


def test_criterion_07s_independence_on_positive_dimensional_space():
    # supplementary: the final theorem's checkable content, on the NC
    # fixture whose solution space is positive-dimensional
    fn = nc()
    x = fn["extension"]
    sc, sol = nc_sc()
    assert sol.freedom >= 1
    ell2 = sol.point([qi(1)] + [qi(0)] * (sol.freedom - 1))
    assert ell2 != sc.ell
    _compare_classes(x, fn["coidempotent"], [sc.ell, ell2])
    _announce("7s", True,
              f"distinct connections (freedom {sol.freedom}) give equal "
              f"classes in HC_0 and HC_2 on FIX-NC")


# -- criterion 8 ------------------------------------------------------------

def test_criterion_08_structural_properties():
    from coralg.coring import direct_sum_coidempotents
    fz = z2()
    sc, _ = z2_sc()
    e0, e1 = fz["coidempotents"]["e0"], fz["coidempotents"]["e1"]
    c0 = chg_components(e0, sc, 4)
    c1 = chg_components(e1, sc, 4)
    cs = chg_components(direct_sum_coidempotents(e0, e1), sc, 4)
    for l in range(5):
        assert cs.comps[l] == [a + b for a, b in zip(c0.comps[l], c1.comps[l])]
    w, db = fz["comodules"]["e1"]
    redundant = DualBasis("left", [[QQ.one], [QQ.one]],
                          [Mat.from_rows(QQ, [[qi(3)]]),
                           Mat.from_rows(QQ, [[qi(-2)]])], True, db.generator)
    e_big = coidempotent_from_comodule(w, redundant)
    cb = chg_components(e_big, sc, 4)
    for l in range(5):
        assert cb.comps[l] == c1.comps[l]
    scaled = DualBasis("left", [[qi(5)]],
                       [Mat.from_rows(QQ, [[QQ.parse("1/5")]])],
                       True, db.generator)
    e_iso = coidempotent_from_comodule(w, scaled)
    ci = chg_components(e_iso, sc, 4)
    for l in range(5):
        assert ci.comps[l] == c1.comps[l]
    _announce(8, True, "additivity, dual-basis independence and comodule-"
                       "isomorphism invariance hold exactly on FIX-Z2")


# -- criterion 9 ------------------------------------------------------------

def test_criterion_09_total_integral_roundtrip():
    x = z2()["extension"]
    res = total_integral(x)
    ok = res["relative_injective"]
    j, h = res["j"], res["h"]
    ok = ok and j.apply([qi(1), qi(0)]) == [qi(1), qi(0)]
    ok = ok and h @ x.rho == Mat.identity(QQ, 2)
    e = x.entwining
    from coralg.ncalg import leg_apply
    ins = leg_apply(e.coring.carrier, e.AC, 0, 0, e.ring.unit_col())
    ok = ok and h @ ins == j
    _announce(9, ok, "j(g0) = 1, h . rho = id and j(c) = h(1 (x) c) exactly")


# -- criterion 10 -----------------------------------------------------------

def test_criterion_10_galois_detection():
    from coralg.entwine import canonical_maps
    details = []
    for label, x, sc, es in cached("all-fixture-ext",
                                   _fixture_extensions_with_coidempotents):
        if label in ("FIX-Z2", "FIX-SW", "FIX-NC"):
            res = canonical_maps(x)
            assert res["galois"], f"{label} must be Galois"
            varpi = connection_from_galois(x)
            assert verify_strong_connection(varpi).ok
            details.append(label)
    # corrupted-coaction FIX-Z2 variant: rho(x) = x (x) g0 is not Galois
    ent = z2()["entwining"]
    rho_bad = Mat.from_entries(QQ, 4, 2, [((0, 0), QQ.one), ((2, 1), QQ.one)])
    res = galois_check(ent, rho_bad)
    assert not res["galois"]
    _announce(10, True, f"can_A bijective on {details}; corrupted variant "
                        f"reported non-Galois; translation maps verify at T = B")


# -- criterion 11 -----------------------------------------------------------

def test_criterion_11_zz_performance_and_memory_guard():
    m2 = matrix_algebra(QQ, 2)
    cc = CyclicComplex(m2)
    with pytest.raises(MemoryGuard):
        cc.space(10)  # 4^11 ~ 4.2e6 > 2e6 guard
    elapsed = time.monotonic() - MODULE_T0
    _announce(11, elapsed < 60.0,
              f"acceptance suite wall time {elapsed:.1f}s < 60s; memory "
              f"guard aborts cleanly")
