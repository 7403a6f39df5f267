import math
import warnings

import numpy as np
import pytest

from pompeiu.errors import CoincidentPoints, DepthCap, DomainError
from pompeiu.geometry import DiskDomain, MultiIndex, PolydiscDomain, wirtinger_split
from pompeiu.kernels import c1, c2, c3, log_term
from pompeiu.operators import (ScalarField, apply_mixed, apply_polydisc, apply_T,
                               constant_field, field_from_expression)
from pompeiu import operators as operators_module
from pompeiu import oracle as oracle_module
from pompeiu import quadrature as quadrature_module
from pompeiu.oracle import (MAX_POLY_DEGREE, MIN_PAIR_SEPARATION, NESTED_GRID_SHAPE,
                            NESTED_RESOLUTION, NESTED_TOP_RESOLUTION, NestedOracle, PolynomialField, _GRID_PHASES,
                            _rotation_sum, bound_constants, check_norm_bound,
                            disk_norm_estimate, exact_transform, hoelder_seminorm,
                            lemma_lhs_quadrature, polydisc_norm_estimate, transform_monomials)
from pompeiu.quadrature import build_area_rule

DISK = DiskDomain(1.0)
A, B = 0.31 + 0.12j, -0.22 + 0.41j


# ---------------------------------------------------------------------------
# Nested application
# ---------------------------------------------------------------------------

def test_nested_single_is_plain_T():
    f = field_from_expression("z*zbar", DISK)
    z = 0.2 - 0.3j
    got = NestedOracle(f).evaluate(z, ["T"])
    assert got == pytest.approx(apply_T(f, z, NESTED_TOP_RESOLUTION), abs=1e-14)


def test_nested_TT_of_one_at_origin():
    # T(1) = zbar, T(zbar) = zbar^2/2, zero at the origin
    one = constant_field(1.0, DISK)
    assert abs(NestedOracle(one).evaluate(0, ["T", "T"])) < 1e-8


def test_nested_TTbar_of_one_at_origin():
    # radial computation gives exactly -1
    one = constant_field(1.0, DISK)
    assert NestedOracle(one).evaluate(0, ["T", "Tbar"]) == pytest.approx(-1.0, abs=1e-6)


def test_nested_depth_cap():
    one = constant_field(1.0, DISK)
    with pytest.raises(DepthCap):
        NestedOracle(one).evaluate(0, ["T"] * 5)
    with pytest.raises(DomainError):
        NestedOracle(one).evaluate(0, ["Q"])


def test_nested_requires_disk_domain():
    one = constant_field(1.0, PolydiscDomain(2, 1.0))
    with pytest.raises(DomainError):
        NestedOracle(one)


def test_nested_matches_closed_forms_depth_2():
    rng = np.random.default_rng(21)
    poly = PolynomialField(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    f = poly.to_field(DISK)
    oracle = NestedOracle(f)
    for z in (0.15 + 0.2j, -0.3 - 0.1j):
        mixed = apply_mixed(f, z, 1, 1)
        nested = oracle.evaluate(z, ["T", "Tbar"])
        assert abs(nested - mixed) <= 1e-5 * max(1.0, abs(mixed))


def test_grid_field_rotations_match_pointwise_evaluation():
    # a grid row weights an inner grid field's modes by the quadrature density
    # and sums them per radius before one inverse FFT; pointwise evaluation at
    # every grid rotation of the base rule's nodes, summed against the same
    # density, must agree
    rng = np.random.default_rng(22)
    poly = PolynomialField(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    field = NestedOracle(poly.to_field(DISK))._field_for(("T",))
    nt = NESTED_GRID_SHAPE[1]
    phases = np.exp(2j * np.pi * np.arange(nt) / nt)
    for r in (0.0, 0.37, 0.9):
        rule = build_area_rule(DISK, r, NESTED_RESOLUTION)
        density = rule.weights / (rule.nodes - r)
        row = _rotation_sum(field, rule.nodes, density)
        pointwise = np.sum(field(phases[:, None] * rule.nodes[None, :]) * density, axis=1)
        assert row.shape == pointwise.shape == (nt,)
        assert np.max(np.abs(row - pointwise)) <= 1e-13


def test_second_level_grid_rotations_match_pointwise_evaluation():
    # the ("T", "Tbar") grid was built from the truncated ("Tbar",) grid's
    # kept-mode sums, and its own rows scatter its kept modes again
    rng = np.random.default_rng(22)
    poly = PolynomialField(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    field = NestedOracle(poly.to_field(DISK))._field_for(("T", "Tbar"))
    nt = NESTED_GRID_SHAPE[1]
    phases = np.exp(2j * np.pi * np.arange(nt) / nt)
    assert len(field._freq) < nt
    for r in (0.0, 0.37, 0.9):
        rule = build_area_rule(DISK, r, NESTED_RESOLUTION)
        density = rule.weights / (rule.nodes - r)
        row = _rotation_sum(field, rule.nodes, density)
        pointwise = np.sum(field(phases[:, None] * rule.nodes[None, :]) * density, axis=1)
        assert np.max(np.abs(row - pointwise)) <= 1e-13


@pytest.mark.parametrize("inner", ("polynomial", "grid", "sampled"))
def test_rotation_sum_rows_equal_one_call_per_row(inner):
    # a 2-D call takes each chunk of whole rows' modes in one `_modes` call and
    # one einsum, then one inverse FFT (a sampled field, row by row); each row
    # must be the 1-D call's, bit for bit, across a partial last chunk
    rng = np.random.default_rng(27)
    poly = PolynomialField(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    field = {"polynomial": poly,
             "grid": NestedOracle(poly.to_field(DISK))._field_for(("T",)),
             "sampled": lambda z: z * np.conj(z) + np.conj(z)}[inner]
    radii = np.linspace(0.0, 1.0, 13)
    rule = build_area_rule(DISK, radii, NESTED_RESOLUTION)
    density = rule.weights / (rule.nodes - radii[:, None])
    assert 13 * rule.nodes.shape[1] > 2 * oracle_module._PolarGridField.BLOCK
    rows = _rotation_sum(field, rule.nodes, density)
    each = np.array([_rotation_sum(field, n, d) for n, d in zip(rule.nodes, density)])
    assert rows.shape == (13, NESTED_GRID_SHAPE[1])
    assert rows.tobytes() == each.tobytes()


@pytest.mark.parametrize("suffix, kind", [(("Tbar",), PolynomialField),
                                          (("T", "Tbar"), oracle_module._PolarGridField)])
def test_grid_build_takes_its_inner_modes_in_chunks_of_whole_radii(suffix, kind, monkeypatch):
    # every grid radius's base rule, in chunks of at most BLOCK points: 12
    # radii of 192 nodes in 3 `_modes` calls, not one per radius
    rng = np.random.default_rng(28)
    poly = PolynomialField(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    nested = NestedOracle(poly.to_field(DISK))
    nested._field_for(suffix[1:])
    sizes, real = [], kind._modes
    monkeypatch.setattr(kind, "_modes",
                        lambda self, z, *at: sizes.append(z.size) or real(self, z, *at))
    nested._field_for(suffix)
    nodes = NESTED_RESOLUTION[0] * NESTED_RESOLUTION[1]
    per_chunk = oracle_module._PolarGridField.BLOCK // nodes
    full, rest = divmod(NESTED_GRID_SHAPE[0], per_chunk)
    assert sizes == [per_chunk * nodes] * full + ([rest * nodes] if rest else [])
    assert sum(sizes) == NESTED_GRID_SHAPE[0] * nodes


@pytest.mark.parametrize("R", (1.0, 2.5))
@pytest.mark.parametrize("shape", ("monomial", "degree (8,8)"))
def test_polynomial_rotations_match_the_sampled_sum(R, shape, monkeypatch):
    # a polynomial's monomial c z^p zbar^q is angular mode p - q, so its rows come
    # from its exact density-weighted modes, never from samples at each rotation
    rng = np.random.default_rng(26)
    if shape == "monomial":
        poly = PolynomialField.from_dict({(5, 2): (0.3 - 1.1j) / R ** 7})
    else:
        degrees = np.add.outer(np.arange(9), np.arange(9))
        poly = PolynomialField((rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
                               / R ** degrees)
    for r in (0.0, 0.37 * R, 0.9 * R):
        rule = build_area_rule(DiskDomain(R), r, NESTED_RESOLUTION)
        density = rule.weights / (rule.nodes - r)
        terms = poly(_GRID_PHASES[:, None] * rule.nodes[None, :]) * density
        with monkeypatch.context() as patch:
            patch.setattr(PolynomialField, "__call__", lambda *_: pytest.fail("sampled"))
            row = _rotation_sum(poly, rule.nodes, density)
        # relative to the sum of |terms|: at r = 0 the monomial's rows cancel to round-off
        scale = np.max(np.sum(np.abs(terms), axis=1))
        assert np.max(np.abs(row - np.sum(terms, axis=1))) <= 1e-13 * scale


def test_polynomial_modes_stay_below_the_nyquist_slot():
    # a polynomial's modes |p - q| <= MAX_POLY_DEGREE each take their own FFT slot
    # of a grid row: none may alias another or reach the Nyquist one
    assert MAX_POLY_DEGREE < NESTED_GRID_SHAPE[1] // 2
    top = PolynomialField(np.ones((MAX_POLY_DEGREE + 1,) * 2))
    assert list(top._freq) == list(range(-MAX_POLY_DEGREE, MAX_POLY_DEGREE + 1))


@pytest.mark.parametrize("R", (1.0, 2.5))
def test_grid_phases_at_signed_zeros_and_on_the_axes(R):
    # each mode's phase is an integer power of exp(i arg z): at -0.0 arg is +-pi,
    # and on the axes the powers must match exp(i m arg z), Nyquist mode included
    rng = np.random.default_rng(24)
    values = rng.standard_normal(NESTED_GRID_SHAPE) + 1j * rng.standard_normal(NESTED_GRID_SHAPE)
    field = oracle_module._PolarGridField(DiskDomain(R), values)
    assert len(field._freq) == NESTED_GRID_SHAPE[1]
    r = 0.37 * R
    z = np.array([0j, complex(-0.0, 0.0), complex(-0.0, -0.0), r, -r, 1j * r, -1j * r])
    radial = field._modes(np.abs(z))   # arg |z| = 0: every phase is exactly 1
    phases = np.exp(1j * np.multiply.outer(np.angle(z), field._freq))
    phases.imag[:, field._freq == -NESTED_GRID_SHAPE[1] // 2] = 0.0
    # both phases carry about |m| pi eps of round-off, up to 2.8e-14 at |m| = 40
    assert np.max(np.abs(field._modes(z) - radial * phases)) <= 3e-14 * np.max(np.abs(radial))


def _lobatto_radii(radius, count):
    return radius * (1 - np.cos(np.pi * np.arange(count) / (count - 1))) / 2


def _all_mode_interpolant(values, radius):
    """Every angular Fourier mode of a polar grid (the Nyquist one as a cosine),
    each the Lagrange polynomial through its values at the Chebyshev-Lobatto
    radii in its textbook product form; returns the evaluator and the per-mode
    bounds b_m (largest |c_m| on the radii) of `_PolarGridField`'s docstring."""
    nr, nt = values.shape
    y = np.fft.fft(values, axis=1) / nt
    r = _lobatto_radii(radius, nr)
    freq = np.fft.fftfreq(nt, 1 / nt)

    def evaluate(z):
        x = np.abs(z)
        basis = np.ones((x.size, nr))
        for j in range(nr):
            for k in range(nr):
                if k != j:
                    basis[:, j] *= (x - r[k]) / (r[j] - r[k])
        c = np.einsum("pj,jm->pm", basis, y)
        phases = np.exp(1j * np.outer(np.angle(z), freq))
        phases[:, nt // 2] = np.cos(nt // 2 * np.angle(z))
        return np.sum(c * phases, axis=1)

    return evaluate, np.abs(y).max(axis=0)


def _polar_grid(radius, func):
    nr, nt = NESTED_GRID_SHAPE
    r = _lobatto_radii(radius, nr)
    return func(r[:, None] * np.exp(2j * np.pi * np.arange(nt) / nt)[None, :])


def _lebesgue_bound(count):
    return 1 + 2 / np.pi * np.log(count - 1)


def _off_grid_points(radius):
    # radii 0, 0.37, 0.9 and 0.999 R at seven angles off the grid's
    return np.outer((0.0, 0.37, 0.9, 0.999), radius * np.exp(1j * (0.1 + 0.9 * np.arange(7)))).ravel()


@pytest.mark.parametrize("R", (1.0, 2.5))
def test_grid_with_content_in_every_mode_keeps_them_all(R):
    rng = np.random.default_rng(24)
    values = rng.standard_normal(NESTED_GRID_SHAPE) + 1j * rng.standard_normal(NESTED_GRID_SHAPE)
    field = oracle_module._PolarGridField(DiskDomain(R), values)
    reference, _ = _all_mode_interpolant(values, R)
    z = _off_grid_points(R)
    assert sorted(field._freq % NESTED_GRID_SHAPE[1]) == list(range(NESTED_GRID_SHAPE[1]))
    assert np.max(np.abs(field(z) - reference(z))) <= 1e-13


@pytest.mark.parametrize("R", (1.0, 2.5))
def test_polynomial_grid_keeps_its_modes_within_the_stated_bound(R):
    # z^p zbar^q carries angular mode p - q: p, q <= 3 gives 7 modes, the other
    # 73 are FFT round-off, dropped within Lambda_n sum_dropped b_m < Lambda_n nt
    # 1e-13 max b_m; the kept modes are polynomials of degree <= 6 < nr in r, so
    # the grid reproduces the field itself
    rng = np.random.default_rng(25)
    poly = PolynomialField(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    values = _polar_grid(R, poly)
    field = oracle_module._PolarGridField(DiskDomain(R), values)
    reference, bound = _all_mode_interpolant(values, R)
    nr, nt = NESTED_GRID_SHAPE
    dropped = np.delete(bound, field._freq % nt)
    assert len(field._freq) <= 7 and set(field._freq) <= set(range(-3, 4))
    assert np.sum(dropped) < nt * 1e-13 * np.max(bound)
    z = _off_grid_points(R)
    # plus the float64 round-off of summing the reference's 80 modes
    assert (np.max(np.abs(field(z) - reference(z)))
            <= _lebesgue_bound(nr) * np.sum(dropped) + 1e-14 * np.max(bound))
    assert np.max(np.abs(field(z) - poly(z))) <= 1e-13 * np.max(bound)


def test_nyquist_only_grid_is_a_cosine_in_angle():
    nr, nt = NESTED_GRID_SHAPE
    # degree nr - 1: the interpolant through nr radii is exact
    g = lambda r: 1.0 + r - 0.5 * r ** 3 + 0.25 * r ** (nr - 1)
    r = _lobatto_radii(1.0, nr)
    field = oracle_module._PolarGridField(DISK, np.outer(g(r), (-1.0) ** np.arange(nt)))
    z = _off_grid_points(1.0)
    assert len(field._freq) == 1
    assert np.max(np.abs(field(z) - g(np.abs(z)) * np.cos(nt // 2 * np.angle(z)))) <= 1e-13


@pytest.mark.parametrize("R", (1.0, 2.5))
def test_grid_radii_are_chebyshev_lobatto_with_both_ends_exact(R):
    nested = NestedOracle(constant_field(1.0, DiskDomain(R)))
    radii = nested._radii
    assert radii.shape == (NESTED_GRID_SHAPE[0],) and radii[0] == 0.0 and radii[-1] == R
    assert np.allclose(radii, _lobatto_radii(R, NESTED_GRID_SHAPE[0]), rtol=0, atol=1e-15 * R)
    # a point on a radius takes that radius's values: no 0/0 at the ends
    values = _polar_grid(R, lambda z: z * np.conj(z) + z)
    field = oracle_module._PolarGridField(DiskDomain(R), values)
    on = radii * np.exp(2j * np.pi * 3 / NESTED_GRID_SHAPE[1])
    assert np.max(np.abs(field(on) - values[:, 3])) <= 1e-14 * R * R


def test_truncated_grid_edge_cases():
    zero = oracle_module._PolarGridField(DISK, np.zeros(NESTED_GRID_SHAPE))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(zero(_off_grid_points(1.0)) == 0) and zero(0.3j) == 0
    field = oracle_module._PolarGridField(DISK, _polar_grid(1.0, lambda z: z * z + np.conj(z)))
    assert type(field(0.2 + 0.1j)) is complex and type(field(np.asarray(0.5))) is complex
    assert field(np.zeros(0)).shape == (0,) and field(np.zeros((0, 3))).shape == (0, 3)
    square = 0.3 * np.exp(1j * np.arange(12.0)).reshape(3, 4)
    assert field(square).shape == (3, 4)
    assert np.array_equal(field(square).ravel(), field(square.ravel()))
    # a non-finite sample keeps every mode, so the field stays non-finite
    values = _polar_grid(1.0, lambda z: z * z)
    values[5, 7] = np.nan
    assert np.all(np.isnan(oracle_module._PolarGridField(DISK, values)(np.array([0.1, 0.5j]))))


def test_nested_oracle_builds_its_base_rules_once(monkeypatch):
    # one batched build_area_rule call serves every grid of every word
    calls = []
    real = oracle_module.build_area_rule
    monkeypatch.setattr(oracle_module, "build_area_rule",
                        lambda *args: calls.append(np.shape(args[1])) or real(*args))
    nested = NestedOracle(field_from_expression("z*zbar + zbar", DISK))
    for word in (("T", "Tbar"), ("T", "T", "Tbar"), ("T", "Tbar", "Tbar"), ("Tbar", "T")):
        nested.evaluate(0.2 - 0.1j, word)
    assert len(nested._memo) == 5
    assert calls == [(NESTED_GRID_SHAPE[0],)]


NESTED_WORDS = (("T",), ("Tbar",), ("T", "Tbar"), ("T", "T", "Tbar"), ("T", "Tbar", "Tbar"),
                ("T", "T", "Tbar", "Tbar"), ("T", "T", "T", "T"))


@pytest.mark.parametrize("R", (1.0, 2.5))
def test_nested_words_up_to_depth_4_match_exact_transforms(R):
    # a (4,4) polynomial in z/R, so T^k of it has size about R^k on any disk;
    # the error is relative to max(R^k, |value|), criterion 4's measure at R = 1
    rng = np.random.default_rng(23)
    degrees = np.add.outer(np.arange(4), np.arange(4))
    poly = PolynomialField((rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
                           / R ** degrees)
    oracle = NestedOracle(poly.to_field(DiskDomain(R)))
    for word in NESTED_WORDS:
        exact = poly
        for op in reversed(word):
            exact = exact_transform(exact, R, conjugate=op == "Tbar")
        for q in (0.0, 0.3, 0.7, 0.9):
            z = q * R * np.exp(0.7j)
            want = complex(exact(np.asarray(z)))
            got = oracle.evaluate(z, word)
            assert abs(got - want) <= 1e-5 * max(R ** len(word), abs(want))


#: `scripts/convergence_study.py --nested` (seeds 0-2): at NestedOracle's counts
#: every cell reads at most 2.1e-15, and at 10 radii up to 2e-8; a count cut
#: that costs digits fails here
NESTED_BUDGET = 2e-14


@pytest.mark.parametrize("R", (1.0, 2.5))
@pytest.mark.parametrize("size", (4, 5))
def test_nested_error_stays_within_its_sized_budget(R, size):
    # the sweep's seeded (size, size) fields in z/R, depth-1 to 4 words, five
    # angles per |z|/R up to the circle, relative to max(R^depth, |value|)
    rng = np.random.default_rng([0, size])
    degrees = np.add.outer(np.arange(size), np.arange(size))
    poly = PolynomialField((rng.standard_normal((size, size))
                            + 1j * rng.standard_normal((size, size))) / R ** degrees)
    oracle = NestedOracle(poly.to_field(DiskDomain(R)))
    for word in NESTED_WORDS + (("T", "T"), ("Tbar", "T")):
        exact = poly
        for op in reversed(word):
            exact = exact_transform(exact, R, conjugate=op == "Tbar")
        for q in (0.0, 0.7, 0.99, 1.0):
            z = q * R * np.exp(1j * np.array([0.7, 1.9, 3.2, 4.4, 5.6]))
            got = oracle.evaluate(z, word)
            err = np.abs(got - exact(z)) / np.maximum(R ** len(word), np.abs(exact(z)))
            assert np.max(err) <= NESTED_BUDGET, (word, q)


@pytest.mark.parametrize("R", (1.0, 2.5))
def test_nested_refuses_a_degree_plus_depth_beyond_its_radii(R):
    # the deepest grid of a depth-k word on a degree-d field has degree d + k - 1
    # in r, exact on the 12 radii while d + k <= 12: a (6,6) field (degree 10) at
    # depth 3 read 1.5e-9, and at depth 2 reads round-off
    rng = np.random.default_rng([0, 6])
    degrees = np.add.outer(np.arange(6), np.arange(6))
    poly = PolynomialField((rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
                           / R ** degrees)
    oracle = NestedOracle(poly.to_field(DiskDomain(R)))
    z = R * np.array([0.0, 0.7, 0.99, 1.0]) * np.exp(0.7j)
    with pytest.raises(DepthCap):
        oracle.evaluate(z, ("T", "T", "Tbar"))
    exact = exact_transform(exact_transform(poly, R, conjugate=True), R)
    err = np.abs(oracle.evaluate(z, ("T", "Tbar")) - exact(z)) / np.maximum(R * R, np.abs(exact(z)))
    assert np.max(err) <= NESTED_BUDGET


@pytest.mark.parametrize("p, q, word, inside", [
    (0, 6, ("T", "T"), True), (0, 7, ("T", "T"), False), (6, 0, ("Tbar", "Tbar"), True),
    (7, 0, ("Tbar", "Tbar"), False), (0, 14, ("T",), True), (0, 15, ("T",), False)])
def test_nested_refuses_powers_beyond_its_angles(p, q, word, inside):
    # a rule of N angles resolves powers of w or conj(w) up to N/2 - 2: past that,
    # the base rule's 16 read conj(z)^7 under [T, T] to 1e-2 and the top rule's 32
    # conj(z)^15 under T to 6e-2, although both fields are inside d + k <= 12 radii
    oracle = NestedOracle(field_from_expression(f"z^{p}*zbar^{q}", DISK))
    z = np.array([0.0, 0.3 + 0.2j, -0.7j, 0.99, np.exp(2.1j)])
    if not inside:
        with pytest.raises(DepthCap):
            oracle.evaluate(z, word)
        return
    terms = {(p, q): 1.0}
    for op in reversed(word):
        terms = transform_monomials(terms, 1.0, conjugate=op == "Tbar")
    want = sum(c * z ** a * np.conj(z) ** b for (a, b), c in terms.items())
    assert np.max(np.abs(oracle.evaluate(z, word) - want)) <= NESTED_BUDGET


def test_nested_refuses_a_field_of_unknown_degree():
    # nothing bounds the powers of a sampled field, so no word is inside the envelope
    oracle = NestedOracle(ScalarField(lambda w: np.conj(w), DISK))
    with pytest.raises(DepthCap):
        oracle.evaluate(0.3, ("T",))


@pytest.mark.parametrize("R", (1.0, 2.5))
def test_nested_targets_in_one_call_equal_a_call_each(R, monkeypatch):
    # one top-level rule call over the array; each value is the lone
    # target's, bit for bit, and a complex target still gives a complex
    rng = np.random.default_rng([0, 5])
    poly = PolynomialField(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    oracle = NestedOracle(poly.to_field(DiskDomain(R)))
    z = np.outer((0.0, 0.7, 0.99, 1.0), R * np.exp(1j * np.array([0.7, 1.9, 3.2])))
    for word in (("T",), ("Tbar", "T"), ("T", "T", "Tbar", "Tbar")):
        each = np.array([[oracle.evaluate(w, word) for w in row] for row in z])
        calls = []
        top = oracle_module._SINGLE_OPS[word[0]]
        with monkeypatch.context() as patch:
            patch.setitem(oracle_module._SINGLE_OPS, word[0],
                          lambda *args: calls.append(np.shape(args[1])) or top(*args))
            got = oracle.evaluate(z, word)
        assert calls == [z.shape] and got.shape == z.shape
        assert got.tobytes() == each.tobytes()
    assert type(oracle.evaluate(0.3 + 0.1j, ("T",))) is complex


def test_nested_values_at_criterion_4_targets_are_exact_to_round_off():
    # the acceptance criterion's (4,4) fields, targets and words against exact
    # compositions, relative to max(1, |value|) as the benchmark measures them
    rng = np.random.default_rng(1004)
    targets = np.array([0.18 + 0.22j, -0.31 + 0.12j])
    words = [("T",) * k for k in (1, 2, 3)] + [
        ("T",) * mu + ("Tbar",) * nu for mu, nu in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3))]
    for _ in range(2):
        poly = PolynomialField(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        oracle = NestedOracle(poly.to_field(DISK))
        for word in words:
            exact = poly
            for op in reversed(word):
                exact = exact_transform(exact, 1.0, conjugate=op == "Tbar")
            want = exact(targets)
            err = np.abs(oracle.evaluate(targets, word) - want) / np.maximum(1.0, np.abs(want))
            assert np.max(err) <= 1e-13, word


def test_shared_node_geometry_equals_a_fresh_one_bit_for_bit():
    # a NestedOracle forms its base nodes' barycentric rows and phases once;
    # every grid it builds from a grid must equal the build without them, for
    # any number of kept modes
    rng = np.random.default_rng(29)
    poly = PolynomialField(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    nested = NestedOracle(poly.to_field(DISK))
    inner = nested._field_for(("Tbar",))
    nodes = nested._base.nodes
    density = nested._base.weights / (np.conj(nodes) - nested._radii[:, None])
    shared = _rotation_sum(inner, nodes, density, nested._at)
    assert shared.tobytes() == _rotation_sum(inner, nodes, density).tobytes()
    values = rng.standard_normal(NESTED_GRID_SHAPE) + 1j * rng.standard_normal(NESTED_GRID_SHAPE)
    wide = oracle_module._PolarGridField(DISK, values)
    points = nodes[2:7].ravel()
    at = [a[2 * nodes.shape[1]:7 * nodes.shape[1]] for a in nested._at]
    assert len(wide._freq) > len(inner._freq)
    for field in (inner, wide):
        assert field._modes(points, at).tobytes() == field._modes(points).tobytes()


def test_nested_oracle_memoizes_suffix_grids():
    one = constant_field(1.0, DISK)
    oracle = NestedOracle(one)
    oracle.evaluate(0.1, ["T", "Tbar"])
    assert ("Tbar",) in oracle._memo
    first = oracle._memo[("Tbar",)]
    oracle.evaluate(0.2, ["T", "Tbar"])
    assert oracle._memo[("Tbar",)] is first


# ---------------------------------------------------------------------------
# Lemma left-hand sides
# ---------------------------------------------------------------------------

def test_lem4_k1_is_pure_log():
    got = lemma_lhs_quadrature("lem6", A, B, (1, 1), 1.0)
    want = 2j * np.pi * log_term(A, B, 1.0)
    assert abs(got - want) <= 1e-5 * abs(want)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_lem4_matches_c1_plus_log(k):
    got = lemma_lhs_quadrature("lem6", A, B, (1, k), 1.0)
    want = 2j * np.pi * (c1(A, B, k) + (A - B) ** (k - 1) * log_term(A, B, 1.0))
    assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


def test_lem5_residue_value():
    got = lemma_lhs_quadrature("lem5", A, B, (1, 1), 1.0)
    assert got == pytest.approx(2j * np.pi * (-np.conj(B)), abs=1e-12)
    got2 = lemma_lhs_quadrature("lem5", A, B, (2, 3), 1.0)
    assert got2 == pytest.approx(2j * np.pi * c2(A, B, 2, 3, 1.0), abs=1e-10)


@pytest.mark.parametrize("mu,nu", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 3)])
def test_lem6_matches_c3(mu, nu):
    got = lemma_lhs_quadrature("lem6", A, B, (mu, nu), 1.0)
    want = 2j * np.pi * c3(A, B, mu, nu, 1.0)
    assert abs(got - want) <= 1e-5 * max(1.0, abs(got))


@pytest.mark.parametrize("R", (1.0, 2.5))
@pytest.mark.parametrize("resolution", ((64, 128), (None, None), (16, 32)))
def test_lem6_orders_in_one_call_match_a_call_each(R, resolution):
    # one pair of half rules serves every order, bit for bit
    orders = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1))
    together = lemma_lhs_quadrature("lem6", A * R, B * R, orders, R, resolution)
    each = [lemma_lhs_quadrature("lem6", A * R, B * R, order, R, resolution) for order in orders]
    assert np.array(together).tobytes() == np.array(each).tobytes()
    assert lemma_lhs_quadrature("lem6", A * R, B * R, [(2, 2)], R, resolution) == [each[3]]


@pytest.mark.parametrize("R", (1.0, 2.5))
def test_lemma_integrands_equal_the_literal_powers_bit_for_bit(R, monkeypatch):
    # `power` takes x^0 as the scalar 1 and x^1 as x itself; every value must
    # be the literal `**` integrand's, at exponents 0 to 3
    a, b = A * R, B * R
    orders = [(mu, nu) for mu in range(1, 5) for nu in range(1, 5)]
    lem5 = [(l, nu) for l in range(4) for nu in range(1, 5)]

    def values():
        return (lemma_lhs_quadrature("lem6", a, b, orders, R, (16, 32))
                + [lemma_lhs_quadrature("lem5", a, b, order, R, contour_count=64)
                   for order in lem5])

    got = values()
    monkeypatch.setattr(oracle_module, "power", lambda x, n: x ** n)
    assert np.array(got).tobytes() == np.array(values()).tobytes()


def test_lemma_quadrature_converges_4x():
    want = 2j * np.pi * c3(A, B, 2, 2, 1.0)
    errs = []
    for res in [(16, 32), (32, 64), (64, 128)]:
        got = lemma_lhs_quadrature("lem6", A, B, (2, 2), 1.0, res)
        errs.append(abs(got - want))
    floor = 1e-10 * abs(want)
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= max(coarse / 4.0, floor)


def test_lemma_coincident_points():
    with pytest.raises(CoincidentPoints):
        lemma_lhs_quadrature("lem6", 0.2, 0.2, (1, 1), 1.0)
    with pytest.raises(DomainError):
        lemma_lhs_quadrature("lem9", A, B, (1, 1), 1.0)


# ---------------------------------------------------------------------------
# Exact polynomial calculus
# ---------------------------------------------------------------------------

def test_wirtinger_exact_values():
    zzbar = PolynomialField.from_dict({(1, 1): 1.0})
    assert zzbar.wirtinger(1, 1).coeffs[0, 0] == 1.0
    zbar3 = PolynomialField.from_dict({(0, 3): 1.0})
    d = zbar3.wirtinger(0, 1)
    assert complex(d(np.asarray(0.5j))) == pytest.approx(3 * np.conj(0.5j) ** 2)
    z2zb2 = PolynomialField.from_dict({(2, 2): 1.0})
    dd = z2zb2.wirtinger(2, 2)
    assert complex(dd(np.asarray(0.3 + 0.1j))) == pytest.approx(4.0)


def test_wirtinger_exact_cross_checked_by_fd():
    rng = np.random.default_rng(22)
    poly = PolynomialField(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    exact = poly.wirtinger(2, 1)
    stencil = wirtinger_split(2, 1)
    z = 0.2 - 0.35j
    fd = stencil.apply_richardson(lambda w: poly(np.asarray(w, dtype=complex)), z, 1e-2)
    assert fd == pytest.approx(complex(exact(np.asarray(z))), rel=1e-7, abs=1e-9)


def test_degree_cap():
    with pytest.raises(DomainError):
        PolynomialField(np.zeros((10, 2)))


# ---------------------------------------------------------------------------
# Hoelder estimators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_alpha_outside_open_unit_interval_raises(alpha):
    with pytest.raises(DomainError):
        hoelder_seminorm(constant_field(1.0, DISK), alpha)
    with pytest.raises(DomainError):
        bound_constants(alpha)


def test_hoelder_of_constant_is_zero():
    f = constant_field(3.7 - 1.1j, DISK)
    est = hoelder_seminorm(f, 0.5, k=1, sample_budget=100, seed=0)
    assert est == 0.0


def test_hoelder_identity_field_approaches_sqrt2():
    # |f(z)-f(z')|/|z-z'|^(1/2) = |z-z'|^(1/2), maximized at the diameter: sqrt(2R)
    f = field_from_expression("z", DISK)
    est = hoelder_seminorm(f, 0.5, k=1, sample_budget=3000, seed=1)
    assert est <= math.sqrt(2.0) + 1e-12
    assert est >= math.sqrt(2.0) - 0.1


def test_hoelder_monotone_in_budget():
    f = field_from_expression("zbar^2", DISK)
    values = [hoelder_seminorm(f, 0.5, k=1, sample_budget=n, seed=2)
              for n in (50, 100, 400)]
    assert values[0] <= values[1] <= values[2]


def test_hoelder_below_dense_grid_sup():
    # discrete estimate never exceeds a dense-grid reference sup
    f = field_from_expression("zbar^2", DISK)
    est = hoelder_seminorm(f, 0.5, k=1, sample_budget=500, seed=3)
    ts = np.linspace(0, 2 * np.pi, 181)[:-1]
    boundary = np.exp(1j * ts)
    pts = np.concatenate([r * boundary for r in (0.5, 0.8, 1.0)])
    za, zb = np.meshgrid(pts, pts)
    mask = np.abs(za - zb) > 1e-9
    quot = np.abs(np.conj(za) ** 2 - np.conj(zb) ** 2)[mask] / np.abs(za - zb)[mask] ** 0.5
    assert est <= np.max(quot) * (1 + 1e-9)


def test_hoelder_polydisc_second_order():
    p2 = PolydiscDomain(2, 1.0)
    f = field_from_expression("z1*z2", p2)
    est = hoelder_seminorm(f, 0.5, k=2, sample_budget=300, seed=4)
    assert isinstance(est, float)
    # |Delta_12 f| = |z1 - z1'| |z2 - z2'|, so the quotient is bounded by 2R^(1/2) each
    assert 0 < est <= 2.0 + 1e-9


def _hoelder_per_tuple(f, alpha, k, sample_budget, seed):
    # the estimator as a per-tuple loop of scalar calls, drawing from the RNG
    # in the order hoelder_seminorm must keep
    n, radius = f.factors, f.domain.radius
    rng = np.random.default_rng(seed)
    draw = lambda: complex(radius * np.sqrt(rng.random(1)[0])
                           * np.exp(2j * np.pi * rng.random(1)[0]))
    best = 0.0
    for _ in range(sample_budget):
        base = [draw() for _ in range(n)]
        idx = sorted(rng.choice(n, size=k, replace=False).tolist()) if k < n else list(range(n))
        primes = {}
        for j in idx:
            while abs((cand := draw()) - base[j]) < oracle_module.MIN_PAIR_SEPARATION * radius:
                pass
            primes[j] = cand
        total = 0j
        for mask in range(1 << k):
            point = [primes[j] if j in idx and mask >> idx.index(j) & 1 else b
                     for j, b in enumerate(base)]
            total += (-1) ** bin(mask).count("1") * complex(f(*[np.asarray(p) for p in point]))
        best = max(best, abs(total) / math.prod(abs(base[j] - primes[j]) ** alpha for j in idx))
    return best


_POLY3 = (PolydiscDomain(3, 1.3), "z1^2*z2bar*z3 - 3*z1bar*z2^2 + z3bar^3")
_HOELDER_CASES = [(DISK, "zbar^3 + 2*z*zbar - z", 1), (*_POLY3, 1), (*_POLY3, 2), (*_POLY3, 3)]


# at separation 0.5 R some partners are drawn again (first in tuple 6 on the
# disk, tuple 1 on the polydisc), and the one-call draw (k = n) rewinds to that row
@pytest.mark.parametrize("domain, text, k, separation", [
    pytest.param(*case, separation, id=f"{prefix}domain{i}-{case[1]}-{case[2]}")
    for separation, prefix in ((MIN_PAIR_SEPARATION, ""), (0.5, "separation0.5-"))
    for i, case in enumerate(_HOELDER_CASES)])
def test_hoelder_batched_matches_a_per_tuple_loop(monkeypatch, domain, text, k, separation):
    # the sampler draws every tuple first, then calls f once per corner of the
    # difference cube; the result is the per-tuple scalar loop's
    monkeypatch.setattr(oracle_module, "MIN_PAIR_SEPARATION", separation)
    f = field_from_expression(text, domain)
    got = hoelder_seminorm(f, 0.4, k=k, sample_budget=60, seed=5)
    want = _hoelder_per_tuple(f, 0.4, k, 60, 5)
    assert want > 0
    assert abs(got - want) <= 1e-14 * want


# ---------------------------------------------------------------------------
# Norm bound (one-sided)
# ---------------------------------------------------------------------------

def test_norm_bound_zero_field():
    zero = constant_field(0.0, DISK)
    rep = check_norm_bound(zero, 1, 1, 0.5, sup_points=3, pairs=3)
    assert rep.holds and rep.lhs == 0.0


def test_norm_bound_constant_field():
    one = constant_field(1.0, DISK)
    rep = check_norm_bound(one, 1, 1, 0.5, sup_points=4, pairs=4)
    assert rep.holds
    # the bound constant alone dwarfs the achievable lhs
    assert rep.rhs / max(rep.lhs, 1e-12) > 100


def test_norm_bound_random_polynomial():
    rng = np.random.default_rng(23)
    poly = PolynomialField(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    f = poly.to_field(DISK)
    rep = check_norm_bound(f, 2, 1, 0.5, sup_points=4, pairs=4)
    assert rep.holds


def test_norm_bound_of_a_finite_degree_field_builds_no_area_rule(monkeypatch):
    # every stencil value comes from the disk-centred core
    def refuse(*args, **kwargs):
        raise AssertionError("build_area_rule called")
    for module in (quadrature_module, operators_module, oracle_module):
        monkeypatch.setattr(module, "build_area_rule", refuse)
    rng = np.random.default_rng(29)
    f = PolynomialField(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))).to_field(DISK)
    for mu, nu in ((1, 1), (2, 1), (2, 2)):
        assert check_norm_bound(f, mu, nu, 0.5, sup_points=4, pairs=4).holds


def _norm_lhs_per_stencil_call(f, mu, nu, alpha, sup_points, pairs, seed):
    """check_norm_bound's left side by one `apply_richardson` call per site and
    pair end, on the same stencil points and the same transform values."""
    m, radius = mu + nu, f.domain.radius
    h = (1e-12) ** (1.0 / (m + 2)) * radius
    rng = np.random.default_rng(seed + 17)
    sites, pair_a, pair_b = (oracle_module._disk_samples(rng, n, 0.6 * radius)
                             for n in (sup_points, pairs, pairs))
    keep = np.abs(pair_a - pair_b) >= MIN_PAIR_SEPARATION * radius
    pair_a, pair_b = pair_a[keep], pair_b[keep]
    stencils = [wirtinger_split(i, m - i) for i in range(m + 1)]
    points = list(dict.fromkeys(
        complex(p) for stencil in stencils for z in (*sites, *pair_a, *pair_b)
        for step in (h, h / 2) for p in stencil.sample_points(complex(z), step)))
    g = dict(zip(points, apply_mixed(f, np.array(points), mu, nu))).__getitem__
    lhs = 0.0
    for stencil in stencils:
        deriv = lambda z: stencil.apply_richardson(g, complex(z), h)
        sup = max(abs(deriv(z)) for z in sites)
        hol = max((abs(deriv(za) - deriv(zb)) / abs(za - zb) ** alpha
                   for za, zb in zip(pair_a, pair_b)), default=0.0)
        lhs = max(lhs, sup + (2 * radius) ** alpha * hol)
    return lhs


@pytest.mark.parametrize("R", (1.0, 2.5))
@pytest.mark.parametrize("mu, nu, sup_points, pairs", [(1, 1, 4, 4), (2, 1, 8, 8), (0, 2, 3, 0),
                                                        (2, 2, 1, 5)])
def test_norm_bound_stencil_rows_match_a_call_per_point(R, mu, nu, sup_points, pairs):
    # the array rows sum each stencil as `WirtingerStencil.apply` does: equal bits
    rng = np.random.default_rng(31)
    f = PolynomialField(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    f = f.to_field(DiskDomain(R))
    for alpha, seed in ((0.25, 0), (0.75, 5)):
        got = check_norm_bound(f, mu, nu, alpha, sup_points, pairs, seed).lhs
        assert got == _norm_lhs_per_stencil_call(f, mu, nu, alpha, sup_points, pairs, seed)


def test_norm_bound_order_cap():
    one = constant_field(1.0, DISK)
    with pytest.raises(DomainError):
        check_norm_bound(one, 3, 2, 0.5)


def test_disk_norm_estimate_positive():
    f = field_from_expression("z+zbar", DISK)
    assert disk_norm_estimate(f, 0.5, sample_budget=200) > 0


# ---------------------------------------------------------------------------
# Polydisc norm growth: no published constant, so only boundedness under
# refinement is asserted.
# ---------------------------------------------------------------------------

def test_polydisc_transform_norm_bounded_under_refinement():
    p2 = PolydiscDomain(2, 1.0)
    f = field_from_expression("z1*z2bar+1", p2)
    mu, nu = MultiIndex((1, 1)), MultiIndex((1, 1))

    def transformed(res):
        def ev(z1, z2):
            z1 = np.atleast_1d(np.asarray(z1, dtype=complex))
            z2 = np.atleast_1d(np.asarray(z2, dtype=complex))
            z1b, z2b = np.broadcast_arrays(z1, z2)
            out = np.array([apply_polydisc(f, (complex(w1), complex(w2)), mu, nu, res)
                            for w1, w2 in zip(z1b.ravel(), z2b.ravel())])
            return out.reshape(z1b.shape)
        return ScalarField(ev, p2)

    coarse = polydisc_norm_estimate(transformed((12, 24)), 0.5, sample_budget=12, seed=5)
    fine = polydisc_norm_estimate(transformed((24, 48)), 0.5, sample_budget=12, seed=5)
    assert fine <= 2.0 * coarse + 1e-9
    assert coarse <= 10.0  # desk-scale sanity: no blow-up


def test_exact_transform_boundary_term():
    # T(z^2 zbar)(w) = w^2 wbar^2/2 - R^4/2 (boundary residue active: p >= q+1)
    mono = PolynomialField.from_dict({(2, 1): 1.0})
    out = exact_transform(mono, 1.0)
    w = 0.3 + 0.1j
    assert complex(out(np.asarray(w))) == pytest.approx(w**2 * np.conj(w) ** 2 / 2 - 0.5)
