"""Words, variational orbit solving and implicit
alpha-derivatives of orbits."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from billiard_lab import (AlphaDerivatives, BilliardOrbit, DeformationFamily,
                          ShadowingError, SolveError, Word, alpha_derivatives,
                          circle, ellipse, enumerate_cyclic_words,
                          find_orbit_segment, find_orbits, find_periodic_orbit,
                          is_admissible, orbit_alpha_derivatives,
                          sample_itinerary, validate_family)
from billiard_lab.geometry import PHI_PADDING, _phi_corpus, table_at
from billiard_lab import symbolic
from billiard_lab.symbolic import (TOL_ORBIT, TOL_SHADOW, _chain_length,
                                   _chain_system, _hessian_matrix,
                                   _newton_steps, _pad_symbols, _seed_chain,
                                   _solve_chain, _tridiag_solve,
                                   _truncation_bound)

from conftest import (growing_two_circle, static_three_circle,
                      static_two_circle, translate_two_circle)


def mixed_family():
    return DeformationFamily(
        (circle(0.0, 0.0, 1.0), circle(7.0, 0.0, 1.0),
         ellipse(3.5, 5.5, 1.6, 0.9, rotation=0.3)), 0.4, mode="general")


# -------------------------------------------------------------- words

def test_word_parse_round_trip():
    w = Word.parse("1,2,3")
    assert w.cyclic and w.symbols == (1, 2, 3) and len(w) == 3
    assert w.label == "1,2,3"
    o = Word.parse("open:2,1,3,1")
    assert not o.cyclic and o.symbols == (2, 1, 3, 1)
    assert o.label == "open:2,1,3,1"
    assert Word.parse(o.label) == o


def test_word_rejects_garbage():
    with pytest.raises(ValueError):
        Word.parse("1,x,3")
    with pytest.raises(ValueError):
        Word((), cyclic=True)
    with pytest.raises(ValueError):
        Word((0, 1), cyclic=True)


def test_admissibility_rules():
    assert is_admissible(Word((1, 2, 3)), 3)
    assert not is_admissible(Word((1, 1, 2)), 3)           # repeat
    assert not is_admissible(Word((1, 2, 1)), 3)           # cyclic wrap
    assert is_admissible(Word((1, 2, 1), cyclic=False), 3)
    assert not is_admissible(Word((1,), cyclic=True), 3)
    assert is_admissible(Word((1,), cyclic=False), 3)
    with pytest.raises(ValueError):
        is_admissible(Word((1, 4)), 3)


def test_sample_itinerary_deterministic_and_admissible():
    w1 = sample_itinerary(3, 40, seed=7)
    w2 = sample_itinerary(3, 40, seed=7)
    assert w1 == w2 and len(w1) == 40 and not w1.cyclic
    assert is_admissible(w1, 3)
    assert sample_itinerary(3, 40, seed=8) != w1


@settings(max_examples=40)
@given(seed=st.integers(0, 10 ** 6), length=st.integers(1, 60),
       z0=st.integers(2, 6))
def test_sampled_itineraries_always_admissible(seed, length, z0):
    assert is_admissible(sample_itinerary(z0, length, seed), z0)


def test_enumerate_cyclic_words_counts():
    words = enumerate_cyclic_words(3, 6)
    by_period = {}
    for w in words:
        by_period.setdefault(len(w), []).append(w)
    # primitive rotation classes of admissible cyclic words on 3 symbols
    assert {p: len(ws) for p, ws in by_period.items()} == \
        {2: 3, 3: 2, 4: 3, 5: 6, 6: 9}
    assert len(words) == 23
    labels = [w.label for w in words]
    assert len(set(labels)) == 23
    for w in words:
        assert is_admissible(w, 3)
    # the prime cycles of period n on z0 symbols without a repeated
    # neighbour: M_n = (1/n) sum_{d | n} mu(n/d) [(z0-1)^d + (z0-1)(-1)^d]
    for z0, top in ((3, 14), (4, 10)):
        counts = {}
        for w in enumerate_cyclic_words(z0, top):
            counts[len(w)] = counts.get(len(w), 0) + 1
        assert counts == {n: sum(
            _moebius(n // d) * ((z0 - 1) ** d + (z0 - 1) * (-1) ** d)
            for d in range(1, n + 1) if n % d == 0) // n
            for n in range(2, top + 1)}


def _moebius(n):
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return out


def _brute_force_cyclic_words(z0, max_period):
    """Every admissible tuple, kept as the least rotation of its class
    when primitive: the reference list of enumerate_cyclic_words."""
    seen, out = set(), []
    for period in range(2, max_period + 1):
        for tup in itertools.product(range(1, z0 + 1), repeat=period):
            rots = [tup[i:] + tup[:i] for i in range(period)]
            if any(tup[i] == tup[(i + 1) % period] for i in range(period)) \
                    or len(set(rots)) < period or min(rots) in seen:
                continue
            seen.add(min(rots))
            out.append(Word(min(rots), cyclic=True))
    return out


@pytest.mark.parametrize("z0, max_period", [(2, 12), (3, 6), (3, 8), (3, 10),
                                            (4, 8), (5, 6)])
def test_lyndon_cycles_equal_the_brute_force_list(z0, max_period):
    # same words, same order: the phi corpus reads that order
    assert enumerate_cyclic_words(z0, max_period) \
        == _brute_force_cyclic_words(z0, max_period)


# ------------------------------------------------------ chain calculus

def test_chain_gradient_matches_finite_differences():
    fam = mixed_family()
    table = table_at(fam, 0.2)
    symbols = np.array([1, 2, 3, 1, 2])
    us = _seed_chain(table, symbols, cyclic=True) \
        + np.linspace(-0.05, 0.08, 5)
    ev = _chain_system(table, symbols, us, True)
    h = 1e-6
    for j in range(len(us)):
        up, um = us.copy(), us.copy()
        up[j] += h
        um[j] -= h
        fd = (_chain_length(table, symbols, up, True)
              - _chain_length(table, symbols, um, True)) / (2.0 * h)
        assert ev.grad[j] == pytest.approx(fd, abs=5e-9)


@pytest.mark.parametrize("cyclic", [True, False])
def test_chain_hessian_and_alpha_gradient_match_fd(cyclic):
    fam = mixed_family()
    table = table_at(fam, 0.15)
    symbols = np.array([1, 3, 2, 3, 1, 2])
    rng = np.random.default_rng(3)
    us = _seed_chain(table, symbols, cyclic=cyclic) \
        + rng.uniform(-0.05, 0.05, 6)
    ev = _chain_system(table, symbols, us, cyclic, want_alpha=True)
    hess = _hessian_matrix(ev.hess, ev.off, cyclic)
    h = 1e-6
    for j in range(len(us)):
        up, um = us.copy(), us.copy()
        up[j] += h
        um[j] -= h
        col = (_chain_system(table, symbols, up, cyclic).grad
               - _chain_system(table, symbols, um, cyclic).grad) / (2.0 * h)
        np.testing.assert_allclose(hess[:, j], col, atol=2e-8)
    shifted = [_chain_system(table_at(fam, 0.15 + s), symbols, us,
                             cyclic).grad for s in (h, -h)]
    np.testing.assert_allclose(ev.g_alpha, (shifted[0] - shifted[1]) / (2.0 * h),
                               atol=2e-8)


@pytest.mark.parametrize("cfg_name", ["breathe_cfg", "mixed_cfg"])
@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.4])
def test_batched_corpus_solve_matches_one_chain_at_a_time(cfg_name, alpha,
                                                           request):
    fam = request.getfixturevalue(cfg_name).family
    table = table_at(fam, alpha)
    neighbour = table_at(fam, alpha + (0.01 if alpha < 0.2 else -0.01))
    for words in _phi_corpus(fam.z0):
        cyclic = words[0].cyclic
        symbols = _pad_symbols(np.array([w.symbols for w in words]),
                               0 if cyclic else PHI_PADDING)
        cold = _seed_chain(table, symbols, cyclic)
        warm = _solve_chain(neighbour, symbols,
                             _seed_chain(neighbour, symbols, cyclic), cyclic,
                             TOL_ORBIT)[0]
        for seeds in (cold, warm):
            us, _, errors, _, _ = _solve_chain(table, symbols, seeds,
                                                cyclic, TOL_ORBIT)
            assert sum(e is None for e in errors) >= len(words) - 1
            for b in range(len(words)):
                alone, _, error, _, _ = _solve_chain(
                    table, symbols[b:b + 1], seeds[b:b + 1], cyclic,
                    TOL_ORBIT)
                assert (errors[b] is None) == (error[0] is None)
                if errors[b] is None:
                    np.testing.assert_allclose(us[b], alone[0], rtol=0,
                                               atol=1e-12)


def test_only_the_bad_chain_of_a_batch_fails():
    table = table_at(static_three_circle(), 0.1)
    symbols = np.array([[1, 2, 3], [1, 3, 2], [1, 1, 2], [2, 3, 1]])
    us0 = _seed_chain(table, symbols, cyclic=True)
    us0[2, :2] = 0.5          # two reflection points coincide
    us0[3] = np.nan           # no step can lower the residual
    us, residual, errors, _, _ = _solve_chain(table, symbols, us0, True,
                                              TOL_ORBIT)
    assert "degenerate" in str(errors[2])
    assert "stalled" in str(errors[3])
    for b in (0, 1):
        assert errors[b] is None and residual[b] <= TOL_ORBIT
        alone = _solve_chain(table, symbols[b:b + 1], us0[b:b + 1], True,
                              TOL_ORBIT)[0]
        np.testing.assert_array_equal(us[b], alone[0])


def test_a_singular_damped_hessian_flags_only_its_chain():
    diag = np.array([[2.0] * 3, [0.0] * 3, [1.0] * 3])
    steps, singular = _newton_steps(diag, np.zeros((3, 2)), np.ones((3, 3)),
                                    np.zeros(3), False)
    assert singular.tolist() == [False, True, False]
    np.testing.assert_array_equal(steps[[0, 2]], [[-0.5] * 3, [-1.0] * 3])


@pytest.mark.parametrize("cyclic", [True, False])
def test_batched_solve_rows_equal_lone_rows(monkeypatch, cyclic):
    # crude and warm seeds, a non-finite seed, a degenerate chain and
    # forced singular Newton steps (by a row-wise rule, so that a row
    # meets it alone as in the batch): every row is its solve alone
    newton_steps = symbolic._newton_steps

    def sometimes_singular(diag, off, grad, mu, cyc):
        steps, singular = newton_steps(diag, off, grad, mu, cyc)
        forced = (mu == 0.0) & (grad[:, 0] > 0.0)
        steps[forced] = math.nan
        return steps, singular | forced

    monkeypatch.setattr(symbolic, "_newton_steps", sometimes_singular)
    table = table_at(mixed_family(), 0.15)
    if cyclic:
        symbols = np.array([w.symbols for w in enumerate_cyclic_words(3, 6)
                            if len(w) == 6][:6])
    else:
        symbols = _pad_symbols(np.array(
            [sample_itinerary(3, 8, seed=s).symbols for s in range(6)]), 3)
    symbols[1, 1] = symbols[1, 0]     # not admissible: coincident points
    us0 = _seed_chain(table, symbols, cyclic)
    us0[1, :2] = 0.5
    us0[3] = math.nan
    # near the solution: Newton only
    us0[4] = _solve_chain(table, symbols[4:5], us0[4:5], cyclic,
                          TOL_ORBIT)[0][0] + 1e-4
    us, residual, errors, _, _ = _solve_chain(table, symbols, us0, cyclic,
                                              TOL_ORBIT)
    assert "degenerate" in str(errors[1]) and "stalled" in str(errors[3])
    assert sum(e is None for e in errors) >= 3
    for b in range(len(symbols)):
        alone, res, err, _, _ = _solve_chain(table, symbols[b:b + 1],
                                             us0[b:b + 1], cyclic, TOL_ORBIT)
        assert _hex(us[b]) == _hex(alone[0])
        assert _hex(residual[b]) == _hex(res[0])
        assert repr(errors[b]) == repr(err[0])


@pytest.mark.parametrize("cyclic", [True, False])
def test_solver_bands_are_those_of_its_returned_chains(cyclic):
    # the truncation bound reads these bands in place of a chain system
    # of its own: from crude seeds, and from converged chains that take
    # no step
    table = table_at(mixed_family(), 0.15)
    if cyclic:
        symbols = np.array([w.symbols for w in enumerate_cyclic_words(3, 6)
                            if len(w) == 6][:6])
    else:
        symbols = _pad_symbols(np.array(
            [sample_itinerary(3, 8, seed=s).symbols for s in range(6)]), 3)
    seeds = _seed_chain(table, symbols, cyclic)
    for _ in range(2):
        us, _, errors, hess, off = _solve_chain(table, symbols, seeds, cyclic,
                                                TOL_ORBIT)
        ok = [b for b, err in enumerate(errors) if err is None]
        ev = _chain_system(table, symbols[ok], us[ok], cyclic)
        assert len(ok) >= 5
        assert _hex(hess[ok]) == _hex(ev.hess)
        assert _hex(off[ok]) == _hex(ev.off)
        seeds = us


@pytest.mark.parametrize("du_orders", [(0, 1, 2), (3, 1), (2, 0, 3, 1),
                                       (5, 4)])
def test_coords_orders_agree_with_the_shifted_formula(du_orders):
    # one cos/sin pair and its quarter turn against cos/sin(u + l pi/2)
    # per order: the shifted argument rounds by up to about an ulp of
    # u + l pi/2, so the values agree to 1e-15 per unit of coefficient
    # size |P_m| + |Q_m| (+ |centre| for l = 0)
    rng = np.random.default_rng(sum(du_orders))
    for fam in (rotating_ellipse_family(), mixed_family()):
        for _ in range(20):
            table = table_at(fam, rng.uniform(0.0, fam.alpha_max))
            m = int(rng.integers(0, fam.smoothness[1] + 1))
            symbols = rng.integers(1, fam.z0 + 1, (3, 7))
            us = rng.uniform(0.0, 2.0 * math.pi, (3, 7))
            got = table.coords(symbols, us, du_orders, m)
            for l, (x, y) in zip(du_orders, got):
                shift = us + l * (np.pi / 2.0)
                z = table.phase[symbols] * (
                    table.p[m][symbols] * np.cos(shift)
                    + table.iq[m][symbols] * np.sin(shift))
                size = np.abs(table.p[m][symbols]) \
                    + np.abs(table.iq[m][symbols])
                if l == 0:
                    z = z + table.center[m][symbols]
                    size = size + np.abs(table.center[m][symbols])
                tol = 1e-15 * np.maximum(size, 1.0)
                assert (np.abs(x - z.real) <= tol).all()
                assert (np.abs(y - z.imag) <= tol).all()


def rotating_ellipse_family():
    # every coefficient moves with alpha, so the alpha-jets are not zero
    return DeformationFamily(
        (circle((0.0, 0.5), 0.0, (1.0, 0.3)), circle(7.0, (0.0, -1.0), 1.0),
         ellipse(3.5, 5.5, (1.6, 0.5), 0.9, rotation=(0.3, 2.0))), 0.4)


def _stacked_jet(table, symbols, us, du_order, dalpha_order):
    """One jet per call, gathered and stacked into (..., 2); cos and sin
    of u + l pi/2 from the quarter turn of one cos/sin pair."""
    c, s = np.cos(us), np.sin(us)
    cos_l, sin_l = ((c, s), (-s, c), (-c, -s), (s, -c))[du_order % 4]
    z = table.phase[symbols] * (
        table.p[dalpha_order][symbols] * cos_l
        + table.iq[dalpha_order][symbols] * sin_l)
    if du_order == 0:
        z = z + table.center[dalpha_order][symbols]
    return np.stack([np.real(z), np.imag(z)], axis=-1)


def _einsum_dot(a, b):
    return np.einsum("...ij,...ij->...i", a, b)


def _reference_edges(m, cyclic):
    ia = np.arange(m if cyclic else m - 1)
    return ia, (ia + 1) % m


def _reference_chain_length(table, symbols, us, cyclic):
    p = _stacked_jet(table, symbols, us, 0, 0)
    ia, ib = _reference_edges(us.shape[-1], cyclic)
    return np.sqrt(((p[..., ib, :] - p[..., ia, :]) ** 2).sum(-1)).sum(-1)


def _reference_chain_system(table, symbols, us, cyclic, want_alpha):
    """The chain system on stacked jets, einsum dot products and edge
    index arrays: the formulation the split-coordinate kernel replaced,
    kept as the reference for its values.  Returns (length, grad, hess,
    off, g_alpha, degenerate)."""
    p = _stacked_jet(table, symbols, us, 0, 0)
    t = _stacked_jet(table, symbols, us, 1, 0)
    ia, ib = _reference_edges(us.shape[-1], cyclic)
    t_a, t_b = t[..., ia, :], t[..., ib, :]
    v = p[..., ib, :] - p[..., ia, :]
    d = np.sqrt((v ** 2).sum(-1))
    degenerate = d.min(-1) < 1e-12
    d = np.where(np.expand_dims(degenerate, -1), 1.0, d)
    e = v / d[..., None]
    e_ta, e_tb = _einsum_dot(e, t_a), _einsum_dot(e, t_b)
    grad = np.zeros(us.shape)
    grad[..., ia] -= e_ta
    grad[..., ib] += e_tb
    u2 = _stacked_jet(table, symbols, us, 2, 0)
    haa = ((t_a ** 2).sum(-1) - _einsum_dot(v, u2[..., ia, :])) / d \
        - e_ta ** 2 / d
    hbb = ((t_b ** 2).sum(-1) + _einsum_dot(v, u2[..., ib, :])) / d \
        - e_tb ** 2 / d
    hab = -_einsum_dot(t_a, t_b) / d + e_ta * e_tb / d
    hess = np.zeros(us.shape)
    hess[..., ia] += haa
    hess[..., ib] += hbb
    g_alpha = None
    if want_alpha:
        pa = _stacked_jet(table, symbols, us, 0, 1)
        ta = _stacked_jet(table, symbols, us, 1, 1)
        va = pa[..., ib, :] - pa[..., ia, :]
        e_va = _einsum_dot(e, va)
        ga_a = (-_einsum_dot(va, t_a) - _einsum_dot(v, ta[..., ia, :])) / d \
            + e_ta * e_va / d
        ga_b = (_einsum_dot(va, t_b) + _einsum_dot(v, ta[..., ib, :])) / d \
            - e_tb * e_va / d
        g_alpha = np.zeros(us.shape)
        g_alpha[..., ia] += ga_a
        g_alpha[..., ib] += ga_b
    return d.sum(-1), grad, hess, hab, g_alpha, degenerate


def _random_chains(rng, z0, batch, m, cyclic):
    """Admissible symbol rows (the wrap too when cyclic) and random us."""
    symbols = np.empty((batch, m), int)
    for b in range(batch):
        row = [int(rng.integers(1, z0 + 1))]
        while len(row) < m:
            nxt = int(rng.integers(1, z0 + 1))
            last = cyclic and len(row) == m - 1
            if nxt != row[-1] and not (last and nxt == row[0]):
                row.append(nxt)
        symbols[b] = row
    return symbols, rng.uniform(0.0, 2.0 * math.pi, (batch, m))


def _hex(values):
    return [float(x).hex() for x in np.ravel(values)]


def test_a_batched_chain_has_the_length_it_has_alone():
    # every row of a batch sums its flights in the order a lone chain
    # does, so the Armijo test sees the same length in any batch
    table = table_at(mixed_family(), 0.2)
    rng = np.random.default_rng(5)
    for cyclic in (False, True):
        symbols, us = _random_chains(rng, 3, 5, 56, cyclic)
        lengths = _chain_system(table, symbols, us, cyclic).length
        short = _chain_length(table, symbols, us, cyclic)
        for b in range(5):
            alone = _chain_system(table, symbols[b:b + 1], us[b:b + 1],
                                  cyclic).length
            assert _hex(lengths[b]) == _hex(alone)
            assert _hex(short[b]) == _hex(alone)


@settings(max_examples=60)
@given(table=st.sampled_from(["circles", "ellipse"]),
       alpha=st.floats(0.0, 0.4), batch=st.integers(1, 5),
       cyclic=st.booleans(), m=st.sampled_from([2, 3, 7, 56]),
       degenerate=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_split_chain_kernel_equals_the_stacked_reference(
        table, alpha, batch, cyclic, m, degenerate, seed):
    fam = static_three_circle() if table == "circles" \
        else rotating_ellipse_family()
    tab = table_at(fam, alpha)
    symbols, us = _random_chains(np.random.default_rng(seed), 3, batch, m,
                                 cyclic)
    if degenerate:          # two reflection points coincide
        symbols[0, 1], us[0, 1] = symbols[0, 0], us[0, 0]
    for want_alpha in (False, True):
        ev = _chain_system(tab, symbols, us, cyclic, want_alpha)
        _, grad, hess, off, g_alpha, degen = _reference_chain_system(
            tab, symbols, us, cyclic, want_alpha)
        np.testing.assert_array_equal(ev.degenerate, degen)
        assert ev.degenerate[0] == degenerate
        for got, want in ((ev.grad, grad), (ev.hess, hess), (ev.off, off)):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert (ev.g_alpha is None) == (not want_alpha)
        if want_alpha:
            assert np.array_equal(ev.g_alpha, g_alpha)
    short = _chain_length(tab, symbols, us, cyclic)
    for b in range(batch):
        alone = _reference_chain_system(tab, symbols[b:b + 1], us[b:b + 1],
                                        cyclic, False)[0]
        assert _hex(ev.length[b]) == _hex(alone)
        assert _hex(short[b]) == _hex(_reference_chain_length(
            tab, symbols[b:b + 1], us[b:b + 1], cyclic))


# ------------------------------------------------- tridiagonal kernel

def _random_bands(rng, batch, m, cyclic, kind):
    """Bands of random nonsingular chain systems: symmetric positive
    definite (a random band shifted past its lowest eigenvalue) or
    strictly diagonally dominant with diagonal entries of either sign."""
    off = rng.uniform(-1.0, 1.0, (batch, m if cyclic else m - 1))
    if kind == "spd":
        diag = rng.uniform(-1.0, 1.0, (batch, m))
        for b in range(batch):
            low = np.linalg.eigvalsh(_hessian_matrix(diag[b], off[b],
                                                     cyclic))[0]
            diag[b] += rng.uniform(0.1, 1.0) - low
    else:
        row = np.array([np.abs(_hessian_matrix(np.zeros(m), o, cyclic)).sum(-1)
                        for o in off])
        diag = (row + rng.uniform(0.5, 1.0, (batch, m))) \
            * rng.choice([-1.0, 1.0], (batch, m))
    return diag, off


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("m", [2, 3, 4, 57])
@pytest.mark.parametrize("kind", ["spd", "dominant"])
def test_tridiag_solve_matches_dense_solve(cyclic, m, kind):
    rng = np.random.default_rng(m + 100 * cyclic)
    diag, off = _random_bands(rng, 5, m, cyclic, kind)
    for rhs in (rng.normal(size=(5, m)), rng.normal(size=(5, m, 2))):
        kept = rhs.copy()
        x, bad = _tridiag_solve(diag, off, rhs, cyclic)
        np.testing.assert_array_equal(rhs, kept)
        assert x.shape == rhs.shape and not bad.any()
        for b in range(5):
            ref = np.linalg.solve(_hessian_matrix(diag[b], off[b], cyclic),
                                  rhs[b])
            np.testing.assert_allclose(x[b], ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("with_singular", [False, True])
def test_tridiag_solve_isolates_bad_chains(cyclic, with_singular):
    # a nan diagonal, an inf right-hand side and (optionally) a zero
    # matrix between good chains: each good chain's solution is its solve
    # alone, bit for bit, and only the bad chains are flagged
    rng = np.random.default_rng(5)
    m = 6
    diag, off = _random_bands(rng, 7, m, cyclic, "spd")
    rhs = rng.normal(size=(7, m))
    diag[1, 2] = np.nan
    rhs[3, 0] = np.inf
    if with_singular:
        diag[5] = 0.0
        off[5] = 0.0
    expect = [False, True, False, True, False, with_singular, False]
    x, bad = _tridiag_solve(diag, off, rhs, cyclic)
    for b in (0, 2, 4, 6):
        alone = _tridiag_solve(diag[b:b + 1], off[b:b + 1], rhs[b:b + 1],
                               cyclic)[0][0]
        np.testing.assert_array_equal(x[b], alone)
    assert bad.tolist() == expect
    assert np.isnan(x[bad]).all()


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("nonfinite", [False, True])
@pytest.mark.parametrize("singular", [False, True])
def test_tridiag_solve_rows_equal_lone_rows(cyclic, nonfinite, singular):
    # all-finite batches skip the gather of the finite rows, and batches
    # without a singular row skip the NaN scatter: each row is its solve
    # alone either way
    rng = np.random.default_rng(11)
    diag, off = _random_bands(rng, 6, 5, cyclic, "dominant")
    rhs = rng.normal(size=(6, 5, 2))
    if nonfinite:
        off[2, 1] = np.inf
    if singular:
        diag[4] = 0.0
        off[4] = 0.0
    x, bad = _tridiag_solve(diag, off, rhs, cyclic)
    assert bad.tolist() == [False, False, nonfinite, False, singular, False]
    assert np.isnan(x[bad]).all()
    for b in range(6):
        alone, bad_alone = _tridiag_solve(diag[b:b + 1], off[b:b + 1],
                                          rhs[b:b + 1], cyclic)
        assert _hex(x[b]) == _hex(alone[0]) and bad[b] == bad_alone[0]


@pytest.mark.parametrize("cyclic", [True, False])
def test_alpha_derivatives_and_cond_match_dense_algebra(mixed_cfg, cyclic):
    # the banded u_dot and condition number on the shipped cyclic word
    # 1,2,3 and the shipped open word, against the dense solve and eigvalsh
    word = next(w for _, w in mixed_cfg.words if w.cyclic == cyclic)
    fam = mixed_cfg.family
    orb = find_periodic_orbit(word, fam, 0.2) if word.cyclic \
        else find_orbit_segment(word, fam, 0.2, padding=mixed_cfg.padding)
    derivs = orbit_alpha_derivatives(orb, fam)
    ev = _chain_system(table_at(fam, 0.2), np.asarray(orb.chain_symbols),
                       np.asarray(orb.chain_us), word.cyclic, want_alpha=True)
    hess = _hessian_matrix(ev.hess, ev.off, word.cyclic)
    core = slice(orb.core_start, orb.core_start + orb.period)
    udot = np.linalg.solve(hess, -ev.g_alpha)[core]
    np.testing.assert_allclose(derivs.u_dot, udot, rtol=0,
                               atol=1e-13 * np.abs(udot).max())
    eig = np.abs(np.linalg.eigvalsh(hess))
    assert derivs.cond == pytest.approx(eig.max() / eig.min(), rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 80), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_tridiagonal_extremes_equal_scipys_bisection(n, seed, scale):
    # the direct LAPACK call returns eigvalsh_tridiagonal(select="i")'s
    # extremes bit for bit, and refuses a non-finite band as it does
    rng = np.random.default_rng(seed)
    diag = scale * rng.uniform(0.1, 5.0, n)
    off = rng.normal(size=n - 1)
    for i in (0, n - 1):
        want = eigvalsh_tridiagonal(diag, off, select="i",
                                    select_range=(i, i))[0]
        assert float(symbolic._tridiag_eigenvalue(diag, off, i + 1)).hex() \
            == float(want).hex()
    off[seed % (n - 1)] = math.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        symbolic._tridiag_eigenvalue(diag, off, 1)


@pytest.mark.parametrize("cyclic", [True, False])
def test_an_indefinite_chain_hessian_is_rejected(mixed_cfg, cyclic,
                                                 monkeypatch):
    # shifting the diagonal by twice the smallest eigenvalue leaves
    # |eigenvalue| well conditioned but makes the smallest one negative:
    # the chain is no length minimum, so its derivative is refused
    word = next(w for _, w in mixed_cfg.words if w.cyclic == cyclic)
    fam = mixed_cfg.family
    orb = find_periodic_orbit(word, fam, 0.2) if word.cyclic \
        else find_orbit_segment(word, fam, 0.2, padding=mixed_cfg.padding)
    chain_system = symbolic._chain_system

    def shifted(*args, **kwargs):
        ev = chain_system(*args, **kwargs)
        # one chain at a time: the chain system is evaluated in batches
        low = np.array([np.linalg.eigvalsh(_hessian_matrix(d, o, cyclic))[0]
                        for d, o in zip(ev.hess, ev.off)])
        return dataclasses.replace(ev, hess=ev.hess - 2.0 * low[:, None])

    monkeypatch.setattr(symbolic, "_chain_system", shifted)
    with pytest.raises(SolveError, match="condition number inf exceeds"):
        orbit_alpha_derivatives(orb, fam)


def _pad_one_by_one(symbols, padding):
    """The word-at-a-time padding: one pad per side per step, each the
    first of 1, 2 that differs from its neighbour."""
    left = list(symbols)
    for _ in range(padding):
        left.insert(0, 1 if left[0] != 1 else 2)
        left.append(1 if left[-1] != 1 else 2)
    return tuple(left)


@pytest.mark.parametrize("padding", [0, 1, 4, 7])
def test_pad_symbols_of_a_batch_pads_each_word(padding):
    words = [sample_itinerary(4, 6, seed=s).symbols for s in range(12)]
    padded = _pad_symbols(np.array(words), padding)
    assert [tuple(row) for row in padded.tolist()] \
        == [_pad_one_by_one(w, padding) for w in words]


def test_pad_symbols_alternates_off_the_core():
    assert _pad_symbols(np.array((3, 1, 2)), 2).tolist() \
        == [2, 1, 3, 1, 2, 1, 2]
    padded = _pad_symbols(np.array(sample_itinerary(3, 9, seed=2).symbols), 5)
    assert is_admissible(Word(tuple(padded.tolist()), cyclic=False), 3)


# ------------------------------------------------------- orbit solving

def test_two_circle_periodic_orbit_exact():
    orb = find_periodic_orbit(Word((1, 2)), static_two_circle(), 0.0)
    assert orb.kind == "periodic" and orb.period == 2
    assert orb.residual <= 1e-11
    assert orb.records.u[0] == pytest.approx(0.0, abs=1e-12)
    assert orb.records.u[1] == pytest.approx(math.pi, abs=1e-12)
    assert orb.records.d[0] == pytest.approx(2.0, abs=1e-12)
    assert orb.records.phi[0] == pytest.approx(0.0, abs=1e-7)
    assert orb.records.point[0, 0] == pytest.approx(1.0, abs=1e-12)
    # a periodic orbit's core is its whole chain
    assert orb.core_start == 0
    np.testing.assert_allclose(orb.records.u, orb.chain_us)


def test_triangle_orbit_frozen_geometry():
    orb = find_periodic_orbit(Word((1, 2, 3)), static_three_circle(), 0.0)
    # closed forms: flight 6 - sqrt(3), collision angle pi/6
    np.testing.assert_allclose(orb.records.d, 4.267949192431122, rtol=0,
                               atol=1e-10)
    np.testing.assert_allclose(orb.records.phi, math.pi / 6.0, rtol=0,
                               atol=1e-10)
    np.testing.assert_allclose(orb.records.kappa, 1.0, rtol=0, atol=1e-12)


def test_core_reflections_are_read_only_columns():
    fam = mixed_family()
    for orb in (find_periodic_orbit(Word((1, 2, 3, 2)), fam, 0.3),
                find_orbit_segment(sample_itinerary(3, 12, seed=3), fam, 0.3,
                                   padding=6)):
        rec = orb.records
        n = len(orb.word)
        assert len(rec) == orb.period == n
        for name in ("obstacle", "u", "point", "d", "phi", "kappa"):
            col = getattr(rec, name)
            assert len(col) == n
            with pytest.raises(ValueError, match="read-only"):
                col[0] = col[0]
        assert rec.point.shape == (n, 2)
        assert rec.obstacle.tolist() == list(orb.word.symbols)
        assert np.all((rec.u >= 0.0) & (rec.u < 2.0 * math.pi))


def test_periodic_orbit_accepts_matching_init():
    fam = static_three_circle()
    orb = find_periodic_orbit(Word((1, 2, 3)), fam, 0.0)
    again = find_periodic_orbit(Word((1, 2, 3)), fam, 0.0,
                                init=np.asarray(orb.chain_us) + 1e-3)
    np.testing.assert_allclose(again.chain_us, orb.chain_us, atol=1e-9)
    with pytest.raises(ValueError):
        find_periodic_orbit(Word((1, 2, 3)), fam, 0.0, init=[0.0, 1.0])


def test_word_kind_and_admissibility_guards():
    fam = static_three_circle()
    with pytest.raises(ValueError):
        find_periodic_orbit(Word((1, 2), cyclic=False), fam, 0.0)
    with pytest.raises(ValueError):
        find_orbit_segment(Word((1, 2)), fam, 0.0)
    with pytest.raises(ValueError):
        find_periodic_orbit(Word((1, 2, 1)), fam, 0.0)
    with pytest.raises(ValueError):
        find_orbit_segment(Word((1, 1, 2), cyclic=False), fam, 0.0)


def test_segment_core_and_shadow_certificate():
    fam = static_three_circle()
    word = sample_itinerary(3, 20, seed=5)
    orb = find_orbit_segment(word, fam, 0.0, padding=12)
    assert orb.kind == "segment"
    assert len(orb.records) == 20
    assert orb.records.obstacle.tolist() == list(word.symbols)
    assert orb.core_start == 12            # one solve, at the requested depth
    assert len(orb.chain_us) == 20 + 2 * 12
    assert orb.shadow_gap <= TOL_SHADOW
    assert orb.residual <= 1e-11
    # truncation has decayed to rounding: even the bound is below 1e-12
    assert orb.shadow_gap < 1e-12


def test_segment_without_shadow_check():
    fam = static_three_circle()
    word = sample_itinerary(3, 10, seed=1)
    orb = find_orbit_segment(word, fam, 0.0, padding=6, shadow_check=False)
    assert math.isnan(orb.shadow_gap)
    assert orb.core_start == 6
    assert len(orb.records) == 10


def test_crude_seeds_descend_before_newton(monkeypatch):
    # a random admissible ellipse table on which Newton from the crude
    # seed alone lands on a nonphysical chain; the descent phase, run
    # while the residual exceeds _GD_TRIGGER, reaches the physical one
    fam = DeformationFamily((
        ellipse(2.5586394776277346, -0.18249793772906206,
                [0.9107613721479844, 0.2648593939729395], 1.8723794234639424,
                [0.1866238946472049, 0.1685383412212662]),
        ellipse(-1.0056021942498994, 2.359810522196703,
                [1.4084835699475569, -0.21397625241271317], 1.955901382507363,
                [1.2131096302030224, -0.31691837294525715]),
        ellipse(-1.0920021352295577, -2.3210930206272598,
                [1.6836312791299557, -0.1756931764162057], 0.3769739366352019,
                [1.168991220984931, 0.9213156189619367])), 0.4)
    validate_family(fam)
    word = Word((3, 1, 3, 1, 3, 2), False)
    orb = find_orbit_segment(word, fam, 0.4)
    assert orb.residual <= TOL_ORBIT
    assert orb.core_start == 20
    monkeypatch.setattr(symbolic, "_GD_TRIGGER", math.inf)
    with pytest.raises(SolveError, match="nonphysical"):
        find_orbit_segment(word, fam, 0.4)


def test_shallow_padding_is_a_worse_approximation():
    # deeper padding moves the core less: compare cores at padding 4 and 6
    # against the depth-12 chain, whose truncation bound meets TOL_SHADOW
    # (at padding 8 the core already equals it to the last bit)
    fam = static_three_circle()
    word = sample_itinerary(3, 12, seed=9)
    ref = find_orbit_segment(word, fam, 0.0, padding=12)
    gaps = []
    for pad in (4, 6):
        orb = find_orbit_segment(word, fam, 0.0, padding=pad,
                                 shadow_check=False)
        gap = float(np.abs(orb.records.point - ref.records.point)
                    .sum(-1).max())
        gaps.append(gap)
    assert gaps[0] > gaps[1] > 0.0
    assert gaps[1] < 1e-6


def _core_movement(orb, family, extras=(4, 8, 16)):
    """Largest distance the core points move when the chain is re-solved
    with ``extras`` more pads on each side."""
    core = orb.records.point
    moved = 0.0
    for extra in extras:
        deeper = find_orbit_segment(orb.word, family, orb.alpha,
                                    padding=orb.core_start + extra,
                                    shadow_check=False)
        pts = deeper.records.point
        moved = max(moved, float(np.sqrt(((pts - core) ** 2).sum(-1)).max()))
    return moved


def test_truncation_bound_covers_shipped_words(breathe_cfg, mixed_cfg):
    for cfg in (breathe_cfg, mixed_cfg):
        for ident, word in cfg.words:
            if word.cyclic:
                continue
            for alpha in (0.0, 0.2, 0.4):
                orb = find_orbit_segment(word, cfg.family, alpha,
                                         padding=cfg.padding)
                assert orb.shadow_gap <= TOL_SHADOW, (ident, alpha)
                assert _core_movement(orb, cfg.family) <= orb.shadow_gap, (
                    ident, alpha)


@settings(max_examples=20)
@given(side=st.floats(2.4, 6.0), seed=st.integers(0, 1000),
       shallow=st.sampled_from([2, 4, 6]))
@example(side=2.4, seed=0, shallow=2)
def test_truncation_bound_covers_core_movement_near_eclipse(side, seed,
                                                            shallow):
    # down to side 2.4, just above the no-eclipse threshold 4/sqrt(3):
    # the returned orbit meets TOL_SHADOW, deepening itself where needed
    fam = static_three_circle(side)
    word = sample_itinerary(3, 10, seed=seed)
    orb = find_orbit_segment(word, fam, 0.0, padding=12)
    assert orb.shadow_gap <= TOL_SHADOW
    assert _core_movement(orb, fam) <= orb.shadow_gap
    # and where truncation still shows, at a shallow unchecked depth
    raw = find_orbit_segment(word, fam, 0.0, padding=shallow,
                             shadow_check=False)
    assert _core_movement(raw, fam) <= _lone_truncation_bound(
        table_at(fam, 0.0), raw, shallow)


def _lone_truncation_bound(table, orbit, padding):
    """``_truncation_bound`` of one solved open chain, as a 1-row batch
    with the bands of its chain system."""
    symbols, us = np.array([orbit.chain_symbols]), np.array([orbit.chain_us])
    ev = _chain_system(table, symbols, us, False)
    bound, = _truncation_bound(table, symbols, us, ev.hess, ev.off, padding,
                               len(orbit.word))
    return bound


def test_truncation_bound_reads_both_ends():
    # a reversed word solves the reversed chain, so the bound, which
    # reads columns 0 and end of the inverse Hessian, must not change;
    # the word's ends sit on different obstacles (ellipse 3, circle 1)
    fam = mixed_family()
    word = Word((3, 1, 2, 3, 2, 1, 2), cyclic=False)
    bounds = []
    for w in (word, Word(word.symbols[::-1], cyclic=False)):
        orb = find_orbit_segment(w, fam, 0.2, padding=4, shadow_check=False)
        bounds.append(_lone_truncation_bound(table_at(fam, 0.2), orb, 4))
    assert bounds[0] == pytest.approx(bounds[1], rel=1e-9)


def test_tables_near_eclipse_deepen_their_padding():
    word = sample_itinerary(3, 12, seed=0)
    orb = find_orbit_segment(word, static_three_circle(3.0), 0.0, padding=12)
    assert orb.core_start > 12
    assert orb.core_start % 4 == 0
    assert len(orb.chain_us) == 12 + 2 * orb.core_start
    assert orb.shadow_gap <= TOL_SHADOW


def test_truncation_bound_past_the_cap_raises(monkeypatch):
    monkeypatch.setattr(symbolic, "MAX_PADDING", 12)
    word = sample_itinerary(3, 12, seed=0)
    with pytest.raises(ShadowingError,
                       match=r"truncation bound \S+ exceeds .* at padding 12"):
        find_orbit_segment(word, static_three_circle(3.0), 0.0, padding=12)


def test_segment_warm_start_sets_a_minimum_depth():
    fam = static_three_circle()
    word = sample_itinerary(3, 10, seed=2)
    deep = find_orbit_segment(word, fam, 0.0, padding=16)
    assert deep.core_start == 16
    with pytest.raises(ValueError, match="at least 20 pads"):
        find_orbit_segment(word, fam, 0.0, padding=20,
                           init=np.asarray(deep.chain_us))
    with pytest.raises(ValueError):
        find_orbit_segment(word, fam, 0.0, padding=12,
                           init=np.asarray(deep.chain_us)[1:])


def _same_result(a, b):
    """Exact equality of two batched results: orbits, derivatives or
    errors."""
    if isinstance(a, Exception):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, AlphaDerivatives):
        return isinstance(b, AlphaDerivatives) and a.cond == b.cond and all(
            np.array_equal(getattr(a, f), getattr(b, f))
            for f in ("u_dot", "d_dot", "kappa_dot", "cosphi_dot", "g_dot"))
    return a == b


@settings(max_examples=12)
@given(table=st.sampled_from(["breathe", "mixed"]),
       alpha=st.floats(0.0, 0.39),
       picks=st.lists(st.tuples(st.booleans(), st.integers(0, 5),
                                st.booleans()), min_size=2, max_size=5))
def test_batched_orbits_and_derivatives_equal_batches_of_one(
        breathe_cfg, mixed_cfg, table, alpha, picks):
    # a batch mixes warm and cold starts of cyclic and open words of few
    # lengths, so groups hold several chains; a cold open word deepens
    # from padding 6, and two chains fail (a nan start stalls, a start
    # on the far sides converges to a nonphysical chain); no result may
    # depend on the batch
    fam = (breathe_cfg if table == "breathe" else mixed_cfg).family
    cycles = [w for w in enumerate_cyclic_words(3, 4) if len(w) > 2]
    words, inits = [], []
    for cyclic, k, warm in picks:
        word = cycles[k % len(cycles)] if cyclic \
            else sample_itinerary(3, (4, 8)[k % 2], seed=k)
        init = None
        if warm:
            near = find_orbits([word], fam, alpha + 0.01)[0]
            init = np.asarray(near.chain_us)
        words.append(word)
        inits.append(init)
    deepening = sample_itinerary(3, 8, seed=11)
    solved = find_orbit_segment(deepening, fam, alpha)
    words += [deepening, deepening, deepening]
    inits += [None, np.full(len(solved.chain_us), np.nan),
              np.asarray(solved.chain_us) + math.pi]

    batch = find_orbits(words, fam, alpha, inits, padding=6)
    alone = [find_orbits([w], fam, alpha, [c], padding=6)[0]
             for w, c in zip(words, inits)]
    assert all(_same_result(a, b) for a, b in zip(batch, alone))
    assert batch[-3].core_start > 6
    assert isinstance(batch[-2], SolveError)
    assert "nonphysical" in str(batch[-1])

    orbits = [o for o in batch if isinstance(o, BilliardOrbit)]
    # a chain turned to the far sides is no minimum: its derivative fails
    orbits.insert(1, dataclasses.replace(
        solved, chain_us=tuple(np.asarray(solved.chain_us) + math.pi)))
    derivs = alpha_derivatives(orbits, fam)
    assert isinstance(derivs[1], SolveError)
    assert all(_same_result(d, alpha_derivatives([o], fam)[0])
               for d, o in zip(derivs, orbits))
    for o, d in zip(orbits, derivs):
        if not isinstance(d, SolveError):
            assert _same_result(d, orbit_alpha_derivatives(o, fam))


@settings(max_examples=10)
@given(table=st.sampled_from(["breathe", "mixed"]),
       alphas=st.lists(st.floats(0.0, 0.39), min_size=2, max_size=4,
                       unique=True),
       picks=st.lists(st.tuples(st.booleans(), st.integers(0, 5),
                                st.booleans(), st.integers(0, 3)),
                      min_size=3, max_size=8))
def test_multi_alpha_orbits_and_derivatives_equal_batches_of_one(
        breathe_cfg, mixed_cfg, table, alphas, picks):
    # one batch over several alphas (one multi-row snapshot) mixes warm
    # and cold starts of cyclic and open words; a cold open word deepens
    # from padding 6 at two alphas, so at least one re-pad is on a row
    # past the first, and a nan start fails.  Every row is its word's
    # batch of one at its alpha, obstacle symbols and alpha included
    fam = (breathe_cfg if table == "breathe" else mixed_cfg).family
    cycles = [w for w in enumerate_cyclic_words(3, 4) if len(w) > 2]
    words, at, inits = [], [], []
    for cyclic, k, warm, r in picks:
        word = cycles[k % len(cycles)] if cyclic \
            else sample_itinerary(3, (4, 8)[k % 2], seed=k)
        alpha = alphas[r % len(alphas)]
        init = None
        if warm:
            near = find_orbits([word], fam, alpha + 0.01)[0]
            init = np.asarray(near.chain_us)
        words.append(word)
        at.append(alpha)
        inits.append(init)
    deepening = sample_itinerary(3, 8, seed=11)
    solved = find_orbit_segment(deepening, fam, alphas[0])
    words += [deepening, deepening, deepening]
    at += [alphas[0], alphas[-1], alphas[-1]]
    inits += [None, None, np.full(len(solved.chain_us), np.nan)]

    batch = find_orbits(words, fam, at, inits, padding=6)
    alone = [find_orbits([w], fam, a, [c], padding=6)[0]
             for w, a, c in zip(words, at, inits)]
    assert all(_same_result(a, b) for a, b in zip(batch, alone))
    assert batch[-3].core_start > 6 and batch[-2].core_start > 6
    assert isinstance(batch[-1], SolveError)
    orbits = [o for o in batch if isinstance(o, BilliardOrbit)]
    for o, a in zip(batch, at):
        if isinstance(o, BilliardOrbit):
            assert o.alpha == a
            assert set(o.chain_symbols) | set(o.records.obstacle.tolist()) \
                <= {1, 2, 3}

    derivs = alpha_derivatives(orbits, fam)
    assert all(_same_result(d, alpha_derivatives([o], fam)[0])
               for d, o in zip(derivs, orbits))


def test_a_multi_alpha_batch_names_each_words_alpha(monkeypatch):
    # a word past the padding cap fails with the alpha of its own row
    monkeypatch.setattr(symbolic, "MAX_PADDING", 12)
    word = sample_itinerary(3, 12, seed=0)
    fam = static_three_circle(3.0)
    batch = find_orbits([word, word], fam, [0.0, 0.2], padding=12)
    for got, alpha in zip(batch, (0.0, 0.2)):
        assert isinstance(got, ShadowingError)
        assert str(got).endswith(f"at alpha = {alpha}")
        assert _same_result(got, find_orbits([word], fam, alpha,
                                             padding=12)[0])


def test_implicit_derivative_reads_the_flights_of_the_records(mixed_cfg):
    # d_dot = e . (q_dot(succ) - q_dot(node)) with e = v / d, d the
    # records' flight length and split products: on these 20 words of
    # the shipped mixed table, 32 of the 600 core flights once differed
    # in the last bit between the derivative and the records
    fam = mixed_cfg.family
    words = [sample_itinerary(3, 30, seed=s) for s in range(20)]
    orbits = find_orbits(words, fam, 0.2, padding=mixed_cfg.padding)
    table = table_at(fam, 0.2)
    for orb, der in zip(orbits, alpha_derivatives(orbits, fam)):
        symbols, us = np.array([orb.chain_symbols]), np.array([orb.chain_us])
        ev = _chain_system(table, symbols, us, False, want_alpha=True)
        udot = _tridiag_solve(ev.hess, ev.off, -ev.g_alpha, False)[0][0]
        (px, py), (tx, ty) = (
            (x[0], y[0]) for x, y in table.coords(symbols, us, (0, 1)))
        (pax, pay), = ((x[0], y[0]) for x, y in table.coords(symbols, us,
                                                             (0,), 1))
        qx, qy = tx * udot + pax, ty * udot + pay
        node = slice(orb.core_start, orb.core_start + len(orb.records))
        succ = slice(node.start + 1, node.stop + 1)
        vx, vy = px[succ] - px[node], py[succ] - py[node]
        assert _hex(np.sqrt(vx * vx + vy * vy)) == _hex(orb.records.d)
        ex, ey = vx / orb.records.d, vy / orb.records.d
        d_dot = ex * (qx[succ] - qx[node]) + ey * (qy[succ] - qy[node])
        assert _hex(der.d_dot) == _hex(d_dot)


def _warm_pass_against_records(family, alpha, words, chains):
    """The warm pass on one group at one alpha, checked against the
    largest angle that _build_records gives the same solved chains;
    returns the pass's results and the solve errors."""
    got = symbolic.max_collision_angles(words, family, [alpha] * len(words),
                                        chains, PHI_PADDING)
    table = table_at(family, alpha)
    cyclic = words[0].cyclic
    depth = 0 if cyclic else PHI_PADDING
    symbols, us, _, errors, _, _ = symbolic._segment_solve(
        table, words, depth, chains, TOL_ORBIT, np.zeros(len(words), int))
    ok = [b for b, err in enumerate(errors) if err is None]
    records = symbolic._build_records(table, symbols[ok], us[ok], depth,
                                      len(words[0]), cyclic)
    want = [(None, math.nan)] * len(words)
    for b, recs in zip(ok, records):
        if not isinstance(recs, SolveError):
            want[b] = (us[b], max(recs.phi.tolist()))
    for (chain, phi), (chain_ref, phi_ref) in zip(got, want):
        assert (chain is None) == (chain_ref is None)
        if chain is not None:
            np.testing.assert_array_equal(chain, chain_ref)
            assert phi.hex() == phi_ref.hex()
    return got, errors


@settings(max_examples=10)
@given(table=st.sampled_from(["breathe", "mixed"]),
       alpha=st.floats(0.0, 0.39), cyclic=st.booleans(),
       picks=st.lists(st.integers(0, 99), min_size=1, max_size=3,
                      unique=True))
def test_warm_phi_pass_reads_the_largest_record_angle(
        breathe_cfg, mixed_cfg, table, alpha, cyclic, picks):
    # the warm pass returns acos of the smallest outward cosine: the
    # largest angle, since acos decreases.  A nan start fails its solve;
    # the far sides of the 1,2 cycle (circles 1 and 2 lie on the x-axis
    # in both tables) are a converged but nonphysical chain
    fam = (breathe_cfg if table == "breathe" else mixed_cfg).family
    group = next(g for g in _phi_corpus(fam.z0)
                 if g[0].cyclic == cyclic and len(g) > 3)
    words = [group[k] for k in dict.fromkeys(k % len(group) for k in picks)]
    near = find_orbits(words, fam, alpha + 0.01, padding=PHI_PADDING,
                       shadow_check=False)
    chains = [np.asarray(o.chain_us) for o in near]
    got, errors = _warm_pass_against_records(
        fam, alpha, words + [words[0]],
        chains + [np.full(len(chains[0]), np.nan)])
    assert errors[-1] is not None and got[-1][0] is None
    assert all(chain is not None for chain, _ in got[:-1])

    pair = Word((1, 2))
    got, errors = _warm_pass_against_records(
        fam, alpha, [pair, pair, Word((1, 3))],
        [np.array([math.pi, 0.0]), np.array([0.1, 3.0]),
         np.array([0.5, 4.0])])
    assert errors[0] is None and got[0][0] is None
    assert got[1][0] is not None and got[2][0] is not None


@pytest.mark.parametrize("table", ["breathe", "mixed"])
def test_multi_row_phi_batch_rows_equal_words_solved_alone(breathe_cfg,
                                                           mixed_cfg, table):
    # one warm batch over several alphas on a multi-row snapshot: every
    # row is its word solved alone at its alpha from the same seed (a
    # chain from a nearby alpha, or the crude seed)
    fam = (breathe_cfg if table == "breathe" else mixed_cfg).family
    alphas = [0.05, 0.1, 0.3, 0.4]
    for group in _phi_corpus(fam.z0):
        words = list(group[:4])
        near = find_orbits(words, fam, 0.0, padding=PHI_PADDING,
                           shadow_check=False)
        seeds = [np.asarray(o.chain_us) for o in near]
        seeds[1] = None
        rows = [a for a in alphas for _ in words]
        got = symbolic.max_collision_angles(
            words * len(alphas), fam, rows, seeds * len(alphas), PHI_PADDING)
        for k, (chain, phi) in enumerate(got):
            word, seed = words[k % len(words)], seeds[k % len(words)]
            (chain_ref, phi_ref), = symbolic.max_collision_angles(
                [word], fam, [rows[k]], [seed], PHI_PADDING)
            assert chain_ref is not None
            assert chain.tobytes() == chain_ref.tobytes()
            assert phi.hex() == phi_ref.hex()


# ------------------------------------------------------ the grid walk

_WALKERS = [Word((1, 2)), Word((1, 2, 3), cyclic=False)]
_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
_CLOSED, _OPEN = (w.label for w in _WALKERS)


def _stub_solve(fails=()):
    """A ``solve`` for ``walk`` that solves nothing: the row of a word at
    alpha a returns the chain (label, a), or None when (label, a, warm)
    is in ``fails``, warm meaning that it had an init chain.  Returns the
    solve and the list of its calls, each the (label, alpha, init) of
    its rows."""
    calls = []

    def solve(words, alphas, inits):
        rows = [(w.label, a, init) for w, a, init in zip(words, alphas, inits)]
        calls.append(rows)
        return [(None if (label, a, init is not None) in fails
                 else (label, a), a) for label, a, init in rows]

    return solve, calls


def _chunk(alphas, inits):
    """The rows of one chunk: every word at each of ``alphas``, the word's
    init from ``inits``."""
    return [(w.label, a, init) for a in alphas
            for w, init in zip(_WALKERS, inits)]


def test_walk_chunks_and_seeds_the_grid(monkeypatch):
    # N = 2 + (3 + 2 * 2) = 9 nodes per alpha, so 18 nodes make chunks of
    # 2 alphas (3 if the pads went uncounted); with no chain the first
    # chunk holds one alpha
    monkeypatch.setattr(symbolic, "WALK_NODES", 18)
    solve, calls = _stub_solve()
    walked = list(symbolic.walk(solve, _WALKERS, _GRID, 2))
    assert [lo for lo, _ in walked] == [0, 1, 3, 5]
    for lo, rows in walked:
        part = _GRID[lo:lo + len(rows) // 2]
        assert rows == [((w.label, a), a) for a in part for w in _WALKERS]

    def chains_at(alpha):
        return [(_CLOSED, alpha), (_OPEN, alpha)]

    assert calls == [_chunk(_GRID[:1], [None, None]),
                     _chunk(_GRID[1:3], chains_at(0.0)),
                     _chunk(_GRID[3:5], chains_at(0.2)),
                     _chunk(_GRID[5:], chains_at(0.4))]
    # given chains, every chunk is full from the first
    solve, calls = _stub_solve()
    walked = list(symbolic.walk(solve, _WALKERS, _GRID, 2, ["a", "b"]))
    assert [lo for lo, _ in walked] == [0, 2, 4]
    assert calls[0] == _chunk(_GRID[:2], ["a", "b"])
    assert list(symbolic.walk(solve, _WALKERS, [], 2, ["a", "b"])) == []
    assert len(calls) == 3


def test_walk_retries_only_warm_failures_once_crude(monkeypatch):
    # chunks [0], [1, 2], [3, 4], [5].  The cycle fails cold at 0 (no
    # retry) and at 0.4, the last alpha of its chunk, from both seeds, so
    # it starts the next chunk crude; the open word fails from its chain
    # at 0.2 (the crude retry stands in) and at 0.3 from both seeds, in
    # the middle of its chunk, so 0.4 keeps the seed from 0.2
    monkeypatch.setattr(symbolic, "WALK_NODES", 18)
    fails = {(_CLOSED, 0.0, False), (_OPEN, 0.2, True),
             (_CLOSED, 0.4, True), (_CLOSED, 0.4, False),
             (_OPEN, 0.3, True), (_OPEN, 0.3, False)}
    solve, calls = _stub_solve(fails)
    walked = dict(symbolic.walk(solve, _WALKERS, _GRID, 2))
    assert calls == [
        _chunk(_GRID[:1], [None, None]),
        _chunk(_GRID[1:3], [None, (_OPEN, 0.0)]),
        [(_OPEN, 0.2, None)],
        _chunk(_GRID[3:5], [(_CLOSED, 0.2), (_OPEN, 0.2)]),
        [(_OPEN, 0.3, None), (_CLOSED, 0.4, None)],
        _chunk(_GRID[5:], [None, (_OPEN, 0.4)])]
    assert walked[1][3] == ((_OPEN, 0.2), 0.2)
    assert walked[3] == [((_CLOSED, 0.3), 0.3), (None, 0.3),
                         (None, 0.4), ((_OPEN, 0.4), 0.4)]


def test_walk_takes_one_alpha_while_no_word_has_a_chain(monkeypatch):
    # both words fail at 0.2 from both seeds: the chunk after it holds
    # one alpha, and full chunks follow once the words have chains again
    monkeypatch.setattr(symbolic, "WALK_NODES", 18)
    fails = {(w.label, 0.2, warm) for w in _WALKERS for warm in (False, True)}
    solve, _ = _stub_solve(fails)
    assert [lo for lo, _ in symbolic.walk(solve, _WALKERS, _GRID, 2)] \
        == [0, 1, 3, 4]


# -------------------------------------------------- alpha-derivatives

def test_translation_derivatives_exact():
    fam = translate_two_circle()
    orb = find_periodic_orbit(Word((1, 2)), fam, 0.0)
    dv = orbit_alpha_derivatives(orb, fam)
    np.testing.assert_allclose(dv.u_dot, 0.0, atol=1e-12)
    np.testing.assert_allclose(dv.d_dot, 1.0, atol=1e-12)
    np.testing.assert_allclose(dv.kappa_dot, 0.0, atol=1e-12)
    np.testing.assert_allclose(dv.cosphi_dot, 0.0, atol=1e-12)
    np.testing.assert_allclose(dv.g_dot, 0.0, atol=1e-12)
    assert dv.cond == pytest.approx(2.0, abs=1e-9)


def test_growing_radius_derivatives_exact():
    # r(a) = 1 + a on both circles: gap shrinks at rate 2, curvature
    # falls at rate 1, forcing g = 2 kappa at rate 2
    fam = growing_two_circle()
    orb = find_periodic_orbit(Word((1, 2)), fam, 0.0)
    dv = orbit_alpha_derivatives(orb, fam)
    np.testing.assert_allclose(dv.d_dot, -2.0, atol=1e-10)
    np.testing.assert_allclose(dv.kappa_dot, -1.0, atol=1e-10)
    np.testing.assert_allclose(dv.g_dot, -2.0, atol=1e-10)


@pytest.mark.parametrize("table", ["breathe", "mixed"])
def test_cycle_flight_derivatives_sum_to_the_length_alpha_partial(
        breathe_cfg, mixed_cfg, table):
    # envelope identity: the length gradient vanishes on a cycle, so
    # sum_j d_dot_j = d/dalpha L(u, alpha) at fixed u, read exactly from
    # the alpha-jets of the chain nodes.  The gap is grad L . u_dot, at
    # most m * residual * max|u_dot|, plus rounding (measured at alpha =
    # 0.2 over the 71 cycles of period <= 8: 5.4e-15 relative on
    # breathe, 1.4e-11 on mixed, where the solve tolerance dominates)
    fam = (breathe_cfg if table == "breathe" else mixed_cfg).family
    alpha = 0.2
    orbits = find_orbits(enumerate_cyclic_words(fam.z0, 8), fam, alpha)
    assert len(orbits) == 71
    t = table_at(fam, alpha)
    for orb, der in zip(orbits, alpha_derivatives(orbits, fam)):
        symbols, us = np.array(orb.chain_symbols), np.array(orb.chain_us)
        (px, py), = t.coords(symbols, us, (0,))
        (pax, pay), = t.coords(symbols, us, (0,), 1)
        vx, vy = symbolic._edge_change(px, py, True)
        wx, wy = symbolic._edge_change(pax, pay, True)
        length_alpha = float(np.sum((vx * wx + vy * wy)
                                    / np.sqrt(vx * vx + vy * vy)))
        m = len(us)
        bound = (m * orb.residual * np.abs(der.u_dot).max()
                 + 8 * m * np.finfo(float).eps
                 * (np.abs(der.d_dot).sum() + 1.0))
        assert abs(der.d_dot.sum() - length_alpha) <= bound


@pytest.mark.parametrize("label,make", [
    ("cyclic", lambda fam: find_periodic_orbit(Word((1, 2, 3)), fam, 0.1)),
    ("open", lambda fam: find_orbit_segment(sample_itinerary(3, 8, seed=3),
                                            fam, 0.1, padding=10)),
])
def test_derivatives_match_resolved_orbits(label, make):
    fam = mixed_family()
    orb = make(fam)
    dv = orbit_alpha_derivatives(orb, fam)
    h = 1e-6

    def repack(alpha, init):
        if orb.kind == "periodic":
            return find_periodic_orbit(orb.word, fam, alpha, init=init)
        return find_orbit_segment(orb.word, fam, alpha, padding=10, init=init,
                                  shadow_check=False)

    init = np.asarray(orb.chain_us)
    if orb.kind == "segment":
        init = init[orb.core_start - 10:orb.core_start + len(orb.records) + 10]
    plus = repack(0.1 + h, init)
    minus = repack(0.1 - h, init)
    rp, rm = plus.records, minus.records
    for j in range(len(orb.records)):
        du = ((rp.u[j] - rm.u[j] + math.pi) % (2.0 * math.pi) - math.pi) \
            / (2.0 * h)
        assert dv.u_dot[j] == pytest.approx(du, abs=2e-6)
        assert dv.d_dot[j] == pytest.approx((rp.d[j] - rm.d[j]) / (2.0 * h),
                                            abs=2e-6)
        assert dv.kappa_dot[j] == pytest.approx(
            (rp.kappa[j] - rm.kappa[j]) / (2.0 * h), abs=2e-6)
        assert dv.cosphi_dot[j] == pytest.approx(
            (math.cos(rp.phi[j]) - math.cos(rm.phi[j])) / (2.0 * h), abs=2e-6)
        g_p = 2.0 * rp.kappa[j] / math.cos(rp.phi[j])
        g_m = 2.0 * rm.kappa[j] / math.cos(rm.phi[j])
        assert dv.g_dot[j] == pytest.approx((g_p - g_m) / (2.0 * h), abs=5e-6)
