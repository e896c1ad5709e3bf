"""Every check item path against its report, pinned bit for bit.

One problem per path of the finite-interval checks (thm1, cor1, cor2)
and of the half-line checks (halfline, halfline-odd).  Each report must
match the recorded one item by item: name, verdict, every quantity (==,
with NaN equal to NaN) and detail.  A refactor of the checks that moves
any bit of any report fails here.
"""

import math

import numpy as np
import pytest

from phibvp import (
    HalflineProblem,
    Rhs,
    check_corollary_singular,
    check_corollary_surjective,
    check_halfline,
    check_halfline_odd,
    check_theorem1,
    constant_rhs,
    constant_weight,
    find_branch,
    make_operator,
    make_problem,
    one_plus_t_squared_weight,
    sqrt_t_weight,
    zero_rhs,
)

SMALL_LATTICE = (12, 6, 6)
inf = math.inf


def _rhs(fn, psi):
    return Rhs(fn=fn, psi=psi, name="pinned")


def _level(value):
    return lambda t: np.full_like(np.asarray(t, dtype=float), value)


def _decay():
    return _rhs(
        lambda t, x, y: np.exp(-t) * np.cos(x) * y**3,
        lambda t: np.exp(-np.asarray(t, dtype=float)),
    )


def _finite(op, weight, rhs, nu2, branch_at=None, hint=None, **params):
    phi = make_operator(op, **params)
    branch = None if branch_at is None else find_branch(phi, branch_at)
    return make_problem(
        phi, weight, rhs, 0.0, nu2, 1.0, branch=branch, branch_hint=hint, mesh_n=200
    )


def _halfline(op, rhs, nu2, psi_l1=None):
    phi = make_operator(op, **({"r": 2.0} if op == "r_laplacian" else {}))
    return HalflineProblem(
        phi,
        find_branch(phi, 0.0),
        one_plus_t_squared_weight(),
        rhs,
        0.0,
        nu2,
        psi_l1=psi_l1,
    )


def _perona_family():
    return _rhs(
        lambda t, x, y: t**4 * np.cos(x) * np.sin(y),
        lambda t: np.asarray(t, dtype=float) ** 4,
    )


def _cubic_tail():
    r0 = (math.pi + 4.0) ** -1.5
    return _rhs(
        lambda t, x, y: t**2 * np.cos(x) * y**3,
        lambda t: r0
        * np.minimum(1.0, 1.0 / np.maximum(np.asarray(t, dtype=float), 1e-300) ** 2),
    )


def _wobbling_tail():
    r0 = (math.pi + 4.0) ** -1.5
    return _rhs(
        lambda t, x, y: 0.0 * (t + x + y),
        lambda t: r0
        * (1.0 + 0.5 * np.sin(np.log(np.maximum(t, 1e-300))))
        / (1.0 + np.asarray(t, dtype=float) ** 2),
    )


def _exp_arctan():
    return _rhs(
        lambda t, x, y: np.exp(-t) * np.arctan(x * y),
        lambda t: (math.pi / 2.0) * np.exp(-np.asarray(t, dtype=float)),
    )


def _thm1(problem):
    return check_theorem1(problem, lattice=SMALL_LATTICE)


def _cor1(problem):
    return check_corollary_surjective(problem, lattice=SMALL_LATTICE)


def _cor2(problem):
    return check_corollary_singular(problem, lattice=SMALL_LATTICE)


def _hl(hp):
    return check_halfline(hp, L_lip=1.0, delta=0.5, lattice=SMALL_LATTICE)


def _hl_odd(hp):
    return check_halfline_odd(hp, lattice=SMALL_LATTICE)


CASES = {
    "thm1-pass": lambda: _thm1(
        _finite("perona_malik", constant_weight(1.0), _perona_family(), 0.05)
    ),
    "thm1-pass-decreasing": lambda: _thm1(
        _finite(
            "sine",
            constant_weight(1.0),
            constant_rhs(0.02),
            3.0,
            hint=(math.pi / 2.0, 3.0 * math.pi / 2.0),
        )
    ),
    "thm1-pass-singular-weight": lambda: _thm1(
        _finite("r_laplacian", sqrt_t_weight(), constant_rhs(0.05), 0.3, r=2.0)
    ),
    "thm1-margin-fail": lambda: _thm1(
        _finite(
            "perona_malik",
            constant_weight(1.0),
            _rhs(lambda t, x, y: 0.0 * (t + x + y), _level(0.3)),
            0.05,
        )
    ),
    "thm1-slope-outside": lambda: _thm1(
        _finite("relativistic", constant_weight(1.0), zero_rhs(), 1.5, branch_at=0.0)
    ),
    "thm1-psi-negative": lambda: _thm1(
        _finite(
            "r_laplacian",
            constant_weight(1.0),
            _rhs(lambda t, x, y: t + 0.0 * (x + y), lambda t: t - 0.5),
            0.3,
            r=2.0,
        )
    ),
    "cor1-pass": lambda: _cor1(
        _finite("r_laplacian", constant_weight(2.0), constant_rhs(0.5), 0.3, r=3.0)
    ),
    "cor2-pass": lambda: _cor2(
        _finite("relativistic", constant_weight(1.0), _decay(), 0.5, branch_at=0.0)
    ),
    "cor2-slope-outside": lambda: _cor2(
        _finite("relativistic", constant_weight(1.0), _decay(), 1.0, branch_at=0.0)
    ),
    "halfline-settled": lambda: _hl(
        _halfline("r_laplacian", _cubic_tail(), 0.2, psi_l1=2.0 * (math.pi + 4.0) ** -1.5)
    ),
    "halfline-unsettled": lambda: _hl(_halfline("r_laplacian", _wobbling_tail(), 0.1)),
    "halfline-odd-witness": lambda: _hl_odd(
        _halfline("relativistic", _exp_arctan(), 1.2, psi_l1=math.pi / 2.0)
    ),
    "halfline-odd-no-witness": lambda: _hl_odd(
        _halfline("relativistic", _exp_arctan(), 1.6, psi_l1=math.pi / 2.0)
    ),
}


EXPECTED = {
    'thm1-pass': (
        'thm1',
        'pass',
        [
            ('recip-norm', 'pass', [('k1', 1.0), ('kp', 1.0), ('p', 1.0)], '1/k must have finite L1 and Lp norms on [0, T]'),
            ('slope-in-branch', 'pass', [('s_star', 0.05), ('branch_lo', -1.0), ('branch_hi', 1.0)], ''),
            ('image-margin', 'pass', [('phi_s_star', 0.04987531172069826), ('two_l', 0.400016666625), ('margin_lo', 0.14985864509569824), ('margin_hi', 0.050108021654301726)], 'Phi(s*) +/- 2L must sit strictly inside the branch image'),
            ('psi-domination', 'sampled-pass', [('max_ratio', 0.5862591338656361), ('t_nodes', 12.0), ('x_nodes', 6.0), ('y_nodes', 6.0), ('box_lo', -0.4085983759750472), ('box_hi', 0.6264440584271699)], 'sampled |f(t,x,y)| <= psi(t) over the admissible box'),
        ],
    ),
    'thm1-pass-decreasing': (
        'thm1',
        'pass',
        [
            ('recip-norm', 'pass', [('k1', 1.0), ('kp', 1.0), ('p', 1.0)], '1/k must have finite L1 and Lp norms on [0, T]'),
            ('slope-in-branch', 'pass', [('s_star', 3.0), ('branch_lo', 1.5707963267948966), ('branch_hi', 4.71238898038469)], ''),
            ('image-margin', 'pass', [('phi_s_star', 0.1411200080598672), ('two_l', 0.03999999999999987), ('margin_lo', 1.1011200080598673), ('margin_hi', 0.818879991940133)], 'Phi(s*) +/- 2L must sit strictly inside the branch image'),
            ('psi-domination', 'sampled-pass', [('max_ratio', 1.0), ('t_nodes', 12.0), ('x_nodes', 6.0), ('y_nodes', 6.0), ('box_lo', 0.0), ('box_hi', 3.0402995180560746)], 'sampled |f(t,x,y)| <= psi(t) over the admissible box'),
        ],
    ),
    'thm1-pass-singular-weight': (
        'thm1',
        'pass',
        [
            ('recip-norm', 'pass', [('k1', 2.0005354081213715), ('kp', 2.0005354081213715), ('p', 1.0)], '1/k must have finite L1 and Lp norms on [0, T]'),
            ('slope-in-branch', 'pass', [('s_star', 0.14995985513783974), ('branch_lo', -inf), ('branch_hi', inf)], ''),
            ('image-margin', 'pass', [('phi_s_star', 0.14995985513783974), ('two_l', 0.1), ('margin_lo', inf), ('margin_hi', inf)], 'Phi(s*) +/- 2L must sit strictly inside the branch image'),
            ('psi-domination', 'sampled-pass', [('max_ratio', 1.0), ('t_nodes', 11.0), ('x_nodes', 6.0), ('y_nodes', 6.0), ('box_lo', 0.0), ('box_hi', 0.5000535408121372)], 'sampled |f(t,x,y)| <= psi(t) over the admissible box'),
        ],
    ),
    'thm1-margin-fail': (
        'thm1',
        'fail',
        [
            ('recip-norm', 'pass', [('k1', 1.0), ('kp', 1.0), ('p', 1.0)], '1/k must have finite L1 and Lp norms on [0, T]'),
            ('slope-in-branch', 'pass', [('s_star', 0.05), ('branch_lo', -1.0), ('branch_hi', 1.0)], ''),
            ('image-margin', 'fail', [('phi_s_star', 0.04987531172069826), ('two_l', 0.6), ('margin_lo', -0.05012468827930172), ('margin_hi', -0.14987531172069823)], 'Phi(s*) +/- 2L must sit strictly inside the branch image'),
            ('psi-domination', 'inconclusive', [], 'admissible slope box undefined, nothing to sample'),
        ],
    ),
    'thm1-slope-outside': (
        'thm1',
        'fail',
        [
            ('recip-norm', 'pass', [('k1', 1.0), ('kp', 1.0), ('p', 1.0)], '1/k must have finite L1 and Lp norms on [0, T]'),
            ('slope-in-branch', 'fail', [('s_star', 1.5), ('branch_lo', -1.0), ('branch_hi', 1.0)], ''),
            ('image-margin', 'inconclusive', [('two_l', 0.0)], 's* lies outside the branch, margin undefined'),
            ('psi-domination', 'inconclusive', [], 'admissible slope box undefined, nothing to sample'),
        ],
    ),
    'thm1-psi-negative': (
        'thm1',
        'fail',
        [
            ('recip-norm', 'pass', [('k1', 1.0), ('kp', 1.0), ('p', 1.0)], '1/k must have finite L1 and Lp norms on [0, T]'),
            ('slope-in-branch', 'pass', [('s_star', 0.3), ('branch_lo', -inf), ('branch_hi', inf)], ''),
            ('image-margin', 'pass', [('phi_s_star', 0.3), ('two_l', 6.505213034913027e-17), ('margin_lo', inf), ('margin_hi', inf)], 'Phi(s*) +/- 2L must sit strictly inside the branch image'),
            ('psi-domination', 'fail', [('psi_min', -0.5)], 'psi is negative at sampled nodes'),
        ],
    ),
    'cor1-pass': (
        'cor1',
        'pass',
        [
            ('recip-norm', 'pass', [('k1', 0.5), ('kp', 0.5), ('p', 1.0)], '1/k must have finite L1 and Lp norms on [0, T]'),
            ('slope-in-branch', 'pass', [('s_star', 0.6), ('branch_lo', -inf), ('branch_hi', inf)], ''),
            ('image-margin', 'pass', [('two_l', 1.0)], 'surjective branch: the image margin holds for every L'),
            ('psi-domination', 'sampled-pass', [('max_ratio', 1.0), ('t_nodes', 12.0), ('x_nodes', 6.0), ('y_nodes', 6.0), ('box_lo', -0.4), ('box_hi', 0.58309518948453)], 'sampled |f(t,x,y)| <= psi(t) over the admissible box'),
        ],
    ),
    'cor2-pass': (
        'cor2',
        'pass',
        [
            ('recip-norm', 'pass', [('k1', 1.0), ('kp', 1.0), ('p', 1.0)], ''),
            ('slope-in-branch', 'pass', [('s_star', 0.5), ('branch_lo', -1.0), ('branch_hi', 1.0)], ''),
            ('psi-domination', 'sampled-pass', [('max_ratio', 0.9800665720403098), ('t_nodes', 12.0), ('x_nodes', 6.0), ('y_nodes', 6.0)], 'sampled |f| <= psi over the whole branch box'),
        ],
    ),
    'cor2-slope-outside': (
        'cor2',
        'fail',
        [
            ('recip-norm', 'pass', [('k1', 1.0), ('kp', 1.0), ('p', 1.0)], ''),
            ('slope-in-branch', 'fail', [('s_star', 1.0), ('branch_lo', -1.0), ('branch_hi', 1.0)], ''),
            ('psi-domination', 'inconclusive', [], 's* outside the branch, nothing to sample'),
        ],
    ),
    'halfline-settled': (
        'thm_halfline',
        'pass',
        [
            ('recip-integrable', 'pass', [('mass', 1.5707963267948966), ('tail_estimate', 0.0)], '1/k must be integrable on the half-line'),
            ('psi-integrable', 'pass', [('mass', 0.10479423294647221), ('tail_estimate', 0.0)], 'psi must be integrable on the half-line'),
            ('slope-in-branch', 'pass', [('s_star_infinity', 0.12732395447351627), ('branch_lo', -inf), ('branch_hi', inf)], ''),
            ('lipschitz', 'sampled-pass', [('L_lip', 1.0), ('delta', 0.5), ('max_ratio', 1.0)], 'sampled |Phi(s) - Phi(s*_inf)| <= L |s - s*_inf|'),
            ('tail-limit', 'pass', [('M', 0.05239843963272977), ('threshold', 0.04052847345693511)], 'needs lim psi(t) k(t) > L |nu2 - nu1| / (2 k_inf^2)'),
            ('image-margin', 'pass', [('phi_s_star', 0.12732395447351627), ('two_l', 0.20958846589294441), ('margin_lo', inf), ('margin_hi', inf)], 'Phi(s*) +/- 2L must sit strictly inside the branch image'),
            ('psi-domination', 'sampled-pass', [('max_ratio', 0.09342268071991253), ('t_nodes', 12.0), ('x_nodes', 6.0), ('y_nodes', 6.0)], 'sampled |f| <= psi over the half-line admissible box'),
        ],
    ),
    'halfline-unsettled': (
        'thm_halfline',
        'inconclusive',
        [
            ('recip-integrable', 'pass', [('mass', 1.5707963267948966), ('tail_estimate', 0.0)], '1/k must be integrable on the half-line'),
            ('psi-integrable', 'pass', [('mass', 0.0823088753629723), ('tail_estimate', 4.059418902106948e-07)], 'psi must be integrable on the half-line'),
            ('slope-in-branch', 'pass', [('s_star_infinity', 0.06366197723675814), ('branch_lo', -inf), ('branch_hi', inf)], ''),
            ('lipschitz', 'sampled-pass', [('L_lip', 1.0), ('delta', 0.5), ('max_ratio', 1.0)], 'sampled |Phi(s) - Phi(s*_inf)| <= L |s - s*_inf|'),
            ('tail-limit', 'inconclusive', [('threshold', 0.020264236728467555)], 'psi k probes have not settled; supply M analytically'),
            ('image-margin', 'pass', [('phi_s_star', 0.06366197723675814), ('two_l', 0.1646177507259446), ('margin_lo', inf), ('margin_hi', inf)], 'Phi(s*) +/- 2L must sit strictly inside the branch image'),
            ('psi-domination', 'sampled-pass', [('max_ratio', 0.0), ('t_nodes', 12.0), ('x_nodes', 6.0), ('y_nodes', 6.0)], 'sampled |f| <= psi over the half-line admissible box'),
        ],
    ),
    'halfline-odd-witness': (
        'thm_halfline_odd',
        'pass',
        [
            ('recip-integrable', 'pass', [('mass', 1.5707963267948966), ('tail_estimate', 0.0)], '1/k must be integrable on the half-line'),
            ('psi-integrable', 'pass', [('mass', 1.5707963267948966), ('tail_estimate', 0.0)], 'psi must be integrable on the half-line'),
            ('witness-interval', 'pass', [('T', 4.0), ('k_T', 1.3258176636680326), ('s_T_star', 0.905101834802877)], 'first doubling T with margins and slope inside the branch'),
            ('psi-domination', 'sampled-pass', [('max_ratio', 0.628817338777712), ('slope_bound', 0.9824706034756696), ('x_bound', 1.5432612151235472)], 'sampled |f| <= psi over the symmetric admissible box'),
        ],
    ),
    'halfline-odd-no-witness': (
        'thm_halfline_odd',
        'fail',
        [
            ('recip-integrable', 'pass', [('mass', 1.5707963267948966), ('tail_estimate', 0.0)], '1/k must be integrable on the half-line'),
            ('psi-integrable', 'pass', [('mass', 1.5707963267948966), ('tail_estimate', 0.0)], 'psi must be integrable on the half-line'),
            ('witness-interval', 'fail', [('T', 1024.0), ('s_T_star', 1.0192252869247382)], 'no T in the doubling grid satisfies the margins'),
            ('psi-domination', 'inconclusive', [], ''),
        ],
    ),
}


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_the_pinned_one(case):
    theorem, overall, items = EXPECTED[case]
    rep = CASES[case]()
    assert (rep.theorem, rep.overall) == (theorem, overall)
    assert [it.name for it in rep.items] == [name for name, *_ in items]
    for it, (name, verdict, quantities, detail) in zip(rep.items, items):
        assert (it.verdict, it.detail) == (verdict, detail), name
        assert [k for k, _ in it.quantities] == [k for k, _ in quantities], name
        for (key, got), (_, want) in zip(it.quantities, quantities):
            assert _same(got, want), (name, key, got, want)
