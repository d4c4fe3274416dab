"""Aggregated invariant suites behind the command line 'check' subcommand.

Each suite re-runs one family of declared invariants against a datum:
validation, the Hecke-algebra oracle for its Weyl group, the duality
involution laws, the self-dual basis contract, the module-equals-algebra
cross oracle (hecke-regular datums), positivity of the C_w structure
constants, cuspidal-implies-clean, and series parity.  Results come back
as named pass/fail lines in a fixed order, so output is byte-stable.

The selfdual-basis stability test, positivity and the count of parity's
integer-powers all read klv.expansion_report: one pass over C_w . L_tau,
one tau at a time, made by whichever of them asks first and memoized as
problem lines and a count, so no suite walks or keeps the expansions.
Stability is certified from the identity and generator expansions, which
the W-graph rule carries to every w; the pass itself then only counts and
tests signs, on packed integers.  Where the certificate fails, every
(w, tau) is tested, with the same lines.

Both halves of parity hold by construction, since every exponent of the
package is an integer (see laurent): integer-powers walks no polynomial
and series-parity builds no Ext or IC series (see klv.parity_check).
"""

from __future__ import annotations

from . import datum as dm
from . import hecke
from . import hmodule as hm
from . import klv as klvmod
from .laurent import ONE, Q


def run_check_suites(d: dm.OrbitDatum, window: int = 10) -> dm.ValidationReport:
    checks = []

    validation = dm.validate_datum(d)
    detail = "" if validation.ok else "; ".join(
        f"{c.name}: {c.detail}" for c in validation.checks if not c.passed
    )
    checks.append(dm.CheckResult("validation", validation.ok, detail))
    if not validation.ok:
        return dm.ValidationReport(checks)

    checks.append(_hecke_oracle(d))
    checks.append(_involution_suite(d))
    checks.append(_selfdual_suite(d))
    checks.append(_cross_oracle(d))
    checks.append(_positivity_suite(d))
    checks.append(_cuspidal_clean_suite(d))
    checks.append(_parity_suite(d, window))
    return dm.ValidationReport(checks)


def _hecke_oracle(d: dm.OrbitDatum) -> dm.CheckResult:
    sys = d.coxeter
    problems = []
    for s in range(sys.rank):
        ts = hecke.T(sys, [s])
        lhs = hecke.mul_T(ts + hecke.unit(sys), ts - hecke.unit(sys).scale(Q))
        if not lhs.is_zero():
            problems.append(f"(T{s + 1}+1)(T{s + 1}-q) != 0")
    for s in range(sys.rank):
        for t in range(s + 1, sys.rank):
            m = sys.coxeter_m(s, t)
            left = right = hecke.unit(sys)
            for k in range(m):
                left = hecke.mul_T(left, hecke.T(sys, [s if k % 2 == 0 else t]))
                right = hecke.mul_T(right, hecke.T(sys, [t if k % 2 == 0 else s]))
            if left != right:
                problems.append(f"braid relation (s{s + 1}, s{t + 1}) fails")
    basis = hecke.kl_basis(sys)
    problems.extend(hecke.verify_kl_basis(basis))
    for s in range(sys.rank):
        cs = basis.c(sys.generator(s))
        if hecke.mul_T(cs, cs) != cs.scale(Q + ONE):
            problems.append(f"C{s + 1}^2 != (q+1) C{s + 1}")
    n = sys.order()
    return dm.CheckResult.of("hecke-oracle", problems, f"|W|={n}, quadratic+braid+kl-basis")


def _involution_suite(d: dm.OrbitDatum) -> dm.CheckResult:
    # beta^2 = id is validation's costandard-involution check, which has
    # passed before any suite runs; what is left is compatibility with T_s
    return dm.CheckResult.of(
        "involution", hm.compatibility_problems(d), f"{len(d.params)} basis vectors"
    )


def _selfdual_suite(d: dm.OrbitDatum) -> dm.CheckResult:
    table = klvmod.klv_table(d)
    problems = klvmod.verify_klv_table(table, d)
    if not problems:
        # Stability: C_w L_tau is again self-dual up to q^(l(w)+dim tau).
        # Write C_w L_tau = sum_gamma c_gamma L_gamma.  The table has just
        # passed verify_klv_table, so beta(L_gamma) = q^-dim(gamma) L_gamma,
        # and the L_gamma are unitriangular over the m_gamma in basis order:
        # supports lie below in the closure order, and the degree bound
        # leaves no room for an off-diagonal entry within one orbit.  Being a
        # basis, they make the dense test beta(C_w L_tau) q^(l(w)+dim tau)
        # == C_w L_tau hold iff, for every gamma,
        # bar(c_gamma) q^(l(w)+dim tau-dim gamma) == c_gamma, which
        # klv.expansion_report certifies from the generator expansions, and
        # tests on every (w, tau) where that certificate fails.
        problems = list(klvmod.expansion_report(d).not_self_dual)
    return dm.CheckResult.of("selfdual-basis", problems, f"{len(d.params)} columns verified")


def _cross_oracle(d: dm.OrbitDatum) -> dm.CheckResult:
    if not d.name.startswith("hecke-regular:"):
        return dm.CheckResult("cross-oracle", True, "not a hecke-regular datum; skipped")
    sys = d.coxeter
    tokens = {sys.element_token(w): w for w in sys.elements()}
    if tokens.keys() != d.param_by_id.keys():
        # a relabelled dump keeps its name, but its columns have other ids
        return dm.CheckResult(
            "cross-oracle", True, "parameter ids are not the element tokens; skipped"
        )
    table = klvmod.klv_table(d)
    basis = hecke.kl_basis(sys)
    problems = []
    for token, w in tokens.items():
        expected = {sys.element_token(x): p for x, p in basis.c(w).terms.items()}
        got = dict(table.column(token).coords)
        if expected != got:
            problems.append(f"table column {token} differs from the algebra oracle")
    return dm.CheckResult.of("cross-oracle", problems, f"{sys.order()} columns equal")


def _positivity_suite(d: dm.OrbitDatum) -> dm.CheckResult:
    report = klvmod.expansion_report(d)
    return dm.CheckResult.of(
        "positivity", list(report.negative), f"{report.coefficients} coefficients checked"
    )


def _cuspidal_clean_suite(d: dm.OrbitDatum) -> dm.CheckResult:
    table = klvmod.klv_table(d)
    problems = []
    cuspidals = []
    for p in d.params:
        if klvmod.is_cuspidal(d, p.id):
            cuspidals.append(p.id)
            if not klvmod.is_clean(table, p.id):
                problems.append(f"{p.id} is cuspidal but not clean")
    return dm.CheckResult.of(
        "cuspidal-clean", problems, "cuspidals: " + (",".join(cuspidals) or "none")
    )


def _parity_suite(d: dm.OrbitDatum, window: int) -> dm.CheckResult:
    report = klvmod.parity_check(d, window)
    problems = [f"{c.name}: {c.detail}" for c in report.checks if not c.passed]
    return dm.CheckResult.of(
        "parity", problems, "; ".join(f"{c.name} ({c.detail})" for c in report.checks)
    )
