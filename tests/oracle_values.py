"""Frozen reference values for the test suite, and the references the tests share.

Every decimal below was produced by an oracle independent of the code under
test (mpmath's own constants plus exact closed-form arithmetic at 70 digits,
cross-checked against accelerated-series and antiderivative computations)
and then frozen.  Tests compare engine output against these strings.

Below them: `ulp`, the Euler transform, an accelerator independent of CRZ, and
`tail`, the harmonic a_n read from the very code `sigma_series` sums.
"""

from mpmath import ldexp, mag, mpf, workprec

from hpcert import series
from hpcert.numeric import round_to

PI = "3.141592653589793238462643383279502884197169399375105820974944592307816406286208998628"
LN2 = "0.6931471805599453094172321214581765680755001343602552541206800094933936219696947156059"
CATALAN = "0.9159655941772190150546035149323841107741493742816721342664981196217630197762547694794"

# sum_{n>=1} (-1)^n (ln2 - 1/(n+1) - ... - 1/(2n))^2
SIGMA = "-0.02899509302173870080994716951858838964211337039970230344903668508786333443592041750986"

# int_0^1 x^2/((1+x^2)(1+x))  =  (3/4)ln2 - pi/8
A_VALUE = "0.1271613037212348272550936681836945655319789258483032129686419330815681656914949118759"
# int_0^1 ln(1+x^2)/((1+x^2)(1+x))  =  ((ln2)^2/2 - pi^2/48 + (pi/2)ln2 - G)/2
B_VALUE = "0.1037185997888272289851201507595011000540251070246970008064433975579865060708166753033"
# -int_0^1 x arctan x/((1+x^2)(1+x))  =  ((pi/4)ln2 - pi^2/32 - G/2)/2
C_VALUE = "-0.1110057060233757158703536883264591457654909342623946003136087072595903866472710259880"

I1 = "0.1728274509745820501957409341864228628951424759029710128963995069753912548121162237358"  # (pi/2)ln2 - G
I2 = "0.1547230020826227639412749989142455801455459760450593854332033215464981028944757449208"  # (3/4)(ln2)^2 - pi^2/48
I3 = "0.2721982612879502663125861122797017434173229625461607867907244066492885686470927483038"  # (pi/8)ln2

EQ10 = "0.1201132534795503561667756315816662429326382378986363967167160334059163455649586180500"  # (ln2)^2/4
EQ16 = "0.3084251375340424568385778437461297229785531064762747070754171680068764007006001638438"  # pi^2/32
EQ17 = "0.1857845358006592412147156451864903119697517245946752803425246531615929412410346364359"  # G/2 - (pi/8)ln2
LOGSINE = "-1.088793045151801065250344449118806973669291850184643147162897626597154274588370993215"  # -(pi/2)ln2
PI2_12 = "0.8224670334241132182362075833230125946094749506033992188677791146850037352016004369168"  # pi^2/12

A1 = "0.1931471805599453094172321214581765680755001343602552541206800094933936219696947156059"  # ln2 - 1/2
A2 = "0.1098138472266119760838987881248432347421668010269219207873466761600602886363613822725"  # ln2 - 7/12
SIGMA_PARTIAL_1 = "-0.03730583335825611524987040486848840365505281723429033274618412413027176029013975659408"  # -a_1^2
SIGMA_PARTIAL_2 = "-0.02524675231554644045842757579858498356813891128226476457566889047112115921717134148987"

F_PRIME_1 = "0.2543226074424696545101873363673891310639578516966064259372838661631363313829898237518"  # (3/2)ln2 - pi/4
H_PRIME_1 = "0.2194122865587378274535223925453937185057711413318244140916980716651286452933524459270"  # -ln2/4 + pi/8


def oracle(text, bits=512):
    with workprec(bits):
        return mpf(text)


def assert_close(value, frozen, tol):
    """|value - oracle(frozen)| <= tol, with a readable failure message."""
    diff = abs(value - oracle(frozen))
    assert diff <= tol, f"|{value} - {frozen}| = {diff} > {tol}"


def ulp(x, bits):
    """Unit in the last place of x at a mantissa of `bits` bits."""
    if x == 0:
        return ldexp(1, -bits)
    return ldexp(1, mag(x) - bits)


def euler_sum(coeff, m):
    """Euler transform of sum_k (-1)^k c_k: sum_j (forward difference)^j c_0 / 2^(j+1), at the ambient precision.

    Uses the first m coefficients; the difference table is O(m^2) operations.
    Convergence is roughly 2^-m for totally monotone coefficients, an
    independent (and slower) cross-check for CRZ.  The table cancels about a
    bit per column, so run it about m bits above the target.
    """
    row = [coeff(k) for k in range(m)]
    s = mpf(0)
    p2 = mpf(1) / 2
    for _ in range(m):
        s += row[0] * p2
        p2 /= 2
        row = [row[i] - row[i + 1] for i in range(len(row) - 1)]
    return s


def tail(n, p):
    """The harmonic a_n = ln2 - (1/(n+1) + ... + 1/(2n)) at precision p, as `sigma_series` forms it."""
    return round_to(series._harmonic_tails([n], p.guarded)[0], p)


def sigma_by_euler(terms, p):
    """sigma = sum_{n>=1} (-1)^n a_n^2 by the Euler transform of its first `terms` coefficients, rounded to p."""
    with workprec(p.guarded + terms):
        sq = [a * a for a in series._harmonic_tails(range(1, terms + 1), p.guarded)]
        return -round_to(euler_sum(lambda k: sq[k], terms), p)
