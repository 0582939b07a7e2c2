"""The second law row by row: two entropy identities on every golden table.

The cold stroke resets the populations to the Gibbs state p_cold of the
cold bath at Bi, so ln p_cold = -beta_c E(Bi) - ln Z_c. From that alone,
for any stroke 3,

    beta_c Qc = -[S(p_post) - S(p_cold)] - D(p_post || p_cold).

A hot bath leaves p_post in its Gibbs state at beta_h and Bf, so a
two-bath row also has

    beta_h Qh + beta_c Qc = -[D(p_post || p_cold) + D(p_cold || p_post)].

S is the Shannon entropy of a population vector and D the relative
entropy, in nats. This module reads the golden CSV and .meta files as
text and imports nothing from ottosim: it checks the CSV's energy
bookkeeping against its own populations. A zero population takes the
limits 0 ln 0 = 0 and 0 ln(0/q) = 0; D is infinite where p_cold is 0 and
p_post is not. tests/test_entropy_property.py checks the same identities
on the cycle kernel over random batches.
"""

import csv
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
TABLES = sorted(path.name for path in GOLDEN.glob("*.csv"))

U = 2.0 ** -53  # unit roundoff of float64

# A row meets an identity when its residual, the fsum of the terms below,
# is at most LEDGER_ULPS U times the sum of the terms' magnitudes. The
# float evaluation takes at most 4 U of that (each x ln y within 3 U, as
# math.log is within an ulp and the product rounds once; fsum rounds the
# sum once; test_float_evaluation_error checks it against mpmath). The
# rest is for the cells, which are rounded results themselves: Qc is a
# cancelling sum of per-level fluxes. The golden rows use at most 15 U
# (xxz-xx-two-bath.csv, cold identity).
LEDGER_ULPS = 64

# Every zero population in the golden tables, by (table, row, label), with
# the limit its terms take.
ZERO_POPULATIONS = {
    ("qutrit-two-bath-no-heat.csv", 8, "+B"): "0 ln 0 = 0",
    ("qutrit-two-bath-no-heat.csv", 8, "-B"): "0 ln 0 = 0",
}

# Rows whose cells cannot resolve the cold identity against the size of
# its terms. At J = 100 to 700 every population but p_-J is below 1e-41,
# and p_-J prints as 1 in both states. So each state's cells sum to 1 plus
# the other levels' mass, dp_-J is 0, and Qh and Qc miss the -J level's
# idle passthrough heat: the exact Qh at J = 100 is +1.23e-40, where the
# CSV holds -5.14e-42. The residual, ln Z_c (about J) times the cells'
# normalization defect, is about a fifth of the terms. The hot identity
# holds on these rows, as the -J level's terms cancel there.
UNRESOLVED = {("qutrit-two-bath-no-heat.csv", row) for row in range(1, 8)}


def read_table(name):
    """(meta, labels, rows) of a golden table: each .meta value as text,
    the level labels in header order, and each CSV row as a dict of
    floats by column, None for a blank cell."""
    meta = dict(line.split("=", 1) for line in
                (GOLDEN / f"{name}.meta").read_text().splitlines())
    with open(GOLDEN / name, newline="") as f:
        rows = [{column: float(cell) if cell else None
                 for column, cell in row.items()}
                for row in csv.DictReader(f)]
    labels = [column[len("p_cold_"):] for column in rows[0]
              if column.startswith("p_cold_")]
    return meta, labels, rows


def states(row, labels):
    """(p_cold, p_post) of a row, in label order."""
    return ([row[f"p_cold_{label}"] for label in labels],
            [row[f"p_post_{label}"] for label in labels])


def xlny(x, y):
    """x ln y, with 0 ln y = 0 (so 0 ln 0 = 0), and -inf for y = 0 < x."""
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return -math.inf
    return x * math.log(y)


def entropy_terms(p):
    """The terms whose sum is S(p)."""
    return [-xlny(x, x) for x in p]


def divergence_terms(p, q):
    """The terms whose sum is D(p || q)."""
    return [t for x, y in zip(p, q) for t in (xlny(x, x), -xlny(x, y))]


def cold_terms(beta_c, Qc, p_cold, p_post):
    """The terms of beta_c Qc + [S(p_post) - S(p_cold)] + D(p_post || p_cold),
    which the cold identity makes 0."""
    return [beta_c * Qc, *entropy_terms(p_post),
            *(-t for t in entropy_terms(p_cold)),
            *divergence_terms(p_post, p_cold)]


def hot_terms(beta_h, Qh, beta_c, Qc, p_cold, p_post):
    """The terms of beta_h Qh + beta_c Qc + D(p_post || p_cold)
    + D(p_cold || p_post), which the two-bath identity makes 0."""
    return [beta_h * Qh, beta_c * Qc, *divergence_terms(p_post, p_cold),
            *divergence_terms(p_cold, p_post)]


def residual(terms):
    """(|fsum of the terms|, fsum of their magnitudes)."""
    return abs(math.fsum(terms)), math.fsum(map(abs, terms))


def ledger(name):
    """(row index, cold terms, hot terms or None) of each row of a table."""
    meta, labels, rows = read_table(name)
    beta_c = float(meta["beta_c"])
    beta_h = float(meta["beta_h"]) if "beta_h" in meta else None
    for r, row in enumerate(rows):
        p_cold, p_post = states(row, labels)
        hot = None if beta_h is None else hot_terms(
            beta_h, row["Qh"], beta_c, row["Qc"], p_cold, p_post)
        yield r, cold_terms(beta_c, row["Qc"], p_cold, p_post), hot


def test_every_golden_table_is_read():
    assert len(TABLES) == 11
    for name in TABLES:
        meta, labels, rows = read_table(name)
        assert rows and len(labels) in (3, 4)
        assert len(rows) == math.prod(int(meta[key]) for key in meta
                                      if key.endswith("_steps"))


@pytest.mark.parametrize("name", TABLES)
def test_cold_identity_on_every_row(name):
    for r, terms, _ in ledger(name):
        res, scale = residual(terms)
        met = res <= LEDGER_ULPS * U * scale
        assert met != ((name, r) in UNRESOLVED), (name, r, res, scale)


@pytest.mark.parametrize("name", [name for name in TABLES
                                  if "beta_h" in read_table(name)[0]])
def test_two_bath_identity_on_every_row(name):
    for r, _, terms in ledger(name):
        res, scale = residual(terms)
        assert res <= LEDGER_ULPS * U * scale, (name, r, res, scale)


def test_unresolved_rows_print_the_idle_level_as_certain():
    rows = read_table("qutrit-two-bath-no-heat.csv")[2]
    for _, r in UNRESOLVED:
        row = rows[r]
        assert row["p_cold_-J"] == row["p_post_-J"] == 1.0
        assert row["dp_-J"] == 0.0 and row["q_h_-J"] == 0.0
        assert all(0 < row[f"p_cold_{label}"] < 1e-41
                   for label in ("+B", "-B"))


def _limit(p_cold, p_post):
    """The limit the terms of a level with a zero population take."""
    if p_cold == p_post == 0.0:
        return "0 ln 0 = 0"
    if p_cold == 0.0:
        return "D(p_post || p_cold) = inf"
    return "0 ln 0 = 0; D(p_cold || p_post) = inf"


def test_zero_populations_are_listed_with_their_limits():
    found = {}
    for name in TABLES:
        _, labels, rows = read_table(name)
        for r, row in enumerate(rows):
            for label, c, p in zip(labels, *states(row, labels)):
                if c == 0.0 or p == 0.0:
                    found[name, r, label] = _limit(c, p)
    assert found == ZERO_POPULATIONS


def test_float_evaluation_error():
    """Each row's float residual is within 4 U of the terms' magnitudes of
    the residual of the same cells evaluated exactly (mpmath, 50 digits)."""
    mpmath = pytest.importorskip("mpmath")

    def exact(x, y):
        return 0 if x == 0.0 else mpmath.mpf(x) * mpmath.log(y)

    with mpmath.workdps(50):
        for name in TABLES:
            meta, labels, rows = read_table(name)
            beta_c = float(meta["beta_c"])
            for r, row in enumerate(rows):
                p_cold, p_post = states(row, labels)
                exact_sum = mpmath.fsum(
                    [mpmath.mpf(beta_c) * row["Qc"],
                     *(-exact(x, x) for x in p_post),
                     *(exact(x, x) for x in p_cold),
                     *(exact(x, x) - exact(x, y)
                       for x, y in zip(p_post, p_cold))])
                terms = cold_terms(beta_c, row["Qc"], p_cold, p_post)
                error = abs(math.fsum(terms) - exact_sum)
                assert error <= 4 * U * math.fsum(map(abs, terms)), (name, r)
