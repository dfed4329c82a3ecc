"""Byte-for-byte stdout of twenty-three CLI commands, pinned in tests/golden/.

The fixtures were written by the commands below; any change to an exact
coefficient, a key or the JSON layout, or to a bit of a Bessel heat value or
tail bound, shows up here as a failed comparison.
To regenerate one, run its command with `python -m bzk` in tests/golden/
and redirect stdout.
"""

from pathlib import Path

import pytest

from bzk.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("verify_petersen.json", 0,
     ["verify", "--family", "petersen", "--order", "10"]),
    ("verify_star4.json", 1,
     ["verify", "--family", "star", "--n", "4", "--order", "10"]),
    ("zeta_tree_ball_all.json", 0,
     ["zeta", "--family", "tree_ball", "--q-plus-1", "3", "--radius", "2",
      "--root", "0", "--order", "10", "--route", "all"]),
    ("zeta_path5_rhs.json", 0,
     ["zeta", "--family", "path", "--n", "5", "--root", "1", "--target", "3",
      "--order", "10", "--route", "rhs"]),
    # a leaf of star(4): the Euler series where it differs from the log route
    ("euler_star4_leaf.json", 1,
     ["euler", "--family", "star", "--n", "4", "--root", "1", "--order", "10",
      "--compare"]),
    # the closed-walk tally at the length cap, on a graph with leaves and
    # vertices of two degrees
    ("verify_tree_ball32_o12.json", 1,
     ["verify", "--family", "tree_ball", "--q-plus-1", "3", "--radius", "2",
      "--order", "12"]),
    # the formula route off the diagonal on a graph that is not regular:
    # vertices 5 and 17 are 5 apart, with degrees 3 and 1, and the commutator
    # integral changes the series from u^7 on
    ("zeta_tree_ball33_rhs_o20.json", 0,
     ["zeta", "--family", "tree_ball", "--q-plus-1", "3", "--radius", "3",
      "--root", "5", "--target", "17", "--order", "20", "--route", "rhs"]),
    # the formula route off the diagonal at order 32 on a graph that is not
    # regular: the centre of tree_ball(3,4) and a vertex at distance 2, with
    # the matrix log, commutator integral and length-2 term summed together
    ("zeta_tree_ball34_offdiag_rhs_o32.json", 0,
     ["zeta", "--family", "tree_ball", "--q-plus-1", "3", "--radius", "4",
      "--root", "0", "--target", "5", "--order", "32", "--route", "rhs"]),
    # the rooted walk data at order 16: a leaf (vertex 22, one neighbour)
    # and the centre (three neighbours) of tree_ball(3,4), and a root of
    # hypercube(5) with five neighbours
    ("zeta_tree_ball34_leaf_log_o16.json", 0,
     ["zeta", "--family", "tree_ball", "--q-plus-1", "3", "--radius", "4",
      "--root", "22", "--order", "16", "--route", "log"]),
    ("zeta_tree_ball34_rhs_o16.json", 0,
     ["zeta", "--family", "tree_ball", "--q-plus-1", "3", "--radius", "4",
      "--root", "0", "--order", "16", "--route", "rhs"]),
    ("zeta_hypercube5_log_o16.json", 0,
     ["zeta", "--family", "hypercube", "--d", "5", "--root", "3",
      "--order", "16", "--route", "log"]),
    # the log route off the diagonal: the walk-matrix entries C_m(0, 3) of
    # two Petersen vertices at distance 2
    ("zeta_petersen_offdiag_log_o16.json", 0,
     ["zeta", "--family", "petersen", "--root", "0", "--target", "3",
      "--order", "16", "--route", "log"]),
    # star(6) at order 32: the largest degree in reach (6) and the longest
    # series, so the widest coefficients; off the diagonal with the
    # commutator term, and at the centre by the log route
    ("zeta_star6_offdiag_rhs_o32.json", 0,
     ["zeta", "--family", "star", "--n", "6", "--root", "1", "--target", "2",
      "--order", "32", "--route", "rhs"]),
    # the log route off the diagonal on a graph that is not regular: two
    # leaves of star(6), whose entries run cbc_terms without the defect
    ("zeta_star6_offdiag_log_o32.json", 0,
     ["zeta", "--family", "star", "--n", "6", "--root", "1", "--target", "2",
      "--order", "32", "--route", "log"]),
    ("zeta_star6_log_o32.json", 0,
     ["zeta", "--family", "star", "--n", "6", "--root", "0",
      "--order", "32", "--route", "log"]),
    # Petersen at the order cap: the longest exp in reach, packed at the
    # widest width the exact routes use (391 bits a coefficient)
    ("zeta_petersen_log_o64.json", 0,
     ["zeta", "--family", "petersen", "--root", "0",
      "--order", "64", "--route", "log"]),
    # the formula route at the order cap: the longest formula exponent in
    # reach, where the scale of its exp matters most
    ("zeta_petersen_rhs_o64.json", 0,
     ["zeta", "--family", "petersen", "--root", "0",
      "--order", "64", "--route", "rhs"]),
    # the formula route off the diagonal on a regular graph, where the
    # f-power digits of the target entry carry the whole matrix log
    ("zeta_petersen_offdiag_rhs_o32.json", 0,
     ["zeta", "--family", "petersen", "--root", "0", "--target", "3",
      "--order", "32", "--route", "rhs"]),
    # degree 2 at the order cap: the prefactor's d - 2 is zero and the
    # weight d - 1 + t is 1 + t
    ("zeta_cycle9_log_o64.json", 0,
     ["zeta", "--family", "cycle", "--n", "9", "--root", "0",
      "--order", "64", "--route", "log"]),
    # a regular graph with a nonzero Laplacian defect: the Frucht graph has
    # no automorphism but the identity, so R_m at root 0 is not zero, where
    # on every vertex-transitive golden graph it is
    ("zeta_frucht_log_o32.json", 0,
     ["zeta", "--graph", "frucht.edges", "--root", "0",
      "--order", "32", "--route", "log"]),
    ("zeta_frucht_rhs_o32.json", 0,
     ["zeta", "--graph", "frucht.edges", "--root", "0",
      "--order", "32", "--route", "rhs"]),
    # the Bessel heat route alone (spectral values come from LAPACK): off
    # the diagonal at t = 0.5, and on the diagonal of hypercube(4) at
    # t = -0.5, every value and tail bound to the last bit
    ("heat_petersen_offdiag_bessel.csv", 0,
     ["heat", "--family", "petersen", "--root", "0", "--target", "3",
      "--t", "0.5", "--tau-grid", "0.5:8:40", "--route", "bessel"]),
    ("heat_hypercube4_bessel.csv", 0,
     ["heat", "--family", "hypercube", "--d", "4", "--root", "0",
      "--t", "-0.5", "--tau-grid", "0.1:6:30", "--route", "bessel"]),
]


@pytest.mark.parametrize("name,exit_code,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(capsys, monkeypatch, name, exit_code, argv):
    # a --graph file is read from tests/golden/, and its path is the label
    monkeypatch.chdir(GOLDEN)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == exit_code
    assert out == (GOLDEN / name).read_text()
