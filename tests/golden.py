"""Golden root data and CLI transcripts, and the script that records them.

The goldens pin what a rewrite of ``RootDatum`` construction, of the
argument parser, of the partition sums or of the Weyl group tree must keep
byte for byte: every public field of 41 built-in datums, the private
pairing rows built from them, the stdout, stderr and exit code of every
``--help`` and of the usage errors, ``atypical-coeff --closed`` on every
isotropic type of sl(4,3), sl(5,3) and sl(5,4), the counterexample search
streams of ``SEARCH_CASES`` (a count and a sha256 of every rendered hit, in
order), and the ``group`` tables of ``GROUP_CASES`` (a line count and a
sha256 of stdout).
argparse formats help differently across Python minor versions, so the
help and usage transcripts are kept per version.

Record them from a known-good tree with::

    PYTHONPATH=src python tests/golden.py

(once per installed Python minor version for the CLI transcripts).
"""

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from superweyl.cli import format_weight_expr, main
from superweyl.rootdata import build_b0, build_f4, build_g3, build_osp2, build_sl, vadd, vscale
from superweyl.unifac import iter_counterexamples

GOLDEN_DIR = Path(__file__).parent / "golden"
DATUM_GOLDEN = GOLDEN_DIR / "rootdata.json"
CLOSED_GOLDEN = GOLDEN_DIR / "atypical_closed.json"
SEARCH_GOLDEN = GOLDEN_DIR / "search_stream.json"
GROUP_GOLDEN = GOLDEN_DIR / "group_tables.json"


def cli_golden_path(version=sys.version_info):
    return GOLDEN_DIR / f"cli_py{version[0]}{version[1]}.json"


# -- root data ----------------------------------------------------------------


def golden_builders():
    """The 41 datums: sl(p,q) for p <= 6 and q <= 5, B(0,2..6), osp(2,2..12), G(3), F(4)."""
    out = {}
    for p in range(1, 7):
        for q in range(1, 6):
            if (p, q) not in ((1, 1), (2, 2)):
                out[f"sl({p},{q})"] = lambda p=p, q=q: build_sl(p, q)
    for n in range(2, 7):
        out[f"B(0,{n})"] = lambda n=n: build_b0(n)
    for n in range(1, 7):
        out[f"osp(2,{2 * n})"] = lambda n=n: build_osp2(n)
    out["G(3)"] = build_g3
    out["F(4)"] = build_f4
    return out


def _vec(v):
    return [str(x) for x in v]


def _row(row):
    return [[j, str(x)] for j, x in row]


def datum_dump(d):
    """Every public field of a datum, its pairing rows, and its maps on a few weights."""
    n = d.even_simple_count
    omegas = [d.fundamental_weight(i) for i in range(1, n + 1)]
    zero = vscale(0, d.rho)
    probes = [zero, d.tau, d.rho, vscale(-1, d.rho), vadd(omegas[0], vscale(2, d.tau))]
    probes += [vadd(w, d.tau) for w in omegas[1:]]
    return {
        "family": d.family,
        "label": d.label,
        "dim": d.dim,
        "basis_labels": list(d.basis_labels),
        "gram": [_vec(row) for row in d.gram],
        "roots": {
            name: [[_vec(r.vector), r.odd, r.isotropic, list(r.coords)] for r in getattr(d, name)]
            for name in ("simple_roots", "positive_even", "positive_odd")
        },
        "rho": _vec(d.rho),
        "tau": _vec(d.tau),
        "even_positions": list(d.even_positions),
        "generators": [
            [g.gid, _vec(g.vector), g.pi_index, g.label, list(g.coords)] for g in d.generators
        ],
        "generator_cartan": [list(row) for row in d.generator_cartan],
        "generator_blocks": [list(b) for b in d.generator_blocks],
        "components": [list(c) for c in d.components],
        "adjacency": {str(p): sorted(q) for p, q in sorted(d.adjacency().items())},
        "fundamental_weights": [_vec(w) for w in omegas],
        "expand_simple": [_vec(d.expand_simple(w)) for w in (d.rho, d.tau)],
        "probes": [[_vec(w), _vec(d.labels(w)), list(d.atypicality(w))] for w in probes],
        "coroot_rows": [_row(_over(row, d._coroot_den)) for row in d._coroot_rows],
        "isotropic_rows": [_isotropic_row(d, i, row) for i, row in d._isotropic_rows],
    }


def _over(row, den):
    """A dense integer row over its denominator, as the (column, entry) pairs
    of its non-zero rational entries."""
    return [(j, Fraction(x, den)) for j, x in enumerate(row) if x]


def _isotropic_row(d, i, row):
    """[index, rational form row, -(rho, gamma)] of the isotropic root gamma at index i."""
    rational = _over(row, d._form_den)
    return [i, _row(rational), str(-sum(x * d.rho[j] for j, x in rational))]


# -- the counterexample search stream ---------------------------------------------

# (p, q, signature bound, tau multiplier) of the recorded sl(p, q) searches
SEARCH_CASES = {"sl(3,2) bound 5 tau 1": (3, 2, 5, 1), "sl(4,2) bound 2 tau 3": (4, 2, 2, 3)}


def render_hit(hit):
    """One search hit as text: tau multiplier, weights, pairing and conclusion."""
    report = hit.report
    pairing = " ".join(
        f"{m.component}:{m.lhs_index}>{m.rhs_index}{list(m.signature)}" for m in report.pairing
    )
    return "|".join([
        str(hit.tau_multiplier),
        ";".join(",".join(_vec(w)) for w in hit.lhs),
        ";".join(",".join(_vec(w)) for w in hit.rhs),
        pairing,
        report.module_level_conclusion.value,
    ])


def search_stream(p, q, bound, tau):
    """{"hits": count, "sha256": digest of every rendered hit, in order} of one search."""
    digest = hashlib.sha256()
    count = 0
    for hit in iter_counterexamples(build_sl(p, q), bound, tau):
        digest.update(render_hit(hit).encode() + b"\n")
        count += 1
    return {"hits": count, "sha256": digest.hexdigest()}


# -- group tables ----------------------------------------------------------------

GROUP_CASES = {
    "sl(3,2)": ["--family", "sl", "--m", "3", "--n", "2"],
    "sl(4,3)": ["--family", "sl", "--m", "4", "--n", "3"],
    "B(0,3)": ["--family", "b0", "--n", "3"],
    "osp(2,6)": ["--family", "osp", "--n", "3"],
    "G(3)": ["--family", "G3"],
    "F(4)": ["--family", "F4"],
    "osp(2,4) component 1": ["--family", "osp", "--n", "2", "--component", "1"],
    "sl(3,2) component 2": ["--family", "sl", "--m", "3", "--n", "2", "--component", "2"],
}


def group_table(argv):
    """{"code", "lines", "sha256"} of the stdout of ``group`` with these options."""
    run = cli_transcript(["group", *argv])
    out = run["stdout"]
    return {
        "code": run["code"],
        "lines": out.count("\n"),
        "sha256": hashlib.sha256(out.encode()).hexdigest(),
    }


# -- CLI transcripts ------------------------------------------------------------

_SL32 = ["--family", "sl", "--m", "3", "--n", "2"]
_COMMANDS = ("datum", "group", "numerator", "kgraph", "verify", "search",
             "atypical-coeff", "atypical-verify", "selftest")

CLI_CASES = {
    "help": ["--help"],
    **{f"{cmd} --help": [cmd, "--help"] for cmd in _COMMANDS},
    "no command": [],
    "unknown command": ["frobnicate"],
    "help before command": ["--help", "numerator"],
    "datum without family": ["datum"],
    "datum bad size": ["datum", "--family", "sl", "--m", "1", "--n", "1"],
    "datum bad choice": ["datum", "--family", "E8"],
    "numerator trunc": ["numerator", *_SL32, "--weight", "tau", "--char", "--trunc", "-1"],
    "search bound": ["search", *_SL32, "--bound", "-1", "--tau-mult", "1"],
    "search limit": ["search", *_SL32, "--bound", "3", "--tau-mult", "1", "--limit", "0"],
    "coeff ztrunc": ["atypical-coeff", "--family", "G3", "--weight", "0", "--ztrunc", "-1"],
    "verify ztrunc": [
        "atypical-verify", *_SL32, "--type", "eps[1] - delta[1]",
        "--lhs", "4*eps[1] + 4*eps[2] + 4*eps[3] + (-6)*delta[1] + (-6)*delta[2]",
        "--rhs", "4*eps[1] + 4*eps[2] + 4*eps[3] + (-6)*delta[1] + (-6)*delta[2]",
        "--ztrunc", "-1",
    ],
    "factor and char": ["numerator", *_SL32, "--weight", "omega[1] + tau", "--factor", "--char"],
    "kgraph subset range": ["kgraph", "--family", "G3", "--subset", "1,9"],
    "kgraph subset empty": ["kgraph", *_SL32, "--subset", ""],
    "kgraph subset repeated": ["kgraph", *_SL32, "--subset", "1,1"],
    "bogus option": ["numerator", "--family", "F4", "--weight", "tau", "--bogus", "1"],
    "stray positional": ["numerator", "--family", "F4", "--weight", "tau", "extra"],
    "missing weight": ["numerator", "--family", "F4"],
    "ambiguous abbreviation": ["numerator", "--family", "F4", "--weight", "tau", "--f"],
    "bad integer": ["search", *_SL32, "--bound", "x", "--tau-mult", "1"],
    "abbreviated factor": ["numerator", "--family", "F4", "--weight", "tau", "--fac"],
    "abbreviated options": ["numerator", "--fam", "sl", "--m", "2", "--n", "1",
                            "--wei", "omega[1] + 3*tau", "--tr", "2", "--ch"],
}


def cli_transcript(argv):
    """stdout, stderr and exit code of one in-process ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def closed_coeff_cases():
    """``atypical-coeff --closed`` on each isotropic type of sl(4,3), sl(5,3) and sl(5,4).

    Each weight is the smallest singly atypical one of its type
    (``test_atypical.atypical_weight``), written in the weight grammar.
    """
    from test_atypical import atypical_weight

    cases = {}
    for m, n in ((4, 3), (5, 3), (5, 4)):
        datum = build_sl(m, n)
        for idx, root in enumerate(datum.positive_odd):
            if root.isotropic:
                weight = format_weight_expr(datum, atypical_weight(datum, idx))
                cases[f"sl({m},{n}) type {idx}"] = [
                    "atypical-coeff", "--family", "sl", "--m", str(m), "--n", str(n),
                    "--weight", weight, "--closed",
                ]
    return cases


def _write(path, data):
    GOLDEN_DIR.mkdir(exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in data.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    import os

    os.environ["COLUMNS"] = "80"
    _write(DATUM_GOLDEN, {name: datum_dump(build()) for name, build in golden_builders().items()})
    _write(cli_golden_path(), {name: cli_transcript(argv) for name, argv in CLI_CASES.items()})
    _write(CLOSED_GOLDEN, {name: cli_transcript(argv) for name, argv in closed_coeff_cases().items()})
    _write(SEARCH_GOLDEN, {name: search_stream(*case) for name, case in SEARCH_CASES.items()})
    _write(GROUP_GOLDEN, {name: group_table(argv) for name, argv in GROUP_CASES.items()})
