"""Regenerate bench/refs.json, the benchmark's reference table, from mpmath
and sympy alone (``refmath.py``; nothing here imports mahler).

    python3 bench/make_refs.py            # write bench/refs.json
    python3 bench/make_refs.py --check    # recompute and compare with it

Before computing the table the method checks itself against closed forms:
m(1+x+y) = (3 sqrt 3 / (4 pi)) L(chi_-3, 2) and m(P_3) = L'(chi_-15, -1)/6,
both through the generic Jensen reference, and dp/dk as a theta-integral
against the Carlson period.  Stored values carry 25 significant digits;
``--check`` accepts a recomputed value within PRECISION of the stored one.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import mpmath as mp

import corpus
import refmath as R

OUT = Path(__file__).with_name("refs.json")
PRECISION = 1e-15       # stated precision of every stored reference
DIGITS = 25


def _s(x):
    return mp.nstr(x, DIGITS, strip_zeros=False)


def _expr(text):
    """Library grammar (^) to sympy grammar (**)."""
    return text.replace("^", "**")


def self_check():
    """The reference method against closed forms; raises on disagreement."""
    checks = {
        "m(1+x+y) vs (3 sqrt3/4pi) L(chi_-3,2)":
            R.jensen_reference("1+x+y") - R.smyth_1xy(),
        "m(P_3) vs L'(chi_-15,-1)/6":
            R.jensen_reference(_expr(corpus.FAMILY_TEMPLATES["P"].replace("k", "3")))
            - R.dirichlet_dl_minus1(-15) / 6,
        "p_theta(3) vs L'(chi_-15,-1)/6":
            R.p_theta(3) - R.dirichlet_dl_minus1(-15) / 6,
        "dp/dk(5) theta-integral vs Carlson period":
            R.p_theta(5, derivative=True) - R.p_derivative_period(5),
        "m(R_3) theta-integral vs generic Jensen":
            R.r_theta(3) - R.jensen_reference(_expr(corpus.FAMILY_TEMPLATES["R"].replace("k", "3"))),
    }
    for name, diff in checks.items():
        print(f"  self-check {name}: {mp.nstr(abs(diff), 3)}")
        if abs(diff) > PRECISION:
            raise SystemExit(f"self-check failed: {name}")
    return {name: float(abs(d)) for name, d in checks.items()}


def narrow_arc_reference():
    """m(y - a f^N), f = (1+x^3)/2: (1/2pi) int log+ (a |cos(3t/2)|^N) dt over
    [0, 2pi), which is three arcs around t = 0, 2pi/3, 4pi/3 of half-width
    t* = (2/3) acos(a^(-1/N))."""
    with mp.workdps(R.DPS):
        a, n = mp.mpf(corpus.NARROW_ARC_A), corpus.NARROW_ARC_N
        tstar = 2 * mp.acos(a ** (mp.mpf(-1) / n)) / 3
        arc = mp.quad(lambda t: mp.log(a) + n * mp.log(mp.cos(3 * t / 2)), [0, tstar])
        return 6 * arc / (2 * mp.pi)


def family_row(k):
    row = {"k": repr(k)}
    row["p"] = _s(R.p_theta(k))
    row["r"] = _s(R.r_theta(k))
    row["dp"] = _s(R.p_derivative_period(k)) if k != 3.0 else "boundary"
    row["dq"] = _s(R.q_theta(k + 2, derivative=True)) if k != 3.0 else "boundary"
    row["dr"] = (_s(R.r_theta(k, derivative=True)) if k != corpus.R_THRESHOLD
                 else "boundary")
    row["period"] = _s(R.pq_period(k)) if k != 3.0 else "boundary"
    return row


def build_table(log):
    table = {"precision": PRECISION}
    t0 = time.perf_counter()

    paper = {}
    for k in corpus.JENSEN_P_K:
        paper[f"P_{k:g}"] = _s(R.p_theta(k))
    for k in corpus.JENSEN_R_K:
        paper[f"R_{k:g}"] = _s(R.r_theta(k))
    for s in corpus.JENSEN_Q_S:
        paper[f"Q_{s:g}"] = _s(R.q_theta(s))
    paper["1+x+y"] = _s(R.smyth_1xy())
    paper["A"] = _s(R.jensen_reference(_expr(corpus.A_POLY)))
    paper["narrow-arc"] = _s(narrow_arc_reference())
    table["jensen_paper"] = paper
    log(f"paper polynomials: {time.perf_counter() - t0:.0f} s")

    generated, excluded = {}, []
    for d, exprs in corpus.generate_candidates().items():
        kept = []
        for e in exprs:
            rule = R.excluded_by_rule(R.to_poly(_expr(e)))
            if rule:
                excluded.append({"expr": e, "rule": rule})
            else:
                kept.append({"expr": e, "m": _s(R.jensen_reference(_expr(e)))})
        generated[str(d)] = kept
        log(f"fiber degree {d}: {len(kept)} kept, {len(exprs) - len(kept)} excluded,"
            f" {time.perf_counter() - t0:.0f} s")
    table["generated"] = generated
    table["excluded"] = excluded

    table["family"] = [family_row(k) for k in sorted(corpus.family_grid()
                                                     + list(corpus.EXACT_BOUNDARY_KS))]
    log(f"family grid ({len(table['family'])} k): {time.perf_counter() - t0:.0f} s")

    lvalue = {}
    for d in (-3, -7, -15):
        lvalue[f"chi:{d}"] = {"chi": d, "L2": _s(R.dirichlet_l2(d)),
                              "dL_minus1": _s(R.dirichlet_dl_minus1(d))}
    curves = {}
    for label, (a, N) in corpus.CURVES.items():
        dl0, eps, resid = R.curve_l_deriv_at_0(a, N)
        entry = {"root_number": eps, "dL0": _s(dl0), "Lambda2": _s(eps * dl0)}
        if label == "224":
            entry["minus3_m_R4"] = _s(-3 * R.r_theta(4))
        lvalue[f"curve:{label}"] = entry
        curves[label] = {"ap": {str(p): R.ap_naive(a, p) for p in range(3, 100)
                                if all(p % q for q in range(2, p)) and N % p},
                         "fe_residual": float(resid)}
    table["lvalue"] = lvalue
    table["curves"] = curves
    log(f"L-values: {time.perf_counter() - t0:.0f} s")

    table["torus"] = {"1+x+y": paper["1+x+y"], "A": paper["A"],
                      "P_3": _s(R.dirichlet_dl_minus1(-15) / 6),
                      "R_3": paper["R_3"]}
    return table


def _numbers(obj, prefix=""):
    """Flatten every numeric string of the table to (path, value)."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _numbers(v, f"{prefix}/{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _numbers(v, f"{prefix}[{i}]")
    elif isinstance(obj, str):
        try:
            yield prefix, mp.mpf(obj)
        except (ValueError, TypeError):
            return


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="recompute and compare with the stored table")
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    print("self-check of the reference method:")
    selfcheck = self_check()
    table = build_table(lambda msg: print("  " + msg, flush=True))
    table["self_check"] = selfcheck
    elapsed = time.perf_counter() - t0
    if args.check:
        with open(OUT) as fh:
            stored = json.load(fh)
        old = dict(_numbers({k: v for k, v in stored.items() if k != "self_check"}))
        new = dict(_numbers({k: v for k, v in table.items() if k != "self_check"}))
        if old.keys() != new.keys():
            print("the stored table has different entries", file=sys.stderr)
            return 1
        worst = max(abs(old[key] - new[key]) for key in old)
        print(f"{len(old)} references recomputed in {elapsed:.0f} s; "
              f"largest deviation {mp.nstr(worst, 3)} (precision {PRECISION})")
        return 0 if worst <= PRECISION else 1
    with open(OUT, "w") as fh:
        json.dump(table, fh, indent=1)
    print(f"wrote {OUT.name} in {elapsed:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
