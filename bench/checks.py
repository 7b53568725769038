"""Result checks against the benchmark's own reference data.

Each check returns a list of problems; an empty list means the op passed.
Library ops return outcome dicts directly; CLI ops return captured stdout,
which parse_cli turns into the same fields.
"""

import math

import numpy as np

from workloads import forward

SAFE, UNSAFE, UNCERTAIN = "Safe", "Unsafe", "Uncertain"
VERDICTS = (SAFE, UNSAFE, UNCERTAIN)
CLI_EXIT = {SAFE: 0, UNSAFE: 4, UNCERTAIN: 5}
# Relative slack for values the CLI prints rounded: %.6f (bisim) and %.6g
# (report table).
CLI_PRINT_TOL = 1e-5
FLOAT_TOL = 1e-9


def parse_cli(raw):
    """Turn captured CLI stdout into outcome fields."""
    out = {"exit": raw["exit"]}
    sub = raw["argv"][0]
    lines = raw["stdout"].splitlines()
    if sub == "bisim":
        out["exact_inf"] = False
        for line in lines:
            key, _, val = line.partition("=")
            if key == "epsilon_upper":
                out["epsilon"] = float(val)
            elif key == "epsilon_lower_mc":
                out["mc"] = float(val)
    elif sub == "verify":
        for line in lines:
            key, _, val = line.partition("=")
            if key == "verdict":
                out["verdict"] = val
            elif key == "witness":
                out["witness"] = np.array([float(v) for v in val.split(",")])
        out.setdefault("witness", None)
    elif sub == "report":
        # ID epsilon T_L T_S V_L V_S, one row after a header and a rule.
        fields = lines[-1].split() if len(lines) >= 3 else []
        if len(fields) == 6:
            out["epsilon"] = float(fields[1])
            out["verdict"] = fields[5]
        out["lifted"] = True
    return out


def _in_unsafe(polytopes, Y, tol=0.0):
    hit = np.zeros(len(Y), dtype=bool)
    for A, d in polytopes:
        hit |= np.all(Y @ A.T <= d + tol, axis=1)
    return hit


def check(op, out, cli):
    p = op.pair
    problems = []
    if cli:
        want = CLI_EXIT.get(out.get("verdict")) if op.kind == "verify" else 0
        if out["exit"] != want:
            problems.append(f"exit code {out['exit']} does not match verdict "
                            f"{out.get('verdict')!r}")
    tol = CLI_PRINT_TOL if cli else FLOAT_TOL

    if "epsilon" in out or op.kind == "bisim":
        eps = out.get("epsilon")
        if eps is None or not math.isfinite(eps):
            problems.append(f"epsilon_upper is {eps}")
        else:
            if eps < p.lb * (1 - tol) - tol:
                problems.append(f"epsilon_upper {eps!r} below sampled lower bound {p.lb!r}")
            if out.get("exact_inf") and out["epsilon_lower"] != eps:
                problems.append(f"exact max-norm epsilon_lower {out['epsilon_lower']!r} "
                                f"!= epsilon_upper {eps!r}")
            if op.kind == "bisim":
                p.eps_seen = eps

    if op.kind == "mc":
        mc = out.get("mc")
        if mc is None or not math.isfinite(mc) or mc < 0:
            problems.append(f"Monte-Carlo bound is {mc}")
        else:
            upper = out.get("epsilon", p.eps_seen)
            if upper is not None and mc > upper * (1 + tol) + tol:
                problems.append(f"Monte-Carlo bound {mc!r} above epsilon_upper {upper!r}")

    if op.kind in ("verify", "compressed"):
        verdict = out.get("verdict")
        if verdict not in VERDICTS:
            problems.append(f"no verdict ({verdict!r})")
        elif out.get("lifted") and verdict == UNSAFE:
            problems.append("compressed path reported Unsafe")
        elif verdict == UNSAFE:
            w = out.get("witness")
            if w is None or w.shape != p.lower.shape:
                problems.append("Unsafe without a witness")
            elif np.any(w < p.lower) or np.any(w > p.upper):
                problems.append(f"witness {w.tolist()} outside the box")
            elif not _in_unsafe(p.polytopes, forward(p.big, w[None, :]), FLOAT_TOL)[0]:
                problems.append(f"witness {w.tolist()} maps outside every unsafe polytope")
        elif verdict == SAFE and _in_unsafe(p.polytopes, p.y_big).any():
            problems.append("Safe verdict, but a reference sample of the large net is unsafe")
    return problems
