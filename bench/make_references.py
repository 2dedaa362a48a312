"""Generate bench/references.json: 50-digit reference scales and risks.

Every asymptotic instance the benchmark's commands evaluate is solved here
in mpmath, independently of the package: Gaussian moments from their closed
forms, the positive scale system by Newton's method in log b with
lambda-continuation by factors of 10, and the risk from L = V^T H^{-1} V.
Each K=2 risk is cross-checked against the closed form for the same four L
entries.  Run from the repository root (takes about a minute):

    python3 bench/make_references.py

When ``src/`` is importable it also runs each command through the CLI and
records the package's worst relative error, which justifies the check
tolerance ``RISK_RTOL`` in workloads.py.
"""

from __future__ import annotations

import io
import json
import os
import sys

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import RISK_RTOL, WORKLOAD_NAMES, build_workload, instances  # noqa: E402

mp.mp.dps = 50
RESIDUAL_TOL = mp.mpf(10) ** -40
CLOSED_FORM_RTOL = mp.mpf(10) ** -30
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def moments(act: dict) -> tuple:
    """(mu0, mu1, mu2^2) of x -> base(a x) for G ~ N(0, 1), in closed form."""
    a = mp.mpf(act["in_scale"])
    if act.get("out_scale", 1.0) != 1.0 or act.get("shift", 0.0) != 0.0 or a <= 0:
        raise ValueError(f"no closed form coded for {act}")
    phi0 = 1 / mp.sqrt(2 * mp.pi)
    if act["kind"] == "relu":
        mu0, mu1, second = a * phi0, a / 2, a * a / 2
    elif act["kind"] == "elu":
        g1 = mp.exp(a * a / 2) * mp.ncdf(-a)  # E[exp(aG); G < 0]
        mu0 = a * phi0 + g1 - mp.mpf(1) / 2
        mu1 = a / 2 + a * g1 - mp.exp(a * a / 2) * mp.npdf(a) + phi0
        second = a * a / 2 + mp.exp(2 * a * a) * mp.ncdf(-2 * a) - 2 * g1 + mp.mpf(1) / 2
    else:
        raise ValueError(f"no closed form coded for {act}")
    return mu0, mu1, second - mu0 ** 2 - mu1 ** 2


def residual(psi, m1, m2, sqrt_lam, b):
    k = len(psi) - 1
    bn = b[k]
    t = bn * mp.fsum(m1[c] * b[c] for c in range(k))
    res = [sqrt_lam * b[c] + m2[c] * b[c] * bn + m1[c] * b[c] * bn / (1 + t) - psi[c]
           for c in range(k)]
    res.append(sqrt_lam * bn + mp.fsum(m2[c] * b[c] for c in range(k)) * bn + t / (1 + t) - psi[k])
    return [r / p for r, p in zip(res, psi)]


def newton(psi, m1, m2, lam, b):
    """Root of the scale system at ``lam`` from ``b``, in u = log b."""
    sqrt_lam = mp.sqrt(lam)
    n = len(b)

    def f(u):
        return residual(psi, m1, m2, sqrt_lam, [mp.exp(x) for x in u])

    u = [mp.log(x) for x in b]
    fu = f(u)
    norm = max(abs(x) for x in fu)
    h = mp.mpf(10) ** -25
    for _ in range(100):
        if norm < RESIDUAL_TOL:
            return [mp.exp(x) for x in u]
        jac = mp.matrix(n, n)
        for j in range(n):
            shifted = list(u)
            shifted[j] += h
            fj = f(shifted)
            for i in range(n):
                jac[i, j] = (fj[i] - fu[i]) / h
        step = mp.lu_solve(jac, mp.matrix(fu))
        t = mp.mpf(1)
        while True:
            trial = [u[i] - t * step[i] for i in range(n)]
            ft = f(trial)
            nt = max(abs(x) for x in ft)
            if nt < norm or t < 1e-6:
                break
            t /= 2
        u, fu, norm = trial, ft, nt
    raise RuntimeError(f"Newton stalled at residual {mp.nstr(norm, 5)}, lambda={lam}")


def solve(psi, m1, m2, lam):
    b = [p / 2 for p in psi]
    stage = mp.mpf(1)
    while stage > lam * 10:
        b = newton(psi, m1, m2, stage, b)
        stage /= 10
    return newton(psi, m1, m2, lam, b)


def matrix_risk(psi, psi_n, m1, m2, b, F1, tau):
    k = len(psi)
    bc, bn = b[:k], b[k]
    mN = mp.fsum(m1[c] * bc[c] for c in range(k))
    md2 = (bn * mN + 1) ** 2
    bn2 = bn * bn
    H = mp.matrix(k + 1, k + 1)
    V = mp.matrix(k + 1, 4)
    for i in range(k):
        for j in range(k):
            H[i, j] = bn2 * m1[i] * m1[j] / md2
        H[i, i] -= psi[i] / bc[i] ** 2
        H[i, k] = H[k, i] = -m1[i] / md2 - m2[i]
        V[i, 0], V[i, 2], V[i, 3] = m2[i], m1[i] / md2, -bn2 * m1[i] / md2
    H[k, k] = mN * mN / md2 - psi_n / bn2
    V[k, 1], V[k, 2], V[k, 3] = 1, -mN * mN / md2, 1 / md2
    L = V.T * (mp.inverse(H) * V)
    return F1 ** 2 * (1 / md2 + L[2, 3] + L[0, 3]) + tau ** 2 * (L[1, 2] + L[0, 1])


def closed_form_risk_k2(psi, psi_n, m1, m2, b, F1, tau):
    """K=2 closed forms of S and L[0,3], L[1,2], L[0,1], L[2,3] (nu_j = i b_j)."""
    b1, b2, b3 = b
    p1, p2, p3 = psi[0], psi[1], psi_n
    m11, m21 = m1
    m12, m22 = m2
    n1s, n2s, n3s, n3q = -b1 * b1, -b2 * b2, -b3 * b3, b3 ** 4
    mN = m11 * b1 + m21 * b2
    md2 = (b3 * mN + 1) ** 2
    md4 = md2 * md2
    mNs = -mN * mN
    cross = m12 * m21 - m11 * m22
    s = (n3q * (n2s * mNs * m21 ** 2 * p1 + n1s * mNs * m11 ** 2 * p2 + n1s * n2s * md2 * cross ** 2)
         - n3s * n2s * p1 * (2 * md2 * m21 * m22 + md4 * m22 ** 2 + m21 ** 2 * (1 + md2 * p3))
         - n3s * n1s * p2 * (2 * md2 * m11 * m12 + md4 * m12 ** 2 + m11 ** 2 * (1 + md2 * p3))
         - n3s * p1 * p2 * md2 * mNs
         + md4 * p1 * p2 * p3)
    l14 = (n3s / s) * (-n3s * mNs * (n2s * m21 * m22 * p1 + n1s * m11 * m12 * p2)
                       + n1s * m12 * p2 * (md2 * m12 + m11 * (1 + md2 * p3))
                       + n2s * m22 * p1 * (md2 * m22 + m21 * (1 + md2 * p3)))
    l23 = (n3s / s) * (n2s * m21 * (m21 + md2 * m22) * p1 + n1s * m11 * (m11 + md2 * m12) * p2
                       - n3s * mNs * (n2s * m21 ** 2 * p1 + n1s * m11 ** 2 * p2)
                       + md2 * mNs * p1 * p2)
    l12 = (n3s / s) * md2 * (n2s * m22 * (m21 + md2 * m22) * p1
                             + n1s * m12 * (m11 + md2 * m12) * p2
                             - n1s * n2s * n3s * cross ** 2)
    l34 = (n3s / (md2 * s)) * (n3s * (n2s * mNs * m21 * (md2 * m22 - m21) * p1
                                      + n1s * mNs * m11 * (md2 * m12 - m11) * p2)
                               + p1 * p2 * md2 * mNs
                               - n1s * n2s * n3s * md2 * cross ** 2
                               + n2s * m21 * p1 * (md2 * m22 + m21 + md2 * m21 * p3)
                               + n1s * m11 * p2 * (md2 * m12 + m11 + md2 * m11 * p3))
    return F1 ** 2 * (1 / md2 + l34 + l14) + tau ** 2 * (l23 + l12)


def reference_rows(command, cache):
    """Reference rows for one command, plus the worst closed-form gap seen."""
    model = command.config["model"]
    F1, tau = mp.mpf(model.get("F1", 1.0)), mp.mpf(model.get("tau", 0.0))
    rows, worst_gap = [], mp.mpf(0)
    for inst in instances(command):
        key = (tuple(inst["psi"]), inst["psi_n"], inst["lambda"], json.dumps(inst["activations"]))
        if key not in cache:
            mom = [moments(a) for a in inst["activations"]]
            m1 = [m[1] ** 2 for m in mom]
            m2 = [m[2] for m in mom]
            psi = [mp.mpf(p) for p in inst["psi"]]
            psi_n, lam = mp.mpf(inst["psi_n"]), mp.mpf(inst["lambda"])
            b = solve(psi + [psi_n], m1, m2, lam)
            risk = matrix_risk(psi, psi_n, m1, m2, b, F1, tau)
            if len(psi) == 2:
                gap = abs(closed_form_risk_k2(psi, psi_n, m1, m2, b, F1, tau) / risk - 1)
                if gap > CLOSED_FORM_RTOL:
                    raise RuntimeError(f"closed form disagrees by {mp.nstr(gap, 3)} at {key}")
                worst_gap = max(worst_gap, gap)
            cache[key] = {"c": repr(inst["c"]), "risk": mp.nstr(risk, 25),
                          "b": [mp.nstr(x, 25) for x in b]}
        rows.append(cache[key])
    return rows, worst_gap


def package_worst_error(refs):
    """Worst relative error of the code under src/ against the references."""
    sys.path.insert(0, os.path.abspath("src"))
    from multidescent import cli, config

    worst = 0.0
    for name in WORKLOAD_NAMES:
        for command in build_workload(name, 0).commands:
            out, err = io.StringIO(), io.StringIO()
            cfg = config.parse_config(command.config_text)
            if cli.dispatch(command.subcommand, cfg, out, err) != 0:
                continue
            text = out.getvalue().strip()
            if command.subcommand == "sweep":
                lines = text.split("\n")
                col = lines[0].split(",").index("theory_risk")
                values = [line.split(",")[col] for line in lines[1:]]
            elif command.subcommand == "theory":
                values = [json.loads(text)["risk"]]
            else:
                continue
            for v, ref in zip(values, refs[command.label]):
                if v:
                    worst = max(worst, abs(float(v) / float(ref["risk"]) - 1.0))
    return worst


def main() -> None:
    cache, refs, worst_gap = {}, {}, mp.mpf(0)
    for name in WORKLOAD_NAMES:
        for command in build_workload(name, 0).commands:
            rows, gap = reference_rows(command, cache)
            refs[command.label] = rows
            worst_gap = max(worst_gap, gap)
            print(f"{name}/{command.label}: {len(rows)} instance(s)", file=sys.stderr)
    meta = {
        "dps": mp.mp.dps,
        "residual_tol": mp.nstr(RESIDUAL_TOL, 3),
        "closed_form_worst_rel_gap_k2": mp.nstr(worst_gap, 3),
        "check_rtol": RISK_RTOL,
    }
    if os.path.isdir(os.path.join("src", "multidescent")):
        meta["package_worst_rel_error"] = float(f"{package_worst_error(refs):.3e}")
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "commands": refs}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(meta), file=sys.stderr)


if __name__ == "__main__":
    main()
