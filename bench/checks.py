"""Correctness gate: the seed commit's reference outputs plus invariants for any seed.

Every output an op returns is checked here, outside the timed region:

* invariants that hold for any seed: momentum conservation and E = sum k^2;
  the real-branch residual through the public `residual_real`; where the
  problem is well conditioned (|c| <= WELL_COND_C) also the complex-branch
  `residual_complex`, `jump_residual` and `periodicity_residual`; norm > 0
  and sign(<V>) = sign(c) for observables;
* the reference outputs in reference.json (written by make_reference.py at
  the seed commit) for every input they cover: roots and energies to
  ROOT_RTOL, norm, <V> and grid digests to OBS_RTOL, CLI exit codes and
  output digests.

An op that failed at the seed commit and succeeds now is checked by the
invariants only; it is never a mismatch.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import bethe3

REFERENCE = Path(__file__).with_name("reference.json")

ROOT_RTOL = 1e-10       # roots and energies, relative to max(1, |reference|)
OBS_RTOL = 1e-6         # norm, <V>, density digests and the CLI's observable columns
RESIDUAL_TOL = 1e-11    # real-branch residual at a returned root (solver tolerance 1e-12)
WELL_COND_C = 15.0      # |c| up to which the alpha-based forms below are well conditioned
WELL_COND_TOL = 1e-9    # complex residual, jump and periodicity residuals there
IDENTITY_TOL = 1e-10    # momentum conservation, E = sum k^2 (relative to max(1, |E|))
OBS_COLUMNS = {"norm", "V", "density"}
TEXT_SKIP = {"detail", "error"}   # free text that quotes numbers


def root_record(s) -> list:
    """[branch, x1, x2, E] with (delta1, delta2) or (alpha, gamma)."""
    co = s.coords
    if s.branch.value == "real":
        return ["real", co.delta1, co.delta2, s.energy]
    return ["complex", co.alpha, co.gamma, s.energy]


def grid_digest(grid) -> list:
    d = grid.density
    return [int(d.size), float(d.sum()), float((d * grid.r12).sum()),
            float((d * grid.r23).sum()), float(d.max())]


def key(label, c) -> str:
    return f"{label[0]},{label[1]}@{c:g}"


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


class Gate:
    """Collects mismatches; `errors` empty means every checked output is correct."""

    def __init__(self, reference: dict):
        self.ref = reference
        self.errors: list[str] = []
        self.compared = 0

    @classmethod
    def load(cls) -> "Gate":
        return cls(json.loads(REFERENCE.read_text()))

    def fail(self, where: str, msg: str) -> None:
        self.errors.append(f"{where}: {msg}")

    # -- states ----------------------------------------------------------------

    def state(self, s, where: str, wavefunction: bool) -> None:
        m = s.momenta
        p = s.label.p
        if abs(m.total - p) > IDENTITY_TOL:
            self.fail(where, f"momentum sum {m.total} != {p}")
        if abs(s.energy - m.energy()) > IDENTITY_TOL * max(1.0, abs(s.energy)):
            self.fail(where, f"E {s.energy} != sum k^2 {m.energy()}")
        well = abs(s.c) <= WELL_COND_C
        co = s.coords
        if s.branch.value == "real":
            r = bethe3.residual_real(co.delta1, co.delta2, s.c, s.label).residual
            if max(abs(r[0]), abs(r[1])) > RESIDUAL_TOL:
                self.fail(where, f"real residual {r}")
        elif well:
            canon = s if s.label.canonical() == s.label else bethe3.partner_state(s)
            ra, rg = bethe3.residual_complex(
                canon.coords.alpha, canon.coords.gamma, s.c, canon.label).residual
            rg = math.remainder(rg, 2.0 * math.pi)   # principal argument: no winding count
            if max(abs(ra), abs(rg)) > WELL_COND_TOL:
                self.fail(where, f"complex residual {(ra, rg)}")
        if wavefunction and well:
            try:
                worst = max(bethe3.jump_residual(s, 0.3, 0.7), bethe3.jump_residual(s, 0.8, 0.2),
                            bethe3.periodicity_residual(s, 0.25, 0.6))
            except (ValueError, ArithmeticError) as exc:
                self.fail(where, f"wavefunction check raised {type(exc).__name__}: {exc}")
                return
            if worst > WELL_COND_TOL:
                self.fail(where, f"jump/periodicity residual {worst:.3e}")

    def root(self, s, ref: list | None, where: str) -> None:
        if ref is None:
            return
        got = root_record(s)
        self.compared += 1
        if got[0] != ref[0] or not all(_close(g, r, ROOT_RTOL) for g, r in zip(got[1:], ref[1:])):
            self.fail(where, f"root {got} != reference {ref}")

    # -- per-workload outputs ---------------------------------------------------

    def trace(self, op, traj) -> None:
        _, label, c_min, c_max = op
        where = f"trace {label} [{c_min}, {c_max}]"
        cs = [s.c for s in traj.samples]
        if not cs or cs[0] != c_min or cs[-1] != c_max or any(b <= a for a, b in zip(cs, cs[1:])):
            self.fail(where, "samples do not ascend from c_min to c_max")
        ref = self.ref["trace"][f"{label[0]},{label[1]}"]
        for s in traj.samples:
            integer = abs(s.c - round(s.c)) < 1e-12
            self.state(s, f"{where} c={s.c}", wavefunction=integer)
            if integer:
                self.root(s, ref.get(f"{round(s.c):d}"), f"{where} c={s.c}")

    def spectrum(self, op, result) -> None:
        _, label, c = op
        where = f"spectrum {label} c={c}"
        expected = 1 if label[0] == label[1] else 2
        if len(result.states) != expected:
            self.fail(where, f"{len(result.states)} levels, expected {expected}")
        for s in result.states:
            k = key((s.label.n1, s.label.n2), c)
            self.state(s, f"{where} {k}", wavefunction=True)
            self.root(s, self.ref["spectrum"].get(k), f"{where} {k}")

    def observable(self, op, out, state) -> None:
        k = key(op[1], op[2])
        ref = self.ref["observables"].get(k, {})
        if op[0] == "norm":
            norm, v = out
            if not (math.isfinite(norm) and norm > 0.0):
                self.fail(k, f"norm {norm} is not positive")
            if math.copysign(1.0, v) != math.copysign(1.0, state.c) or (v == 0.0) != (state.c == 0.0):
                self.fail(k, f"sign(<V>) = sign({v}) != sign(c) = sign({state.c})")
            if "norm" in ref:
                self.compared += 1
                if not (_close(norm, ref["norm"], OBS_RTOL) and _close(v, ref["V"], OBS_RTOL)):
                    self.fail(k, f"norm, <V> = {norm}, {v} != reference {ref['norm']}, {ref['V']}")
            return
        res = op[3]
        d = out.density
        if d.size != res * (res + 1) // 2 or not np.all(np.isfinite(d)) or d.min() < 0.0:
            self.fail(f"{k} grid {res}", "density not finite and >= 0 on the full lattice")
        ref_digest = ref.get(f"grid{res}")
        if ref_digest is not None:
            self.compared += 1
            got = grid_digest(out)
            if not all(_close(g, r, OBS_RTOL) for g, r in zip(got, ref_digest)):
                self.fail(f"{k} grid {res}", f"digest {got} != reference {ref_digest}")

    def cli(self, name: str, records: list[dict]) -> None:
        """Output of a command that exited with 0."""
        ref = self.ref["cli"][name]
        if ref["exit"] != 0:
            self.cli_invariants(name, records)
            return
        self.compared += 1
        got = cli_digest(records)
        if got["records"] != ref["records"] or got["text"] != ref["text"]:
            self.fail(f"cli {name}", f"records/text {got['records']}, {got['text'][:12]} differ")
            return
        for col, (wsum, wabs) in ref["columns"].items():
            rtol = OBS_RTOL if col in OBS_COLUMNS else ROOT_RTOL
            g = got["columns"].get(col)
            if g is None or abs(g[0] - wsum) > rtol * max(1.0, wabs):
                self.fail(f"cli {name}", f"column {col} digest {g} != reference {(wsum, wabs)}")

    def cli_invariants(self, name: str, records: list[dict]) -> None:
        """Output of a command that failed at the seed commit and succeeds now."""
        for i, rec in enumerate(records):
            where = f"cli {name} record {i}"
            f = {k: _num(v) for k, v in rec.items()}
            if "density" in f:
                if not (f["density"] is not None and f["density"] >= 0.0):
                    self.fail(where, f"density {rec['density']}")
                continue
            if "k1_re" in f:
                ks = [complex(f[f"k{j}_re"], f[f"k{j}_im"]) for j in (1, 2, 3)]
                e = f["E"]
                if abs(sum(ks) - f["p"]) > IDENTITY_TOL * 10 or \
                        abs(sum(k * k for k in ks).real - e) > IDENTITY_TOL * max(1.0, abs(e)):
                    self.fail(where, "momentum or energy identity broken")
                if f.get("norm") is not None and not (f["norm"] > 0.0 and f["V"] * f["c"] > 0.0):
                    self.fail(where, f"norm {f['norm']} / <V> {f['V']} invariant broken")


def _num(v):
    """A field's numeric value, or None for text (booleans are text)."""
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str) and v:
        try:
            return float(v)
        except ValueError:
            return None
    return None


def parse_cli_output(text: str, csv: bool) -> list[dict]:
    if csv:
        lines = text.splitlines()
        if not lines:
            return []
        cols = lines[0].split(",")
        return [dict(zip(cols, line.split(","))) for line in lines[1:]]
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def cli_digest(records: list[dict]) -> dict:
    """Record count, a hash of the text fields, and per numeric column the
    position-weighted sum and absolute sum (so a reordering shows too)."""
    text = hashlib.sha256()
    cols: dict[str, list[float]] = {}
    for i, rec in enumerate(records, 1):
        for k, v in rec.items():
            x = _num(v)
            if x is None:
                if k not in TEXT_SKIP:
                    text.update(f"{k}={v};".encode())
                continue
            acc = cols.setdefault(k, [0.0, 0.0])
            acc[0] += i * x
            acc[1] += i * abs(x)
    return {"records": len(records), "text": text.hexdigest(), "columns": cols}
