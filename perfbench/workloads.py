"""The three seeded workloads: input generation, one item, and its check.

Each workload builds, from the seed alone, a list of items in a fixed
stratified order: every consecutive round of items holds the same mix of
item classes, so any prefix the timed loop reaches has nearly the same
composition whatever the seed.  ``run`` is the timed call into agcalc;
``check`` runs afterwards, outside the timed region, and returns ``None``
or a one-line reason for the failure.  Checks use the naive arithmetic in
``reference.py`` or labels known from how each input was built, never the
code under test.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150  # a child still running then is killed, and its item fails

def _rng(seed: int, salt: int) -> random.Random:
    return random.Random(seed * 1_000_003 + salt)


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.choice((1, 1, 2, 3)))


def _monomials(n: int, degrees=(2, 3)) -> list[tuple[int, ...]]:
    return [e for e in itertools.product(range(max(degrees) + 1), repeat=n)
            if sum(e) in degrees]


def _random_map(shape: random.Random, rng: random.Random, n: int,
                terms: int) -> list[reference.Poly]:
    """n components, each `terms` distinct monomials of z-degree 2..3.

    `shape` draws the monomials and `rng` the coefficients.
    """
    mons = _monomials(n)
    return [{e: _coeff(rng) for e in shape.sample(mons, min(terms, len(mons)))}
            for _ in range(n)]


def _flip(h: list[reference.Poly], rng: random.Random) -> list[reference.Poly]:
    """S H(S z) for a diagonal S of signs +-1 drawn by `rng`.

    z -> S z is a linear change of coordinates, so it keeps nilpotency and
    the corpus's known t-degree.  Unlike a renaming of the variables, it
    keeps every monomial in its place and so the cost of the item: on the
    n=5 maps of `lab`, eight renamings of one map varied its time by 37% (sd/mean).
    """
    signs = [rng.choice((-1, 1)) for _ in h]
    out = []
    for i, comp in enumerate(h):
        out.append({})
        for e, c in comp.items():
            odd = sum(k for j, k in enumerate(e) if signs[j] < 0) % 2
            out[i][e] = c * signs[i] * (-1 if odd else 1)
    return out


def _to_map(h: list[reference.Poly]):
    from agcalc import MapTuple, SparsePoly, VarSet
    vs = VarSet.z(len(h))
    return MapTuple.exact(tuple(SparsePoly(vs, c) for c in h))


def _corrupt(g: list[reference.Poly]) -> None:
    """Add 1 to one coefficient of a computed inverse, for the gate self-test."""
    e = min(g[0])
    g[0][e] += 1


def _to_ref(p) -> reference.Poly:
    from agcalc.mapfile import poly_to_entries
    return reference.from_entries(poly_to_entries(p))


# -- invert ---------------------------------------------------------------

# (n, terms per component, degree D) of each slot of one ten-item round.
# Which monomials each item has is drawn once, the same for every seed; the
# seed draws the coefficients and a sign change of the variables.  So every
# seed runs the same sequence of shapes: the cost of an item grows steeply
# with its terms, and seed-drawn shapes moved p50 by 10-20% between seeds.
# The last two slots are the dense n=3 slow tail (13 of the 16 monomials);
# two in ten puts p90 in the middle of the tail rather than on its edge,
# where the order statistic would jump between item classes.
INVERT_ROUND = (
    (2, 4, 5), (2, 5, 6), (2, 6, 4), (2, 7, 5),
    (3, 4, 4), (3, 5, 4), (3, 6, 4),
    (3, 4, 5),
    (3, 13, 4), (3, 13, 4),
)


class Invert:
    """cross_method_results(h, D, debug=True) on seeded rational maps."""

    name = "invert"
    rounds = 40  # rounds of the stratified mix generated per seed
    trace_items = 100

    def setup(self, seed: int) -> list:
        shape = _rng(0, 1)
        rng = _rng(seed, 1)
        items = []
        for _ in range(self.rounds):
            for n, terms, degree in INVERT_ROUND:
                h = _flip(_random_map(shape, rng, n, terms), rng)
                items.append({"h_ref": h, "h": _to_map(h), "D": degree})
        self._verified: dict[int, list] = {}
        return items

    def run(self, item):
        from agcalc import cross_method_results
        return cross_method_results(item["h"], item["D"], debug=True)

    def check(self, idx: int, item, results, corrupt: bool = False) -> str | None:
        gs = {method: [_to_ref(c) for c in res.G.components]
              for method, res in results.items()}
        if corrupt:
            for g in gs.values():  # identically in every route
                _corrupt(g)
        routes = list(gs.values())
        if len(routes) != 3 or any(g != routes[0] for g in routes[1:]):
            return "the three routes disagree"
        g = routes[0]
        if self._verified.get(idx) == g:
            return None
        defect = reference.round_trip_defect(item["h_ref"], g, item["D"])
        if defect is None:
            self._verified[idx] = g
        return defect


# -- lab ------------------------------------------------------------------


def _unimodular(rng: random.Random, n: int, shears: int):
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    t_inv = [row[:] for row in t]
    while shears:
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        for col in range(n):
            t[i][col] += c * t[j][col]
        for row in range(n):
            t_inv[row][j] -= c * t_inv[row][i]
        shears -= 1
    return t, t_inv


def _conjugate(h: list[reference.Poly], t, t_inv) -> list[reference.Poly]:
    """T^-1 H(T z), by naive substitution; nilpotency of JH is preserved."""
    n = len(h)
    unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    tz = [{unit[j]: Fraction(t[i][j]) for j in range(n) if t[i][j]} for i in range(n)]
    sub = [reference.compose(hi, tz, 3) for hi in h]
    out = []
    for i in range(n):
        acc: reference.Poly = {}
        for j in range(n):
            if t_inv[i][j]:
                reference.add_into(acc, sub[j], t_inv[i][j])
        out.append(acc)
    return out


def _nilpotent_n5(shape: random.Random, rng: random.Random) -> list[reference.Poly]:
    """Strictly triangular H (nilpotent JH by construction), sheared.

    `shape` draws the monomials and the shear, `rng` the coefficients.
    Redrawn until the sheared map has at most 20 terms, which bounds the
    cost of its dim-5 determinant.
    """
    n = 5
    while True:
        h = []
        for i in range(n):
            allowed = list(range(i + 1, n))
            comp: reference.Poly = {}
            for _ in range(2 if allowed else 0):
                e = [0] * n
                for _ in range(shape.randint(2, 3)):
                    e[shape.choice(allowed)] += 1
                comp[tuple(e)] = _coeff(rng)
            h.append(comp)
        h = _conjugate(h, *_unimodular(shape, n, 3))
        if sum(map(len, h)) <= 20:
            return h


def _non_nilpotent_n5(shape: random.Random, rng: random.Random) -> list[reference.Poly]:
    """Four quadratic terms per component with tr JH != 0, so JH is not nilpotent.

    `shape` draws the monomials, until some component i has a term in z_i;
    `rng` then draws the coefficients, until the trace does not cancel.
    """
    n = 5
    mons = _monomials(n, (2,))
    while True:
        support = [shape.sample(mons, 4) for _ in range(n)]
        if any(e[i] for i, comp in enumerate(support) for e in comp):
            break
    while True:
        h = [{e: _coeff(rng) for e in comp} for comp in support]
        if reference.jacobian_trace(h):
            return h


def _size(p) -> int:
    return sum(len(c.sorted_exponents()) for c in p.components)


def _corpus_pick(salt: int, n: int, family: str, want: int, accept) -> list:
    """The first `want` gen_corpus items of one cell whose input passes `accept`."""
    from agcalc import CorpusSpec, gen_corpus
    picked = []
    for sub in range(1000):
        spec = CorpusSpec(n=n, family=family, count=8, seed=salt * 1000 + sub)
        picked.extend(it for it in gen_corpus(spec) if accept(it))
        if len(picked) >= want:
            return picked[:want]
    raise RuntimeError(f"could not draw {want} {family} n={n} corpus items")


# one twelve-item round: (kind, source, m_max); "nil" items run is_nilpotent
# at dim 5 (fraction-free elimination), "eq" items run check_equivalences.
# The two extra control items move p50 from the gap between the triangular4
# and cubic3 items (about 0.03 s against 0.07 s) to where the triangular4,
# cubic4 and control4 items overlap; p90 lies inside the random5 items.  An
# order statistic in a gap between classes jumps with the exact mix timed.
LAB_ROUND = (
    ("nil", "random5", None), ("nil", "random5", None), ("nil", "sheared5", None),
    ("eq", "triangular4", 5), ("eq", "triangular4", 5),
    ("eq", "cubic3", 4), ("eq", "cubic3", 4), ("eq", "cubic4", 4),
    ("eq", "control3", 5), ("eq", "control4", 5),
    ("eq", "control3", 5), ("eq", "control4", 5),
)

# corpus cells and the band of input size (terms) and known t-degree each
# draws from; the band keeps the per-item cost of a slot within one order of
# magnitude (a triangular n=4 map of t-degree 12 scans to m=13 and alone
# takes longer than the rest of a run)
LAB_CELLS = {
    "triangular4": (4, "triangular", lambda it: 4 <= _size(it.h) <= 6 and it.nt_degree <= 4),
    "cubic3": (3, "cubic", lambda it: 6 <= _size(it.h) <= 12 and it.nt_degree <= 4),
    "cubic4": (4, "cubic", lambda it: _size(it.h) <= 14 and it.nt_degree <= 4),
    "control3": (3, "control", lambda it: True),
    "control4": (4, "control", lambda it: True),
}


class Lab:
    """check_equivalences on gen_corpus items; is_nilpotent on n=5 maps."""

    name = "lab"
    rounds = 36  # about 26 s of items; a 30 s run then starts over from the first
    trace_items = 100

    def setup(self, seed: int) -> list:
        """The same sequence of map shapes for every seed, as in `Invert`.

        The corpus items are the same gen_corpus draws for every seed and
        the n=5 maps have the same monomials; the seed draws the n=5
        coefficients and changes the signs of the variables of every map
        (see `_flip`).
        """
        shape = _rng(0, 2)
        rng = _rng(seed, 2)
        need = {src: sum(1 for _, s, _ in LAB_ROUND if s == src) * self.rounds
                for src in LAB_CELLS}
        pools = {src: iter(_corpus_pick(salt, n, fam, need[src], accept))
                 for salt, (src, (n, fam, accept)) in enumerate(sorted(LAB_CELLS.items()))}
        items = []
        for _ in range(self.rounds):
            for kind, src, mmax in LAB_ROUND:
                if src == "random5":
                    h = _non_nilpotent_n5(shape, rng)
                    items.append({"kind": kind, "h": _to_map(_flip(h, rng)),
                                  "nilpotent": False})
                elif src == "sheared5":
                    h = _nilpotent_n5(shape, rng)
                    items.append({"kind": kind, "h": _to_map(_flip(h, rng)),
                                  "nilpotent": True})
                else:
                    it = next(pools[src])
                    h = _flip([_to_ref(c) for c in it.h.components], rng)
                    items.append({"kind": kind, "h": _to_map(h), "nilpotent": it.nilpotent,
                                  "nt_degree": it.nt_degree, "label": it.item_id,
                                  "mmax": mmax})
        return items

    def run(self, item):
        from agcalc import check_equivalences, is_nilpotent
        if item["kind"] == "nil":
            return is_nilpotent(item["h"])
        return check_equivalences(item["h"], item["mmax"],
                                  known_nt_degree=item["nt_degree"], label=item["label"])

    def check(self, idx: int, item, out, corrupt: bool = False) -> str | None:
        verdict = out.nilpotent != corrupt
        if verdict != item["nilpotent"]:
            return f"nilpotency verdict {verdict}, built as {item['nilpotent']}"
        if item["kind"] == "nil":
            return None
        statuses = {c.name: c.status for c in out.checks}
        if item["nilpotent"]:
            want = dict.fromkeys(statuses, "pass")
            stab = next((c for c in out.checks if "stabilizes" in c.name), None)
            index = f"stabilization index {item['nt_degree']},"
            if stab is None or index not in (stab.detail or ""):
                return f"stabilization index not reported as {item['nt_degree']}"
        else:
            want = {name: ("pass" if "iff" in name else "skip") for name in statuses}
        if len(statuses) != (4 if item["nilpotent"] else 3) or statuses != want:
            return f"check statuses {statuses}"
        return None


# -- cli ------------------------------------------------------------------

# one eight-item round of agcalc commands; map files are written at set-up
CLI_ROUND = ("invert", "invert", "invert", "verify", "lab", "lab",
             "corpus-invert", "corpus-lab")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


class Cli:
    """One `python -m agcalc` child process per item, one at a time."""

    name = "cli"
    rounds = 6  # few enough that the loop repeats commands, to compare bytes
    trace_items = 40

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int) -> list:
        """The same sequence of map shapes for every seed, as in `Invert`.

        The seed draws the coefficients of the `invert` and `verify` maps,
        changes the signs of the variables of every map file (see `_flip`)
        and orders the `lab` maps.
        The `corpus` commands are the same for every seed: their corpus is
        agcalc's own, and its cost moved by a factor of 2.6 with its seed.
        """
        from agcalc import CorpusSpec, gen_corpus
        from agcalc.mapfile import save_map_file
        shape = _rng(0, 3)
        rng = _rng(seed, 3)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        lab_maps = []
        for fam in ("triangular", "cubic", "control"):
            lab_maps.extend(gen_corpus(CorpusSpec(n=3, family=fam, count=4, seed=0)))
        rng.shuffle(lab_maps)
        items = []
        for r in range(self.rounds):
            for slot, kind in enumerate(CLI_ROUND):
                tag = f"r{r}s{slot}"
                item = {"kind": kind}
                if kind in ("invert", "verify"):
                    h = _flip(_random_map(shape, rng, 2, shape.randint(3, 5)), rng)
                    path = self.workdir / f"{tag}.json"
                    save_map_file(path, _to_map(h), {"name": tag})
                    item["h_ref"] = h
                    if kind == "invert":
                        item["D"] = shape.choice((4, 5))
                        item["argv"] = ["invert", str(path), "--degree", str(item["D"]),
                                        "--method", "all", "--format", "json"]
                    else:
                        item["argv"] = ["verify", str(path), "--degree", "4",
                                        "--xi-degree", "2"]
                elif kind == "lab":
                    it = lab_maps[(2 * r + slot) % len(lab_maps)]
                    path = self.workdir / f"{tag}.json"
                    meta = {"name": it.item_id}
                    if it.nt_degree is not None:
                        meta["nt_degree"] = it.nt_degree
                    h = _flip([_to_ref(c) for c in it.h.components], rng)
                    save_map_file(path, _to_map(h), meta)
                    item["nilpotent"] = it.nilpotent
                    item["argv"] = ["lab", str(path), "--m-max", "4"]
                else:
                    run = "invert-all" if kind == "corpus-invert" else "lab"
                    item["argv"] = ["corpus", "--family", "mixed", "--run", run,
                                    "--degree", "4", "--m-max", "4",
                                    "--seed", str(r % 2), "--format", "json"]
                items.append(item)
        self._first_bytes: dict[tuple, bytes] = {}
        return items

    def run(self, item, traced_dump: Path | None = None, item_id: int = -1):
        if traced_dump is None:
            cmd = [sys.executable, "-m", "agcalc", *item["argv"]]
        else:
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(traced_dump),
                   str(item_id), *item["argv"]]
        proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, idx: int, item, out, corrupt: bool = False) -> str | None:
        rc, stdout, stderr = out
        if rc != 0:
            return f"exit code {rc}: {stderr.decode(errors='replace').strip()[-200:]}"
        key = tuple(item["argv"])
        first = self._first_bytes.setdefault(key, stdout)
        if first != stdout:
            return "report bytes differ between repeats of one command"
        text = stdout.decode("utf-8")
        if "--format" not in item["argv"]:
            lines = text.splitlines()
            if not lines or lines[-1] != "overall: PASS":
                return "text report is not overall: PASS"
            if item["kind"] == "lab" and f"nilpotent = {item['nilpotent']}" not in lines:
                return f"lab verdict differs from label nilpotent={item['nilpotent']}"
            return None
        report = json.loads(text)
        if report.get("status") != "pass":
            return "report status is not pass"
        if item["kind"] == "invert":
            g = [reference.from_entries(c) for c in report["result"]["G_terms"]]
            if corrupt:
                _corrupt(g)
            return reference.round_trip_defect(item["h_ref"], g, item["D"])
        if item["kind"].startswith("corpus") and report["result"]["failed"] != 0:
            return f"corpus run failed {report['result']['failed']} items"
        return None


def make(name: str, workdir: Path):
    if name == "invert":
        return Invert()
    if name == "lab":
        return Lab()
    if name == "cli":
        return Cli(workdir)
    raise ValueError(f"unknown workload {name!r}")
