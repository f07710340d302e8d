"""Map files (JSON with string rationals) and the polynomial literal grammar.

A map file holds the tail H of F = z - H:

    {
      "n": 2,
      "trunc": null,                      # int for a series-truncated map
      "components": [
        [{"coeff": "1", "exps": [0, 2]}],
        []
      ],
      "metadata": {                       # optional, free-form but validated keys:
        "name": "...", "family": "...",
        "known_inverse": [...components of the inverse tail N...],
        "nt_degree": 0
      }
    }

"n" is at most MAX_N (1,000), and "components" must list exactly n
components; both are checked before any variable layout is built, as a
layout's memory grows with n squared.  On a 2-vCPU x86_64 host under
CPython 3.11, the lab command on the zero map with n = 1,000 ran in about
2 s and peaked at about 150 MiB; at n = 2,000 it took about 10 s and
560 MiB.

Coefficients are JSON integers or ASCII strings, a signed integer, p/q or
decimal fraction ("-3/4", ".5"), canonicalized on load.  Exponent notation
("1e999999" is a million digits) and any other JSON number, which the JSON
reader would round through a float, are refused.

Polynomial literals on the command line use a deliberately small grammar:
sums of terms, each term a '*'-joined product of a rational literal and
variable powers (z1, xi2, t, each optionally ^k).  Example:

    1/2*z1^2 - 3*z1*z2 + z2^3
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .errors import MapFileError
from .poly import Exponent, MapTuple, SparsePoly, VarSet

MAX_N = 1000  # the most variables a map file may declare

_VAR_RE = re.compile(r"^(xi|z|t)(\d*)(?:\^(\d+))?$", re.ASCII)
_RAT_RE = re.compile(r"^\d+(?:/\d+)?$", re.ASCII)
_COEFF_RE = re.compile(r"\s*[+-]?(?:\d+(?:/\d+)?|\d+\.\d*|\.\d+)\s*", re.ASCII)


def _is_count(x, least: int) -> bool:
    """An integer >= least; JSON true/false are bools, which Python counts as ints."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= least


def parse_poly(text: str, vs: VarSet) -> SparsePoly:
    """Parse a polynomial literal over the given layout."""
    src = text.strip()
    if not src:
        raise MapFileError("empty polynomial literal")
    # normalize into explicitly signed terms
    src = src.replace("-", "+-")
    if src.startswith("+"):
        src = src[1:]
    terms: dict[Exponent, Fraction] = {}
    for raw in src.split("+"):
        raw = raw.strip()
        if not raw:
            raise MapFileError(f"dangling sign in literal {text!r}")
        sign = 1
        if raw.startswith("-"):
            sign = -1
            raw = raw[1:].strip()
        coeff = Fraction(sign)
        exps = [0] * vs.nvars
        for factor in raw.split("*"):
            factor = factor.strip()
            if not factor:
                raise MapFileError(f"empty factor in term {raw!r}")
            if _RAT_RE.match(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError as err:
                    raise MapFileError(f"bad coefficient {factor!r}: {err}") from None
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise MapFileError(f"cannot read factor {factor!r} in {text!r}")
            name, num, power = m.group(1), m.group(2), int(m.group(3) or 1)
            try:
                if name == "t":
                    if num:
                        raise MapFileError(f"unknown variable {factor!r}")
                    idx = vs.t_index
                elif name == "z":
                    idx = vs.z_index(int(num) - 1)
                else:
                    idx = vs.xi_index(int(num) - 1)
            except Exception as err:
                raise MapFileError(f"variable {factor!r} not in layout "
                                   f"{vs.kind}(n={vs.n}): {err}") from None
            exps[idx] += power
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return SparsePoly(vs, terms)


def poly_to_entries(p: SparsePoly) -> list[dict]:
    """Canonical term list: sorted exponents, string rationals."""
    return [{"coeff": str(p.coeff(e)), "exps": list(e)}
            for e in p.sorted_exponents()]


def entries_to_poly(entries, vs: VarSet) -> SparsePoly:
    terms: dict[Exponent, Fraction] = {}
    if not isinstance(entries, list):
        raise MapFileError("component must be a list of term entries")
    for item in entries:
        if not isinstance(item, dict) or "coeff" not in item or "exps" not in item:
            raise MapFileError(f"term entry {item!r} needs 'coeff' and 'exps'")
        # a JSON number with a fraction or exponent would be read as a float
        if isinstance(item["coeff"], bool) or not isinstance(item["coeff"], (str, int)):
            raise MapFileError(
                f"term entry {item!r}: coefficient must be a string or an integer")
        text = str(item["coeff"])
        try:
            if not _COEFF_RE.fullmatch(text):
                raise ValueError("expected an integer, p/q or a decimal fraction")
            coeff = Fraction(text)
        except (ValueError, ZeroDivisionError) as err:
            raise MapFileError(f"term entry {item!r}: bad coefficient: {err}") from None
        exps = item["exps"]
        if (not isinstance(exps, list) or len(exps) != vs.nvars
                or not all(_is_count(e, 0) for e in exps)):
            raise MapFileError(
                f"exponent vector {exps!r} must be {vs.nvars} non-negative integers")
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return SparsePoly(vs, terms)


def _component_list(obj, n: int, role: str) -> list:
    if not isinstance(obj, list) or len(obj) != n:
        raise MapFileError(f"{role} must list exactly n={n} components")
    return obj


def _components_from_obj(comps: list, vs: VarSet, trunc: int | None, role: str) -> MapTuple:
    polys = tuple(entries_to_poly(c, vs) for c in comps)
    try:
        if trunc is None:
            return MapTuple.exact(polys)
        return MapTuple(polys, trunc)
    except Exception as err:
        raise MapFileError(f"invalid {role}: {err}") from None


def parse_map_obj(obj: dict) -> tuple[MapTuple, dict]:
    if not isinstance(obj, dict):
        raise MapFileError("map file must be a JSON object")
    n = obj.get("n")
    if not _is_count(n, 1):
        raise MapFileError("field 'n' must be a positive integer")
    if n > MAX_N:
        raise MapFileError(f"field 'n' is {n}; a map file may declare at most {MAX_N} variables")
    trunc = obj.get("trunc")
    if trunc is not None and not _is_count(trunc, 0):
        raise MapFileError("field 'trunc' must be null or a non-negative integer")
    comps = _component_list(obj.get("components"), n, "components")
    vs = VarSet.z(n)
    h = _components_from_obj(comps, vs, trunc, "components")
    if h.order() < 2:
        raise MapFileError(
            f"map tail must have order >= 2 componentwise; got order {h.order()}")
    metadata = obj.get("metadata")
    if metadata is None:
        metadata = {}
    if not isinstance(metadata, dict):
        raise MapFileError("metadata must be an object")
    if "known_inverse" in metadata and metadata["known_inverse"] is not None:
        role = "metadata.known_inverse"
        known = _components_from_obj(_component_list(metadata["known_inverse"], n, role),
                                     vs, None, role)
        metadata = dict(metadata)
        metadata["known_inverse"] = known
    if "nt_degree" in metadata and metadata["nt_degree"] is not None:
        if not _is_count(metadata["nt_degree"], 0):
            raise MapFileError("metadata.nt_degree must be a non-negative integer")
    return h, metadata


def load_map_file(path: str | Path) -> tuple[MapTuple, dict, bytes]:
    """The map, its metadata, and the bytes they were parsed from, read once."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as err:
        raise MapFileError(f"cannot read {path}: {err}") from None
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise MapFileError(f"{path} is not UTF-8: {err}") from None
    except (ValueError, RecursionError) as err:  # a JSONDecodeError, or nesting too deep
        raise MapFileError(f"{path} is not valid JSON: {err}") from None
    return (*parse_map_obj(obj), data)


def map_to_obj(h: MapTuple, metadata: dict | None = None) -> dict:
    obj: dict = {
        "n": h.n,
        "trunc": h.trunc,
        "components": [poly_to_entries(c) for c in h.components],
    }
    meta = dict(metadata) if metadata else {}
    if isinstance(meta.get("known_inverse"), MapTuple):
        meta["known_inverse"] = [poly_to_entries(c)
                                 for c in meta["known_inverse"].components]
    if meta:
        obj["metadata"] = meta
    return obj


def save_map_file(path: str | Path, h: MapTuple, metadata: dict | None = None) -> None:
    Path(path).write_text(
        json.dumps(map_to_obj(h, metadata), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
