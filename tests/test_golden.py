"""Golden bytes: sha256 of the CLI's stdout for fixed inputs, in both formats.

The digests pin every passing report byte for byte, so a refactor that
changes a check name, a detail string, a rendering or the order of checks
fails here.  Map files are written into a fresh directory and named by a
relative path, so the ``mapfile`` argument echoed in JSON reports is fixed.
"""

import hashlib

import pytest

from agcalc.cli import main
from agcalc.mapfile import save_map_file
from agcalc.poly import MapTuple, SparsePoly, VarSet

Z1 = VarSet.z(1)
Z2 = VarSet.z(2)
Z3 = VarSet.z(3)

FIXTURES = {
    "square.json": (MapTuple.exact((SparsePoly.monomial(Z1, (2,)),)),
                    {"name": "square"}),
    "triangular.json": (MapTuple.exact((SparsePoly.monomial(Z2, (0, 2)),
                                        SparsePoly.zero(Z2))),
                        {"name": "triangular", "nt_degree": 0}),
    "control.json": (MapTuple.exact((SparsePoly.monomial(Z2, (2, 0)),
                                     SparsePoly.zero(Z2))),
                     {"name": "control"}),
    # t-dependent N_t, and n=3 exceeds --m-max 1, so the k=0 scan runs deeper
    "chain.json": (MapTuple.exact((SparsePoly.monomial(Z3, (0, 2, 0)),
                                   SparsePoly.monomial(Z3, (0, 0, 2)),
                                   SparsePoly.zero(Z3))),
                   {"name": "chain", "nt_degree": 2}),
}

COMMANDS = {
    "invert-catalan": ["invert", "square.json", "--degree", "5", "--method", "all"],
    "verify-triangular": ["verify", "triangular.json", "--degree", "4",
                          "--xi-degree", "2"],
    "verify-square": ["verify", "square.json", "--degree", "6", "--q", "1 + z1"],
    "lab-triangular": ["lab", "triangular.json"],
    "lab-control": ["lab", "control.json"],
    "lab-chain": ["lab", "chain.json", "--m-max", "1"],
    "corpus-invert-all": ["corpus", "--family", "mixed", "--run", "invert-all",
                          "--degree", "4"],
    "corpus-lab": ["corpus", "--family", "mixed", "--run", "lab"],
    # the only run through ag_jacobian_identity and the xi-moment checks on
    # n=3 and series-truncated maps
    "corpus-verify": ["corpus", "--family", "mixed", "--run", "verify",
                      "--degree", "4"],
}

GOLDEN = {  # (command key, format): sha256 of stdout
    ("corpus-invert-all", "json"):
        "ea8342916609a17448af74f04c05899c3a7d1f11b9202d9bc67c6a96f23e73f8",
    ("corpus-invert-all", "text"):
        "a6830104934dcdbfb91ce8372d54731457c24e30cd7190e1ae997f77dd3b5fee",
    ("corpus-lab", "json"):
        "2783babe85aae313ed68e124d576f4f8a462a47e4779d4a5b912f5943e51b599",
    ("corpus-lab", "text"):
        "2f1581086be2fbec6d3ae39b62fa9fd21e0c550603a06ad4065bf8990f0585a0",
    ("corpus-verify", "json"):
        "cb507ecef7909dbc8b2752358d45c413f69b4ccb09798ca0c78d91133335d8b6",
    ("corpus-verify", "text"):
        "7b1568d4c96eea2509b2c467cf0fca2bebb6b2504faaf5dbe794e86e02735d29",
    ("invert-catalan", "json"):
        "00e95743a89c18fe46d2142b4554cf75f3c1281b6db570142cfcd942811d09c2",
    ("invert-catalan", "text"):
        "f0944ebc784ce18e048d6e8655ef36c6e2faccf75e3f337d14b1de236162a5e8",
    ("lab-chain", "json"):
        "95e5d30638867039de73414a947ee809fe8aa0b49933e32671b86a1155eba77b",
    ("lab-chain", "text"):
        "f49db8ae8f31a4b999c0bd2d6163c2114f7a04445097d94a8ce894f11390baa6",
    ("lab-control", "json"):
        "9dd78e90cbbf595201dd937a7fc443e1cc5b1500ddfde483c4a86d3087f774de",
    ("lab-control", "text"):
        "9b0ab2cd8b319ffcf9440caa37fa4be8c96f21acd88eb61023641a38ae966cd1",
    ("lab-triangular", "json"):
        "2e2689d4793984d43ca84308475faebb6a33e1a098b506fce6d56f87fe860e8b",
    ("lab-triangular", "text"):
        "2badf60ecd3483567f01aad2687207a82d3d353b585fb37fb39aaa5cb58762a9",
    ("verify-square", "json"):
        "6d759063f579b473b6394551ce589015aea4a622c89c9d0fc5ac473eab8ec32e",
    ("verify-square", "text"):
        "0fe278681bfab1028caa3b985f165aa7425789370810f06d27ec91464e84ded8",
    ("verify-triangular", "json"):
        "ae9aa4ef3f7f14a2fb6747df383d2b4a9eacc6eaef4e5dda39046751f8b79802",
    ("verify-triangular", "text"):
        "25897aa142a863b5909b46da5d88c9d39bf86e156b31f747e52936f6691b4078",
}


@pytest.fixture()
def map_dir(tmp_path, monkeypatch):
    for name, (h, meta) in FIXTURES.items():
        save_map_file(tmp_path / name, h, meta)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def stdout_digest(argv, capsys) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("key", sorted(COMMANDS))
def test_report_bytes_pinned(key, fmt, map_dir, capsys):
    digest = stdout_digest(COMMANDS[key] + ["--format", fmt], capsys)
    assert digest == GOLDEN[key, fmt]
