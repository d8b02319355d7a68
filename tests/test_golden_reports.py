"""Byte-exact JSON reports of ``structure`` and ``discharge``.

The digests pin every catalog graph under both profiles (and the
matching rule sets), so a change to how the facts behind a report are
computed cannot change a report's bytes unnoticed.  Each report is
written from a graph file named ``g.pg`` in the working directory,
since the command line is part of the report.
"""

import hashlib

import pytest

from dpcharge.catalog import DEFAULT_CATALOG
from dpcharge.cli import cli_dispatch

# (graph, profile) -> (sha256 of structure --json, sha256 of discharge --json)
GOLDEN = {
    ('triangle', 'no48'): ('fef05bc0a175d69e4eb422524f288c9fe0a54469834e2941680ce3c1db71cf9b',
        'b6696c6e0c704ddb47092a2a2d3bcabe4e2aa628bb26e22fc1e12b9fa1c82d99'),
    ('triangle', 'no46'): ('b2f015f7dfeb31c9f8fd334e729484138f88f0032eb9fcfe290d0b5e1988d6f2',
        '0c776707990196ddc1d8dc716b655a8a78a4c551a26e0c85f964ade20cabea41'),
    ('k4', 'no48'): ('83ca971524d04d1e4341bc593ad17f202a919d37f1769de01d5016d2a1b005bd',
        '704a55e34ddacd0c58ab20cf0b11f6ef7d52d5437c730237a15c331b8026e469'),
    ('k4', 'no46'): ('554b0cf6bbb6cd77e49c43f2c410336402bf8ea69ab886736c2295d1c8316a7d',
        '87bbd71cf26852ff68da340fc397ddec0a59f216ae432e9e8fcae27aebd55162'),
    ('cube', 'no48'): ('862ec02ecbbae9580715562454b0f87ff9f3e3778470a4fe0ce0278b34f873c8',
        'd21ba1dab4801573e758729e3cd9e81b6d45706e2099598c7b0d7d4318e0fe2b'),
    ('cube', 'no46'): ('34286e31e4183e45d103b9d1984e4b37077ac75420e26159350e4b4cc638e183',
        'c2e863276c219d38b189ac750bc8c8dcc039b535f8ba7133b1792e79ddb92f16'),
    ('cycle:5', 'no48'): ('0a06f7f729e5e2e9efbc6b6e146a23303218adee6cf3827d7ffb651696babe0c',
        'bdf202cf58389f971bd0d8cd04520904b6e253bf7098a3b4a159c98cf75f1aad'),
    ('cycle:5', 'no46'): ('5aa386f846f1d3fc86527728650d0ddf9c26374bccedbec17b575141347dfc37',
        'ee0aedb6224a1eae1a0487a94f59f315f283af18db53be8dd0fb3c6342e37697'),
    ('cycle:7', 'no48'): ('c33ddb4fd2fbe1ae38940970d3e0b5149cbde78b8b36e23fd7ceebea1cc75529',
        '82d380654e6c20f9dc4bc0d51b19c72f4f5c530410ba870e7f4d329f0b9df8c8'),
    ('cycle:7', 'no46'): ('76b0ef11a7e371f0383cd233e9a4fc88213b5013fe48533618775867f4811eaa',
        'b1adfce729bdf023b89ffb3bfe2574e8015802ede3fb63303472fd99beda384d'),
    ('cycle:9', 'no48'): ('923313ce59542bddef57cfba9400369ef486d1e0b435c76595ffa3f0a05cd53a',
        'ad10cbbccf2b7f2cfc81dbc3cdf8757a5f4ccdf620db180abb14975e220f3cab'),
    ('cycle:9', 'no46'): ('fd9d2b730fb57552ca425c8a403f55714a582f88b8209187b2c2a24124d8b3e7',
        '0d924583aa6f62f5d30bf8721416e6ba961023c7b129da0d6ca60dacd6398027'),
    ('dodecahedron', 'no48'): ('3d0b9ab099514e5cf6f6c8b46f2a6b494cf691bc2bd48a5a8fe76a3e7c8054f4',
        'dbe1682a49d42881c752671e73779beb21533f54c3253b3c2f7c1c76710bd1d3'),
    ('dodecahedron', 'no46'): ('e6920d7ad44af5766e3d4d419fc3818019248449df355b466cb2a9b06e386d4d',
        'ed9129c5ca46633910dfe79645df09891f7ab282ff4b7dada7997c47b6c0a615'),
    ('figure1', 'no48'): ('b7adf431c08485cc2e122e74c58b595ca31458a2b3e71bdfff507b33203bc33f',
        '4bb8a0e74a104c241240ee4bbec9766e291e2ba6af6eaab304a4b788396658de'),
    ('figure1', 'no46'): ('770c9a8325812e5ce274054a2aadf12cf4215b074a617a4e9397b94d81a70733',
        '538a4f3698b69e6b06e3a54885590a46fb8f20162833d52a98d1b03d30709ba5'),
    ('theta:1,2,2', 'no48'): ('e66c26803d5afa29d6106d6e017e8653ee546d62aa4484b99a9cc8e54a13000d',
        '62ab338865161d9178a1750c5cea71f3774ed767d1fb2a24ffb1a0c1c6be4004'),
    ('theta:1,2,2', 'no46'): ('432fa04543ef460d872b44103fe22733f611bd36d5472323ff9bdce39c5218d7',
        '5ebe7b07394a936523907269b47ea15387f0a37b301e4eb69a053639c3275b8a'),
    ('theta:3,3,3', 'no48'): ('e347fe798e5783ac554c5f0257278bf349dbdf1f154152eb25470d44b762c5c3',
        '0d5b6ae837114529bd0908ddc75ed9b2a8212fbc58bf533674474f92cd15e102'),
    ('theta:3,3,3', 'no46'): ('d4579e4c6cd4444ec7b037915a8115355f30527776d63166778365410955d0c7',
        '53fa60be073d2213c62ee3b0a0c85f78ebe315744b1115b55832c1182a7529aa'),
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_covers_the_catalog():
    assert set(GOLDEN) == {(n, p) for n in DEFAULT_CATALOG for p in ("no48", "no46")}


@pytest.mark.parametrize("name,profile", sorted(GOLDEN))
def test_report_bytes(name, profile, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rules = {"no48": "rs48", "no46": "rs46"}[profile]
    assert cli_dispatch(["gen", name, "-o", "g.pg"]) == 0
    cli_dispatch(["structure", "g.pg", "--profile", profile, "--json", "s.json"])
    cli_dispatch(["discharge", "g.pg", "--rules", rules, "--json", "d.json"])
    assert (_digest(tmp_path / "s.json"), _digest(tmp_path / "d.json")) == GOLDEN[name, profile]
