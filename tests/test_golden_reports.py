"""Byte-exact JSON reports and standard output of ``structure`` and
``discharge``.

The digests pin every catalog graph under both profiles (and the
matching rule sets), so a change to how the facts behind a report are
computed, or to how its lines are printed, cannot change a report's or
the output's bytes unnoticed.  Each report is written from a graph file
named ``g.pg`` in the working directory, since the command line is part
of the report.
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

# (graph, profile) -> (sha256 of the standard output of structure --json,
#                      sha256 of that of discharge --json), same commands as above
STDOUT = {
    ('triangle', 'no48'): ('2825901003bec067d69dbe66598343c35468fe41d3da14b0e4b8e47f6da9cf36',
        '7d1609e63ad6a0ccb5ea2f6426d2b8483a91980c63228a28e051833d0fe0e3ab'),
    ('triangle', 'no46'): ('795201834b6f5a063716b5276a2a954b55bd1ddd36a47da6c1bf802896a48263',
        '751ac0778b192b2984934e87f5293558c945ad3cda9c63604cfe89b4d830350c'),
    ('k4', 'no48'): ('8a322c180e8f1507730c1ffecfcfb9d8f08780316f08d4209e22eb0d3480ef70',
        'b20842f3f669005a1fc7d8073712ff48567f4c3dcc25e6536bc05af72eed6080'),
    ('k4', 'no46'): ('4c40d11d6e2e07cfb76a6e1079bbe4da364f6cde9fd2d27389408983037a1710',
        'a2c9613f30925afcc8da100fdce45340715d8f75c21e20ce7c6a6fc6e1a6ad9f'),
    ('cube', 'no48'): ('3cad46a1a00b8bdb4d188d07ce4ac314ce75d745a84c08f101d4ae3546236104',
        '187ba22642e6d0cf9267a4aea6dceb6a0121e2151de03fc5fc3f7c24c034fb3c'),
    ('cube', 'no46'): ('f0e829c9f1e5db4cbdcd6627ffe9820d6b7023f7211cfbdc15ba7782306d82e1',
        '423a93a92bcd773137ad93cb84ecec3f25442bbff78014910bbe7a214aeaeddc'),
    ('cycle:5', 'no48'): ('6800bd696b6fc164323a1c42f072ce3da39486a121519c9c41f6f38c273a4410',
        '59d858120a44db481a91b2e9199c79d2a18b136c606799ca26ab8ac149205726'),
    ('cycle:5', 'no46'): ('5c02bb5dd7aa31a28e1162c6fee8bb6828c1b3cdc6d4eaa3f1853a43924aa2c0',
        'd5c2cfaff77710ec9c2aa2927f8694c023a77985243388c10fa0f6af99baef3d'),
    ('cycle:7', 'no48'): ('86c6725bfa7cbf592e9ec043291bb0f54d618a68b818b6bbb2e14ffa577b55f8',
        '9f74af7dd0984af5eb336a90fa34fb3925cf9de7aa2bded766df48051e573a99'),
    ('cycle:7', 'no46'): ('1826bbd8b2c102c4f34a8625569339054a5db7dc75e54535549e875f929a687a',
        '49875cf82dca79b0db2bcdce15534dca4443c108a9f3dc092c342f38a5000d33'),
    ('cycle:9', 'no48'): ('886552f4a61ad475054d74cb33b1c0ad364264874777ea76c0593cdc4acc71eb',
        '0f208a7ec041546ed37d86419d7233b51ec6d1c9c5c4bd91f32a041eaf6a6496'),
    ('cycle:9', 'no46'): ('fb32208eab566a3184aebfe3b1ec95a8d37cca595030ad3e554c24339b82313d',
        '57916831927bd642dfbfc865b8d196bef8c2ec0a0a5c5432193bd4084f57cb45'),
    ('dodecahedron', 'no48'): ('5134a1daeb4217db7d220b13af6b0039fb1a49613334dd4e956dd10df1b55824',
        'af2aabfb69acb4a59b264866c7ff26bf5b6c03cb17550f3ef0e2d8935c7dbd15'),
    ('dodecahedron', 'no46'): ('86ce78db4b9f4ec4af6e3b2a0a2b1c5384afb384ac5371893f6c0334da94c720',
        '82570a4095b3b46eb07a4c0088073570cf9f9008077e360ee62140676328130c'),
    ('figure1', 'no48'): ('8d18a54055edbcfa5c55183a76ce54716855000b8fd7d51d3ca27a5d88eb0a65',
        'baf0c0ce011c18c27e54c11ed33b759817fdccd337ca3edafd53c4af684d4ce0'),
    ('figure1', 'no46'): ('2bc8b32842227b82173b401a9aaceac0ef037bbb26b9b25cbfbff5931b13c7d7',
        '69b67d3a5a498d7955b02cc1d63a98f661a8be159cf5cc2b43065ea505a72ced'),
    ('theta:1,2,2', 'no48'): ('6a389b799b4f01da594307e3269a96ab9b49de2f2a297d34091294dde67ba489',
        'b4409a994c1b1d09eba19fd3b72074e10c3f6e77279b8293ed3e9e9e7a675897'),
    ('theta:1,2,2', 'no46'): ('347a83427d9b33f143a45c15101799988354bc87f0efecb8610e94a6d90c3b82',
        '76f4c193e57feb5a5800de089fdf7ab16705589bc97436e0ece21a3817c13947'),
    ('theta:3,3,3', 'no48'): ('1725a806c1ebbbf0243e70c3f523d503c67ca8208833229e2c57717794600d90',
        '48dfefd9cb3faf1d6f6acb3c3e0011d0a84bfc5745679f88478a4ffcfd1414a2'),
    ('theta:3,3,3', 'no46'): ('a2f9f5a4b3f1e4f7f6fe382b2d0a71f3fc79044cc276b1cc143c468c5034c48b',
        '3caed4143500a7f90a598278e01fe73cab1adf027dff5a3182548eb9d71e4b35'),
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(name, profile, capsys) -> tuple[str, str]:
    """Write g.pg, s.json and d.json in the working directory; returns
    the digests of the two commands' standard output."""
    rules = {"no48": "rs48", "no46": "rs46"}[profile]
    assert cli_dispatch(["gen", name, "-o", "g.pg"]) == 0
    capsys.readouterr()
    outs = []
    for argv in (["structure", "g.pg", "--profile", profile, "--json", "s.json"],
                 ["discharge", "g.pg", "--rules", rules, "--json", "d.json"]):
        cli_dispatch(argv)
        outs.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    return outs[0], outs[1]


def test_golden_covers_the_catalog():
    assert set(GOLDEN) == set(STDOUT) == {(n, p) for n in DEFAULT_CATALOG
                                          for p in ("no48", "no46")}


@pytest.mark.parametrize("name,profile", sorted(GOLDEN))
def test_report_bytes(name, profile, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _run(name, profile, capsys)
    assert (_digest(tmp_path / "s.json"), _digest(tmp_path / "d.json")) == GOLDEN[name, profile]


@pytest.mark.parametrize("name,profile", sorted(STDOUT))
def test_stdout_bytes(name, profile, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _run(name, profile, capsys) == STDOUT[name, profile]
