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
    ('triangle', 'no48'): ('1e7c6efcbddcf32b29d2c46113988bcd3064d8b3db10366acc7c19f7aef6fc47',
        'af13703fed1688047235f4c3ff9cb52bf5bb70ea6d92ea5be37e064652785e25'),
    ('triangle', 'no46'): ('691f84c0405bbbb0e16251b04e2d8af42802082a790197dd6f793cb0d2a6a806',
        '05ccfe0a7a462f359199c0735209f6efd171dd4f026058b0c183f76656b4f210'),
    ('k4', 'no48'): ('55b2b0eb0a822243a858cc766589babcf07551483deea5fb3ca952777ffc3934',
        '93aef66bd261ad06eef6961972b4c5b1cc11a24df2f270ffbc4503bd94e83fcf'),
    ('k4', 'no46'): ('f97336664d822ce6043cc4e39a9dcc9e6196745b973bbd049c6ccf8222501ec7',
        '46a329018c12d625889b06432cad81e620266b87501142d446370ba9249d2cb3'),
    ('cube', 'no48'): ('f0acfae2429418525204f77723152c08a4d8e2164219c77d5387dafd78868587',
        'f7ff8a90084a07603c24e0e9ab8dfa86d1d0692167a577f89ae7640484df42b0'),
    ('cube', 'no46'): ('3f0e498bd3961d7f566449ac70367a5bc78d67998216eeb4b48127effec5ff94',
        '4d987d7fa8ae7d2739f1e999a7d1fa795476017c5d0e186407070a9c9a3fce0e'),
    ('cycle:5', 'no48'): ('f2ced94fd81890da640d0c3179954cc14dbded88ced42cecdbfa279e1837d6f6',
        'b44b104fb8ebaad8a6d5521de73d828bdac44ecc56874f0b9c4668968ea8f7f7'),
    ('cycle:5', 'no46'): ('2103005e1ccc4863b93b48e3576637d5fefb98f929c7a096ed3dbd85070a3340',
        'b8b968619de1e23880dfaeb68b6c77915f03c62ec44bce12bfb117b6e1f0c29c'),
    ('cycle:7', 'no48'): ('76df25b232d4484f9e9a6c05cc0fc1a569ab61dd4414a2817fdf09e4e6f82935',
        '95f8fef758d265cc4c7c8596e2744f3ef16e4d0a7018a83169a2818917fcc06f'),
    ('cycle:7', 'no46'): ('07d8f3b2318cc40d25d3fa07bbc756bcaf6087d4bea8630c38d6d785799887ce',
        '47a5185b433f6ce920252246b2d4a1b349315dda447d213e5f246c2dc5563ff7'),
    ('cycle:9', 'no48'): ('0d3f2a53f284a75117aa98a6d842cfd18a58e0d4f2b513f37bb7af4566eacf6a',
        'fa7ddeea249016f5792e14e7bd4adfc0626b6dc9c4bdce77f1e2fa5d8db04220'),
    ('cycle:9', 'no46'): ('12cace40da33e26346a4e17500ca8f42c0c230bf5e69b859bea13c10452b16df',
        '0f6cbb7a763c00cf58472cd2ef5b85bf32a5815e69a991bf04da1d931e4feee3'),
    ('dodecahedron', 'no48'): ('f7f23d70057f71f848f619d6b3efcbc9d130bb7929c19636d745c239076d914c',
        '3ab77bdb53486fd6aaad2ddd1caabc7fc731a25b974aa849aab9c6153087f875'),
    ('dodecahedron', 'no46'): ('5db5d14265606e0839bb9ae71abe3b5c95a6af3de31bdb3c4100fe32f7b2fa2b',
        'c31708275a163ac59ffd944a26b74fc8a03f7826dac81be7c6f05329cb1af41d'),
    ('figure1', 'no48'): ('31c66fcdca1cb8f4f63e33866205dfebb2ee453b50744a1504f4b8cc5e64aa3e',
        'd8e9e1efcac295c32bcef43871baa6d67d36ff800c2aba30a29ff732f260ca57'),
    ('figure1', 'no46'): ('6867e97643b75d7ca95845ea7f3ab9437f7a4a68272b3e3ac2a0357da4a07c07',
        '1950f6cda92d7a33d66cf2e820ebe0dbeb472a650386b60fd128a9c7480bfc80'),
    ('theta:1,2,2', 'no48'): ('4b7ceb5c08fc2690325ecdb684c8cb9a5eb1c9ba1f9ca6cc2923467748534b48',
        '27cadc12659414a6b6938e94641e66c288a6b63466964af2f6e47dd1efe7dfbc'),
    ('theta:1,2,2', 'no46'): ('09dad95517d5e3e5ec67b8fa5e35b7c035799d98de195071436a61c7d8b5d474',
        'aa75bfa1a253ee1a0e45ea9f32d4c4eb53815ab498ac953007033a1c25656465'),
    ('theta:3,3,3', 'no48'): ('19d66662cf4e1451fc1d86cacc26efc8cc4861131c8f4ac1654ecfa3dff7f37c',
        'c28dcf8b445d0ee539c0f368b96bce7220d372845547f3320838823c0ed458a7'),
    ('theta:3,3,3', 'no46'): ('a75ca20eab8fb8ed80d0e2fbc1264d056d739be8cb8387d68b36b5ca6dad0717',
        '17d880bdf24fc4b6c24565951334579873d91c48f8aea4167f3ce6a3c8678499'),
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
