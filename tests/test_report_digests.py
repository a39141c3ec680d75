"""The byte contract of `uct verify` reports, pinned across versions.

Each verdict's JSON without `millis` (as in the report, indent 2) hashes to
the sha256 recorded here for the default suite plus a few Z_n specs, run
with one thread and seed 0.  A change that alters any report byte other
than `millis` fails this test; regenerate the table only for an intended,
documented change of the report.
"""

import hashlib
import json

from uct.theorem_checker import DEFAULT_SUITE_SPECS, run_suite
from uct.tri_ring import RingSpec

ZN_SPECS = tuple(RingSpec.integers_mod(m) for m in (6, 7, 9, 12, 16, 30))

VERDICT_SHA256 = {
    ("prop0.regularity", "tri:2,2,1"):
        "cd2aef116a9035577445b4ab563693191e5f061734cea1e122a0ffbad4cfb1cb",
    ("prop1.diagonal_rule", "tri:2,2,1"):
        "df89e41bd66792a437f7d5f17017f3b0cd761f570c976bfb2209ff69068fe38a",
    ("theorem1.gf2_components", "tri:2,2,1"):
        "9403b6fe432acd3d7eadce89f87b7293ddb3c4e0129be9271d9451a7448b6d45",
    ("clique.value", "tri:2,2,1"):
        "711fe7e2b991fb660339b90bcd2fb9089bbd5824d72e93dc08f5a70a16a4421d",
    ("quotient.antipodal_hamming", "tri:2,2,1"):
        "9d6aed48f8c14db169fe6fbae39ed68dd08cba0951f4eb699ab32de26f912564",
    ("prop0.regularity", "tri:3,2,1"):
        "d5c15ed648e24368aa925662da3ea80c6a894a30a4855cdfb2d921990d6ff43e",
    ("prop1.diagonal_rule", "tri:3,2,1"):
        "87b81bfb1e83cf055387f73be4213f3011bfbe3ea3b3bf4f72cbe2553c1cb566",
    ("theorem1.gf2_components", "tri:3,2,1"):
        "322193f7f089345894e9bfb9c06d2c2fd008bed3a7e402dd175ef2f987e01f51",
    ("clique.value", "tri:3,2,1"):
        "78a838df58a49de8daa967194da82035ad3b176271fc3a084b041ae09b9764fe",
    ("quotient.antipodal_hamming", "tri:3,2,1"):
        "1b58261b5e02654bd327ab075b64712a757e898cc6095bdd2b66e68a1bd05218",
    ("prop0.regularity", "tri:4,2,1"):
        "98eedea5de7e6643dc5f2d6029de2219231df376d92dba6ec31e9eaab5c3fb1f",
    ("prop1.diagonal_rule", "tri:4,2,1"):
        "de060dff33e1da736b54a075d5fed411d39f251b2d21d5b5b0b581422a76315d",
    ("theorem1.gf2_components", "tri:4,2,1"):
        "f488698c084b265f64b3e252997b5dfe9e56b434ad191492f4ae3c269de6f104",
    ("clique.value", "tri:4,2,1"):
        "ec03d20cb24c0ffc8a4372856ed08be22bc746d56c0905f897c55292b88bc6b2",
    ("quotient.antipodal_hamming", "tri:4,2,1"):
        "5491ca1a7d20bef21f761ac2bb0f8251e6552ad4b72dc50e112610a3661962cb",
    ("prop0.regularity", "tri:2,3,1"):
        "6f941cab4eaad7294a4f85a8cffe514ef167a8564e512e185674f147fe964317",
    ("prop1.diagonal_rule", "tri:2,3,1"):
        "589cfad7200fe4ee8f026dfd943781d64d4df17c7ae51031d3ee47e162e1ab05",
    ("theorem2.connectivity_diameter", "tri:2,3,1"):
        "38fc128fe9c24af602c3243119683d1debbe7eebde9307355b149122e6824a68",
    ("triameter.value", "tri:2,3,1"):
        "396ce2a95a4487c2410cf7e42fc343682c00b339b913eef80cab5a409b952567",
    ("clique.value", "tri:2,3,1"):
        "647533e972be1212e543adaf7fa927858aa598f874110b46ab05fc59c1fc0216",
    ("theorem3.semistrong_product", "tri:2,3,1"):
        "1438dae63a1fefcb1d4ce558a6833ddf6c9777ee7da44decaac75e88bb25626b",
    ("quotient.antipodal_hamming", "tri:2,3,1"):
        "0aadb4dc0ccc9b78d6a9566a5b8af5017cfb71751029e07b3d8b9f1a1d72f3b9",
    ("prop0.regularity", "tri:3,3,1"):
        "894733babdb837c41d8ac4f553bc636650d6aaef350b12f0860163be72c7ac4f",
    ("prop1.diagonal_rule", "tri:3,3,1"):
        "dea9a21f0b767ffef2bf2d9cc9e61d57d4789a381ae19b88686fb97ffc6dfc94",
    ("theorem2.connectivity_diameter", "tri:3,3,1"):
        "e2cea10e9ea5110c91b0ee6cfa872255b097bd66ae778a2ac587ee664bd43e52",
    ("triameter.value", "tri:3,3,1"):
        "1b72bc4b97677ac75a1cdc79fbab5954c8ed5568707fc772c199d372524a54b5",
    ("clique.value", "tri:3,3,1"):
        "0fa3b70bd165a5d2defc5cca50c91f46c850e45375c385ae8ccf5ed23a5f7e6d",
    ("theorem3.semistrong_product", "tri:3,3,1"):
        "61c7546a1c999f8337d5fd4354f66bcfc4f1aa26e940a386f7d91ab6463d8bf2",
    ("quotient.antipodal_hamming", "tri:3,3,1"):
        "671a5ace3e2147663ab6d20b41ed490327e57cd4faf426c6465d2a75b8c48520",
    ("prop0.regularity", "tri:2,2,2"):
        "3d7a39b123ef9ee8c69c03c3d0f2a1a3852d6927cba6f59be24455b38ff7ec8f",
    ("prop1.diagonal_rule", "tri:2,2,2"):
        "d2ba2d177308a788111be85bdad0b2fbcc136ad49fdf53c36f846048cd02236e",
    ("theorem2.connectivity_diameter", "tri:2,2,2"):
        "978e5ea67546acd24d8e357a07d5421452eb8aa1c2a66b6cbc126eef113b189d",
    ("triameter.value", "tri:2,2,2"):
        "729e480d72baddbea9a810e8e771be480252c9f452ac4a82d9e33b99a60955b7",
    ("clique.value", "tri:2,2,2"):
        "451c898876721b524c0ee6a92f303b4b0291aaa4a03489c4f6064f58125fe08c",
    ("theorem3.semistrong_product", "tri:2,2,2"):
        "c6008aae23d32f1cf133307eac2785b9fa85a0e5224f84bca63f343a7189b741",
    ("quotient.antipodal_hamming", "tri:2,2,2"):
        "850def7ebd2dbf1ee6fe1d975ba12c82b7d3f1caff6bfabfb0318c91c651e756",
    ("prop0.regularity", "tri:2,5,1"):
        "5525ce83dfbe13bc3d196cf071e6c6ff3cad031857322138b6a9d32c39b402b7",
    ("prop1.diagonal_rule", "tri:2,5,1"):
        "2409fbe02835b754d8e5828ad92524c1af1928b5f1c6d860db214c21d292c561",
    ("theorem2.connectivity_diameter", "tri:2,5,1"):
        "1db65b854a1e8e5272b5c48e9d4d64101dd87c454cfb050aa728e81f23b1a328",
    ("triameter.value", "tri:2,5,1"):
        "a3fa2770231e50cb87c69086988aa1e64a9e3cf7a90ef9660e5e62068aa90b27",
    ("clique.value", "tri:2,5,1"):
        "27e8934d675c4eefa3409989409ef03706fbdbd3c5f869893e369a99f3e99976",
    ("theorem3.semistrong_product", "tri:2,5,1"):
        "2ec80fc1dc952b3ef4a29c41a7f1f286517637f8a2852e645766a8454d845516",
    ("quotient.antipodal_hamming", "tri:2,5,1"):
        "bb290d75659c00f768d13f191e65ead8192c0a7030927a28a059b6568be6a9c0",
    ("zn.baselines", "zn:6"):
        "a30b8b9d361f7929888f2f028069441050b226490d77bca32475e162518d762e",
    ("zn.baselines", "zn:7"):
        "03088d1284184cc68daaa3f1fd8914949ff8d347e4eea65e41e8b1cef312a4ab",
    ("zn.baselines", "zn:9"):
        "2724bb97b40e8a8c6c443f97cb7323d8147702b8f89bff9a535d171e8d93e00a",
    ("zn.baselines", "zn:12"):
        "ffaa3b13a349a1743a4a3b3904e4901761a71eaea0778c06e100c86075979de2",
    ("zn.baselines", "zn:16"):
        "0581f6f000c98d1fae5ff59a6e2520887f57a70fd9cffd3125e61139ee2dadf5",
    ("zn.baselines", "zn:30"):
        "71a3776f8656e850107625c21dcb8aa57b86fefc86653028c662d61322ba4e7e",
}


def test_verdict_bytes_match_pinned_digests():
    verdicts = run_suite(list(DEFAULT_SUITE_SPECS) + list(ZN_SPECS), seed=0)
    got = {}
    for v in verdicts:
        fields = v.to_json()
        del fields["millis"]
        text = json.dumps(fields, indent=2)
        got[(v.claim_id, v.spec)] = hashlib.sha256(text.encode()).hexdigest()
    assert got == VERDICT_SHA256
