"""Golden CLI reports: the sha256 of every family report is pinned.

Each case runs one subcommand in-process and hashes
``json.dumps(report, sort_keys=True)`` with ``inputs.matrix_json`` removed
(that path is a temporary file).  The hashes were recorded before the cover
facts and the named families were rebuilt from a single rule, so any change
to a report, an error string or a note fails here.
"""

import hashlib
import json

import pytest

from supergeo.cli import run

COCYCLES = {
    "cotangent": {
        "0<-1": [["-1/z11^2", "0"], ["-z21/z11^2", "1/z11"]],
        "1<-2": [["1/z22", "-z12/z22^2"], ["0", "-1/z22^2"]],
        "2<-0": [["0", "-1/z20^2"], ["1/z20", "-z10/z20^2"]],
    },
    "split": {
        "0<-1": [["1/z11", "0"], ["0", "1/z11^2"]],
        "1<-2": [["1/z22", "0"], ["0", "1/z22^2"]],
        "2<-0": [["1/z20", "0"], ["0", "1/z20^2"]],
    },
    "twist2": {
        "0<-1": [["1/z11", "0"], ["0", "1/z11"]],
        "1<-2": [["1/z22", "0"], ["0", "1/z22"]],
        "2<-0": [["1/z20", "0"], ["0", "1/z20"]],
    },
}

COMMANDS = (
    ("verify-atlas",),
    ("berezinian", "--pair", "0", "1"),
    ("berezinian", "--pair", "1", "2"),
    ("berezinian", "--pair", "2", "0"),
    ("calabi-yau",),
    ("obstruction",),
    ("picard-chase",),
    ("omega-cocycle",),
)

# (family, cocycle file or None, lambda)
FAMILIES = [
    (family, cocycle, lam)
    for family, cocycle in (
        ("decomposable", None),
        ("omega1", None),
        ("generic", "cotangent"),
        ("generic", "split"),
    )
    for lam in ("0", "3/2")
] + [("pi-plane", None, "1")]


def _cases():
    cases = {}
    for family, cocycle, lam in FAMILIES:
        for cmd in COMMANDS:
            case_id = " ".join((cmd[0], *cmd[2:], cocycle or family, lam))
            cases[case_id] = (cmd[0], "--family", family, "--lambda", lam, *cmd[1:]), cocycle
    cases["pi-plane-compare"] = ("pi-plane-compare",), None
    cases["verify-atlas twist2 1"] = ("verify-atlas", "--family", "generic"), "twist2"
    return cases


CASES = _cases()

# case id -> (exit code, sha256 of the report)
GOLDEN = {
    "berezinian 0 1 cotangent 0": (0, "28fb68421eceee58c25ce70af9c66e593a3bb5a5999e8e3e5211ac0bc58b6c3d"),
    "berezinian 0 1 cotangent 3/2": (0, "972afa4961956119a068985fea248da8f9f1e962de69e31c8768b52a97a888e8"),
    "berezinian 0 1 decomposable 0": (0, "9b5a5cd4a2b63cf52c9c407229a9c62d37cf7bd01227783de1c20178d4c5ecce"),
    "berezinian 0 1 decomposable 3/2": (0, "5cdf22062d6678bbaa359b7441ca2e43449d79e16b4c14386582619b4c14178b"),
    "berezinian 0 1 omega1 0": (0, "8726c78b7c1148965c5f07f21d2379ff1ee9646cfad1eccc8c0e532f47cadeb4"),
    "berezinian 0 1 omega1 3/2": (0, "9046e2265d0e41968b449721a9b55da30d181c70c923f4aa2f4af1e523fed01a"),
    "berezinian 0 1 pi-plane 1": (0, "ad425b117e3bfb33dc70ebf4a09515b0089f5b77899d83e9a8047c237a442d9b"),
    "berezinian 0 1 split 0": (0, "818b721658d8ef3eccfca9f36750d7b8bb44d4828ba19a7ef2b64e1285cfcc9e"),
    "berezinian 0 1 split 3/2": (0, "c762355dcfff03d87df01b8c4269d9c41d1cefe7538b9d31eddd1c617b1d9592"),
    "berezinian 1 2 cotangent 0": (0, "da4e28defadb6e7ab161c8229cd032d8dc8d0d0db53f0e4b241c5882d1f65fb9"),
    "berezinian 1 2 cotangent 3/2": (0, "46d74d7348221a585ad7cb099bf29e56bb0be3cd2d343de080ea8222e9e9425d"),
    "berezinian 1 2 decomposable 0": (0, "4903cca54f500dabf11889fe3aa1ce21fecb238d0a013665f3a5b30f737f41ed"),
    "berezinian 1 2 decomposable 3/2": (0, "2eac1d72b12d225280b7dd2dd24f1c9b817c80da4bf44642e665b56add260b27"),
    "berezinian 1 2 omega1 0": (0, "da1e1b4c03c9d54f82a4f739f8122cfbadaa7c7de98176a11b8d65669a6e7576"),
    "berezinian 1 2 omega1 3/2": (0, "83165bdae22a554f6fe63f7dfe96d9602a200e04297cb91c64b7cc597a02d9fb"),
    "berezinian 1 2 pi-plane 1": (0, "b9133a1af4b8569fd4763dbbb2f7f9ed2b6309c62a78fe612d86e30cc472562a"),
    "berezinian 1 2 split 0": (0, "ca3ae76a2905f1ef1c1d122e55a7290668c46c10442506ad3ae166e50d30f574"),
    "berezinian 1 2 split 3/2": (0, "ffb9613fe51448756a17b60b821a5488d515d4394a4de14dbe2e92a020090e77"),
    "berezinian 2 0 cotangent 0": (0, "429362359288733905b92ecb783b86ca603e3258590cf910ad012f8cbd23862a"),
    "berezinian 2 0 cotangent 3/2": (0, "fac8e2a49c77de89816925f29539a4d8d76d16165f278ee7235824af62267c8f"),
    "berezinian 2 0 decomposable 0": (0, "3c352c04a056c7327b249da087c60ae07782aed8cacedb9c5671c5c756a53832"),
    "berezinian 2 0 decomposable 3/2": (0, "24f5375714290fdcc69e02fb9a8b01c898463119fae39c14428c431cc72bc686"),
    "berezinian 2 0 omega1 0": (0, "cc0386d50329b5609bcbb858255e9f8a3ce84e3e739fcae0fcf78a2656c91fca"),
    "berezinian 2 0 omega1 3/2": (0, "51cafb12e0bf2bb531c00db16b474d47698c0d5173a4e348f08e6759b2d0db7a"),
    "berezinian 2 0 pi-plane 1": (0, "6b641469e700e4f90e10b116f381dfd3f57610d59a8c81820a4f23ac418ae35f"),
    "berezinian 2 0 split 0": (0, "429362359288733905b92ecb783b86ca603e3258590cf910ad012f8cbd23862a"),
    "berezinian 2 0 split 3/2": (0, "fac8e2a49c77de89816925f29539a4d8d76d16165f278ee7235824af62267c8f"),
    "calabi-yau cotangent 0": (0, "71ba3e8792bd26f5aa72221d447883c8749639af37235495e94d10a948a56be5"),
    "calabi-yau cotangent 3/2": (0, "e25d25bb65d12b4c7a121ab08cb46c72b6883c65447b7f11f8ce7944067ed1c8"),
    "calabi-yau decomposable 0": (0, "7de6b2080f7c14c18770858f26cc5a8ab25a9cbc08604611a77429f1680bf023"),
    "calabi-yau decomposable 3/2": (0, "802f52fbf0b02f649b3c437e32e86f654ad417f206e74326a89e09b915a3a12a"),
    "calabi-yau omega1 0": (0, "a0a3e546377f9dd8a73448ae1fba428920b4b48c95e45253ce11b64983e45b81"),
    "calabi-yau omega1 3/2": (0, "0aa1b61e9d17556f929a262a5feb403eeacab969e773ff99961118a67610b43f"),
    "calabi-yau pi-plane 1": (0, "606cbd39f546c0b718db04de8c69a6ebe60fdb594863dc6d0c65a8c5a08e7447"),
    "calabi-yau split 0": (0, "19de11cdad9adeb4decc70b390858444df915f25280e0fb8f87add183bfb57ff"),
    "calabi-yau split 3/2": (0, "6ec98d13268e8eb561d8bdd586f4ca5717eb1173b0ee40cfaa5fdc92e6ecc2e3"),
    "obstruction cotangent 0": (0, "14f2e32d72d022140f561b838941aff9e0f9c596e18ade2b717043ce1315ef88"),
    "obstruction cotangent 3/2": (0, "d323ddc3474ebdca940c5eed9e6bf8c5d6c4c5e0122278908b9da536dd89d804"),
    "obstruction decomposable 0": (0, "d97a6f09af12f39e08f863e45e7b66c6bb3c6bad06cc5df1d6e88ceba4330d60"),
    "obstruction decomposable 3/2": (0, "f4c206b694b610ec84dfde2c5f9163bf950a91023321eb4e2dbb2d0592603db0"),
    "obstruction omega1 0": (0, "b86eefcf80e873d6d2a17de167cefbd00f62d2e52243b733b7744e0de8146691"),
    "obstruction omega1 3/2": (0, "a2b4f1ea2dd99bc9698ad53f0832dbd231c31b0d195fcc885a4d02e392267cde"),
    "obstruction pi-plane 1": (0, "60468746ba56e4da491abc2f9ed6f38dc70e363433a7ac1558ab5dec2d4318f3"),
    "obstruction split 0": (0, "14f2e32d72d022140f561b838941aff9e0f9c596e18ade2b717043ce1315ef88"),
    "obstruction split 3/2": (0, "d323ddc3474ebdca940c5eed9e6bf8c5d6c4c5e0122278908b9da536dd89d804"),
    "omega-cocycle cotangent 0": (0, "94e12191aa5f21faeded1c3f33899a9736b3247cb5af35781aeb5327aa4a04ae"),
    "omega-cocycle cotangent 3/2": (0, "f3b76cf15c98e746a2ab0ee0e3b674831d7408adaeb4067d1d2fff7771d0fe4d"),
    "omega-cocycle decomposable 0": (0, "19ac20f1e72fa34922110b47c2f5f57b16fb2f656abd845195af6d2edce302a5"),
    "omega-cocycle decomposable 3/2": (0, "718aa7eecfc719bda1cfcdbaacc4879917689d76191cd0376113f605c8b07556"),
    "omega-cocycle omega1 0": (0, "89ae036705af5d38e47a0c383edf0fc9cb14b51fcdc2519c0ea32dd49450c050"),
    "omega-cocycle omega1 3/2": (0, "97a222c7b2982345febd29cffc05d582e8ccc03f7ef40ab54abe14f171769565"),
    "omega-cocycle pi-plane 1": (0, "10571b1162001365e8d55f838812d25b52dfc913fe0f3e151beb876a16745f08"),
    "omega-cocycle split 0": (0, "94e12191aa5f21faeded1c3f33899a9736b3247cb5af35781aeb5327aa4a04ae"),
    "omega-cocycle split 3/2": (0, "f3b76cf15c98e746a2ab0ee0e3b674831d7408adaeb4067d1d2fff7771d0fe4d"),
    "pi-plane-compare": (0, "88a81f9d27470eae7d82c3272a13acb0576f17300da7c78fbbbec3f334342fa7"),
    "picard-chase cotangent 0": (0, "6122492574854ffcb6f10ffd8cb9d7b03d04fd6cdb8384e541e27a63aa625c67"),
    "picard-chase cotangent 3/2": (0, "e2a1d65b7b09af0d5eec0ed4debd9fc25edc706b8c4f31dada6212ae3ecaf0e4"),
    "picard-chase decomposable 0": (0, "a299ab02a6aaf716dab6201c782b02b5f6cdb556a4c696124e128d6205d52776"),
    "picard-chase decomposable 3/2": (0, "1db1e3a2cd8cb04667668eaaf9407ba575bf9bd28d35be9423c553541c1490b9"),
    "picard-chase omega1 0": (0, "ea70528cc84ad9cb8de316a3df62f587f9e231a70bb23271b27a8a3be1ad7cbe"),
    "picard-chase omega1 3/2": (0, "ef7754b9b7590896ceca63f8faf7541372e766fff07bb32f56412892b30eb172"),
    "picard-chase pi-plane 1": (0, "e7b58ad639f0a7ac87419107b973f447a2a8c6d18d0f1709aa88fd974eba7f6a"),
    "picard-chase split 0": (0, "6122492574854ffcb6f10ffd8cb9d7b03d04fd6cdb8384e541e27a63aa625c67"),
    "picard-chase split 3/2": (0, "e2a1d65b7b09af0d5eec0ed4debd9fc25edc706b8c4f31dada6212ae3ecaf0e4"),
    "verify-atlas cotangent 0": (0, "ffb3678b1e309ad9a45a6481221dc5dc0b416c9e0944f28656b39f9b75cf53c9"),
    "verify-atlas cotangent 3/2": (0, "cd75d879598baace811e30b4dbab0109734e82b25893636ded4ada7ed064eedc"),
    "verify-atlas decomposable 0": (0, "2aad0e95041246e9667dddfebb364caec254676b278074c229e2a42b571643d0"),
    "verify-atlas decomposable 3/2": (0, "216eadb60250c3894f93e4267919ee34e1d19172efb27c7af5f520c151f817d4"),
    "verify-atlas omega1 0": (0, "4ea8bc090f714c0e346aed72a17bff134dcbabf5b61d4fbc09ec716e1e242671"),
    "verify-atlas omega1 3/2": (0, "04ad8036b4cb74ac1babaf1daa9b96fa5b216131e25bed17a7845a49d68fab41"),
    "verify-atlas pi-plane 1": (0, "c53558584304e5e63e893f80abd0c4c632595b66d0bb11d426724261f6b3f925"),
    "verify-atlas split 0": (0, "733eba4cc9ed4d4d81033551c2f115c0d0f41bc03552da871bacd36d16dac55d"),
    "verify-atlas split 3/2": (0, "9906b04a0cb9d3eee3370e1616cf6505a4e7bcbbdeccd06cbcad353dcf4f3bd4"),
    "verify-atlas twist2 1": (1, "5497eb61829dfa3bcaee06b84c4ddb32b79f208510df69fea6b667d66a8215e9"),
}


def report_digest(argv, cocycle, tmp_path) -> tuple[int, str]:
    argv = list(argv)
    if cocycle is not None:
        path = tmp_path / f"{cocycle}.json"
        path.write_text(json.dumps({"matrices": COCYCLES[cocycle]}))
        argv += ["--matrix-json", str(path)]
    code, report = run(argv)
    report.get("inputs", {}).pop("matrix_json", None)
    text = json.dumps(report, sort_keys=True)
    return code, hashlib.sha256(text.encode()).hexdigest()


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_golden_report(case_id, tmp_path):
    argv, cocycle = CASES[case_id]
    assert report_digest(argv, cocycle, tmp_path) == GOLDEN[case_id]
