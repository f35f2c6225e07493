import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabfold
from stabfold.claims import CLAIMS
from stabfold.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_dims_text_and_values(capsys):
    code, out = run(capsys, "dims")
    assert code == 0
    assert "247552" in out and "6710912" in out and "33554432" in out
    assert "152" in out and "7736" in out


def test_dims_json_deterministic(capsys):
    code1, js1 = run_json(capsys, "dims", "--n-max", "3")
    code2, js2 = run_json(capsys, "dims", "--n-max", "3")
    assert code1 == code2 == 0
    assert js1 == js2
    assert js1["rows"][0]["cc"] == 2
    assert js1["rows"][2]["fsc"] == 176


def test_dims_csv(capsys):
    code = main(["dims", "--n-max", "2", "--format", "csv"])
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n,p,cc,fsc,full,cc_q,fsc_q,full_q"
    assert "2,11,8,8,16,2,2,4" in out


def test_betti_ravenel_full_n2(capsys, tmp_path):
    code, js = run_json(capsys, "betti", "--lie", "ravenel", "--complex", "full",
                        "--n", "2", "--p", "11", "--cache-dir", str(tmp_path))
    assert code == 0
    assert js["grand_total"] == 12


def test_betti_gl_cc_n3(capsys, tmp_path):
    code, js = run_json(capsys, "betti", "--lie", "gl", "--complex", "cc",
                        "--n", "3", "--p", "7", "--cache-dir", str(tmp_path))
    assert code == 0
    assert js["grand_total"] == 8
    assert js["totals_by_degree"] == {
        "0": 1, "1": 1, "3": 1, "4": 1, "5": 1, "6": 1, "8": 1, "9": 1
    }


def test_betti_ravenel_cc_n3_p19(capsys, tmp_path):
    code, js = run_json(capsys, "betti", "--lie", "ravenel", "--complex", "cc",
                        "--n", "3", "--p", "19", "--cache-dir", str(tmp_path))
    assert code == 0
    assert js["grand_total"] == 8


def test_betti_cache_roundtrip_identical(capsys, tmp_path):
    argv = ["betti", "--lie", "ravenel", "--complex", "full", "--n", "2",
            "--p", "11", "--cache-dir", str(tmp_path), "--format", "json"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    # second run is served from the cache and must be byte-identical
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    cached = json.loads(files[0].read_text())
    assert cached["schema_version"] == 1


def test_betti_rejects_bundle_epsilon(capsys):
    code = main(["betti", "--lie", "ravenel", "--n", "2", "--p", "11",
                 "--epsilon", "x"])
    assert code == 2


def test_betti_size_gate(capsys):
    code = main(["betti", "--lie", "ravenel", "--n", "4", "--p", "37",
                 "--no-cache"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--slow" in err


def test_verify_unknown_suite(capsys):
    assert main(["verify", "bogus"]) == 2
    assert f"available: {', '.join(sorted(CLAIMS))}" in capsys.readouterr().err
    # the help text lists the registry's names (argparse may wrap the line)
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = "".join(capsys.readouterr().out.split())
    assert "oneof:" + ",".join(sorted(CLAIMS)) in help_text


def test_verify_tables(capsys):
    code, js = run_json(capsys, "verify", "tables")
    assert code == 0
    assert js["ok"]
    assert len(js["checks"]) == 6


def test_verify_dd_zero_n2(capsys):
    code, js = run_json(capsys, "verify", "dd-zero", "--n", "2")
    assert code == 0 and js["ok"]
    names = [c["name"] for c in js["checks"]]
    assert any("bundle" in n for n in names)


def test_verify_containment_n4_p2(capsys):
    code, js = run_json(capsys, "verify", "containment", "--n", "4", "--p", "2")
    assert code == 0 and js["ok"]


def test_verify_model_kernel_n2(capsys):
    code, js = run_json(capsys, "verify", "model-kernel", "--n", "2")
    assert code == 0 and js["ok"]


def test_verify_model_kernel_reports_a_kernel_that_is_not_closed(capsys, monkeypatch):
    # a kernel missing one d-target of a degree-2 kernel monomial: both
    # checks fail, the quasi-isomorphism check unrun, with no traceback
    from stabfold import retract
    from stabfold.exterior import degree
    from stabfold.gf import field_create, primitive_root_of_unity
    from stabfold.ravenel import build_gl

    f = field_create(7)
    cx = build_gl(3, f, 7)
    h, _ = retract.lambda_h_pair(cx, primitive_root_of_unity(f, 3))
    kern = retract.kernel_masks(cx, [retract.laplacian(cx, h)])
    target = min(t for m in kern if degree(m) == 2 for t in cx.d_monomial(m) if t in kern)
    monkeypatch.setattr(retract, "kernel_masks",
                        lambda *a: [m for m in kern if m != target])
    code = main(["verify", "model-kernel", "--n", "3", "--p", "7"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "[FAIL] ker(dh+hd) equals the critical complex of gl_3" in out
    assert "[FAIL] inclusion is a quasi-isomorphism" in out
    assert "Traceback" not in out + err


def test_verify_collapse_n2(capsys):
    code, js = run_json(capsys, "verify", "collapse", "--n", "2")
    assert code == 0 and js["ok"]


def test_verify_invariant_cycles_n2(capsys):
    code, js = run_json(capsys, "verify", "invariant-cycles", "--n", "2")
    assert code == 0 and js["ok"]


def test_verify_invariant_cycles_n3(capsys):
    # n = 3 is where FSC at eps=0 and at eps=1 differ (56 against 8)
    code, js = run_json(capsys, "verify", "invariant-cycles", "--n", "3")
    assert code == 0 and js["ok"]


def test_presentations_all_heights(capsys):
    for n in ("1", "2", "3"):
        code, js = run_json(capsys, "presentations", "--n", n)
        assert code == 0, f"height {n}"
        assert js["ok"], f"height {n}"


def test_presentations_rejects_n4(capsys):
    assert main(["presentations", "--n", "4"]) == 2


# sha256 of the stdout of `presentations` in --format text and --format json:
# these outputs change only on purpose
PRESENTATIONS_DIGESTS = [
    (["--n", "1"],
     "30a7d8e2aeee9f40a7de6894d397efeffa378480e0e125f9d435c9852082739e",
     "ccd564efe42808a4373cab972143ee3286228b8c02c0b3e5d78c7a167877acef"),
    (["--n", "2"],
     "fdf04bf9229444096f45ba717d1f5bc5337e4f9ca447b594c9251df03c4724b8",
     "b85ee4db7b01e2fea161fad450c90b668deca123f522c23eef10c9bc4169b9d0"),
    (["--n", "3"],
     "f3921f32aede427353bd0d0a7bd8c873ea09790f3615491612f2dd66dea8914c",
     "f148a5b9c34f161f6e7ebc7b768c4f3df01dde576b0d118bfb099ed3a6825dda"),
    (["--n", "3", "--p", "2"],
     "f14cb6ec61f6f9546512339d3e505a5575a0e9b4041cd814d138e0fece2ef082",
     "b3688616cb04c7ec2552e70f0e131e65fe5b763618bb55cf80a9e498d13eeed2"),
]


@pytest.mark.parametrize("flags,text_digest,json_digest", PRESENTATIONS_DIGESTS,
                         ids=[" ".join(f) for f, _, _ in PRESENTATIONS_DIGESTS])
def test_presentations_outputs_are_pinned(capsys, flags, text_digest, json_digest):
    for fmt, digest in (("text", text_digest), ("json", json_digest)):
        assert main(["presentations"] + flags + ["--format", fmt]) == 0
        captured = capsys.readouterr()
        assert not captured.err
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest, fmt


def test_presentations_catch_a_wrong_x_power(capsys, monkeypatch):
    # d(kappa1) = -L1 - x L2; with x^0 on L2 the stated formula still holds
    # at x = 1, but not at x = 0, so the check must not rest on one fiber
    from stabfold import cli

    real = cli.load_fixtures

    def planted():
        fixtures = real()
        terms = fixtures["presentations"]["3"]["differentials"]["kappa1"]
        assert [-1, 1, "L2"] in terms
        terms[terms.index([-1, 1, "L2"])] = [-1, 0, "L2"]
        return fixtures

    monkeypatch.setattr(cli, "load_fixtures", planted)
    code, js = run_json(capsys, "presentations", "--n", "3")
    assert code == 1 and not js["ok"]
    failed = {c["name"] for c in js["checks"] if not c["ok"]}
    assert failed == {"d(kappa1) matches the stated formula"}


def test_pages_critical_collapse(capsys):
    code, js = run_json(capsys, "pages", "--n", "2", "--p", "11")
    assert code == 0
    assert js["collapse_page"] == 1
    assert js["notes"]["e_infinity_matches_betti"]


def test_pages_full_has_differentials(capsys):
    code, js = run_json(capsys, "pages", "--n", "2", "--p", "11",
                        "--block", "full")
    assert code == 0
    assert any(row["rank_out"] for row in js["pages"])


def test_monodromy_sigma_core(capsys):
    code, js = run_json(capsys, "monodromy", "--n", "2", "--p", "11",
                        "--flavor", "sigma")
    assert code == 0
    assert js["closed"] and js["homogeneous"]
    assert js["collapse_page"] == 1


def test_monodromy_semilinear_core_witness(capsys):
    code, js = run_json(capsys, "monodromy", "--n", "3", "--p", "7",
                        "--flavor", "semilinear")
    assert code == 0
    assert not js["homogeneous"]
    assert js["witness"]["source"].startswith("h[3,")
    assert not js["closed"]


def test_monodromy_medial(capsys):
    code, js = run_json(capsys, "monodromy", "--n", "1", "--p", "5",
                        "--flavor", "sigma", "--which", "medial")
    assert code == 0
    rows = {(r["s"], r["t"]): r["dim"] for r in js["pages"]}
    assert rows[(1, -1)] == 1
    assert rows[(0, 0)] == 1


def test_monodromy_custom_params(capsys, tmp_path):
    spec = {"params": [
        {"i": i, "j": j, "num": -i, "den": 2} for i in (1, 2) for j in (1, 2)
    ]}
    path = tmp_path / "conn.json"
    path.write_text(json.dumps(spec))
    code, js = run_json(capsys, "monodromy", "--n", "2", "--p", "11",
                        "--flavor", "custom", "--params", str(path))
    assert code == 0
    # these parameters reproduce the sigma flavor, so the core is homogeneous
    assert js["homogeneous"]


# sha256 of the --format json stdout of `monodromy`: these payloads change
# only on purpose
MONODROMY_DIGESTS = [
    (["--n", "1", "--p", "5"],
     "6c07882e29dccfae7adfc7ce437cd125472bd2c749c13f0752d88685dbaacd69"),
    (["--n", "2", "--p", "11"],
     "7dfc61d4fd6cf8864833f739cc6b94278a190ea539d7d74bd2828824216b8fca"),
    (["--n", "3", "--p", "7"],
     "287584e725585761510c6f3c07c7f3a1482137525568e27f0dcc975898341311"),
    (["--n", "1", "--p", "5", "--which", "medial"],
     "080b5fd811de610857508621f40bb67cdb860bf38695ed0598c5c2829de92e9e"),
    (["--n", "2", "--p", "11", "--which", "medial"],
     "44e5c4da84b03b0af5820dfe0c2b3cf2ca2628534241b204803bfc2a4ee2c348"),
    (["--n", "2", "--p", "11", "--flavor", "semilinear"],
     "5a230c3934c12ac8643d6c26575f98abc18ec973d4d9532eb5ee8740a615a265"),
    (["--n", "3", "--p", "7", "--flavor", "semilinear"],
     "2a2e13c185f9961716f1b662adeac28fcec841adc4b0bb176aed59e92fa3fbe9"),
    (["--n", "2", "--p", "11", "--flavor", "semilinear", "--t-report", "2"],
     "83480318b3a273e20280230789ba70b1f4d1d593ecb72d7c94c909c23f2a0bea"),
]


@pytest.mark.parametrize("flags,digest", MONODROMY_DIGESTS,
                         ids=[" ".join(f) for f, _ in MONODROMY_DIGESTS])
def test_monodromy_json_payloads_are_pinned(capsys, flags, digest):
    assert main(["monodromy"] + flags + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `verify` in --format json and --format text; every
# run exits 0 with nothing on stderr. These outputs change only on purpose
VERIFY_DIGESTS = [
    (["tables"],
     "c8e34244eb19f2f258f0c86c56cdb89ead18de3f6287bf0d5d7ccb3715793054",
     "a12b6b9ed2ee26747ddf8c5a44ca0b47106cbaf0472353ff591ce43aeb8d790b"),
    (["transport"],
     "e0a8e90f109f71464dbaaea10fe36bcfa418c4e05c2191a78140d204655289f2",
     "bb0fd1974eb2ad9f03453e3c1a0c8a78b7c6f1a042035110f4a27dd725a653b1"),
    (["monodromy-fixed"],
     "bf0a52bcf54f83d2b4540a5a45145d645a9a8fb34594d07ed52cac44df374266",
     "25be912b8f0db519dd2c52b1921ead73ab5f4a57e12a1a86429adcbdf057a81e"),
    (["core-homogeneity"],
     "b3dc4b375422f96c20bfcf31e90e080a1ca3f7f166c4ad7876a13e28f3c0e8d1",
     "17623f311e49f988b951f0a110d2864ff882a778c2860c6fa3631e9cd6cc8309"),
    (["dd-zero", "--n", "2"],
     "c11c03fe0e20464db878a321b2670202afbe0c8bf309f0510b18254afe41cab6",
     "4c20d88ed9894d7ccd326d7a5d7226beade29728f1e826b00bb9796182f1dda1"),
    (["dd-zero", "--n", "3"],
     "6d16ea8d58171481680a1ac18a07e284d290ba20fe43223932468119a78bc9fd",
     "8fe626f17f538239635d2d2a9fee487ae52d9935b9d05da6deee36aae733c325"),
    (["containment"],
     "74ce094a7401f6da24c5c494aebc9f4e18e0173c7db9074a6fd624c1a41553f7",
     "dd0dad383925f4dd5f9a8c7bd545951f6d6f16f2c545a658eb724f13dfb149a9"),
    (["containment", "--n", "3", "--p", "7"],
     "866dc137ec9cc9d1865039dffcd7ce0f7130c2cadada0e7e9c5db6d25762269d",
     "4fff97b597066501b867dbde28b9d33852b9d08689b6cb747fe7bb502299cbcc"),
    (["model-kernel", "--n", "2"],
     "86e5db193140444e325925e8222bc34fee0186ed5206ff12c1c95aeece7fb5b5",
     "741eacab5454918b177cc9f961d98f8ade9f6e2b47e23f279d7e449a4f473c8f"),
    (["model-kernel", "--n", "3"],
     "5625ffd816a4c6cd815575d2512b94aba5d829f05b43e43eb9dd40a931dd4312",
     "8f8aa06dd9e7f98e01a12fc96ef0290dd95991808d3569d76e513482c2468284"),
    (["model-kernel", "--n", "4"],
     "7a2da4fbdceebff5d792fbc86ecb0d894629069b61911ca161996ed781060215",
     "6dbaf7509c1a926581f7684353d815e0c43dcbe7970bdcc62cc877571d474a6e"),
    (["collapse", "--n", "2"],
     "d69d866c7cfc61a4c9a15dafe34b8e29da4131d5b54a4dada8611f439dda3d8b",
     "41b53ac19cdb4455cc3926838cbcdd378591ecaf950db1eb72ac5742f80ae7ac"),
    (["collapse", "--n", "3"],
     "959093217790f5d0be9837ea1611b2c53a3782020174b676af581781ae820471",
     "00aa6380b30e71e79160eac89a3da125fd01e03390661b1adfb776048858340e"),
    (["invariant-cycles", "--n", "2"],
     "900b045c59c93d8c90851fe7ff56b7e854da4e3b363aa876a15281c43e8f68e1",
     "8736255f8942a04e7be67a4d6520d7e0996838f9039f9134aa6a40e936a8cd3b"),
    (["invariant-cycles", "--n", "3"],
     "9107c63a0816897419253004beb551d8dd73f95f56e144d44ae7721e29bea714",
     "2ac551d6ca37aa0166aedfe5d01d1021f63dc22be2a9e4004aafa4b119ee8557"),
    (["duality", "--n", "2"],
     "9ca3648033149c5b4edbe389dc2ef8dc0d255f38debadb09a7339d385b5ca178",
     "7c611902b180455956b8334212cee01fd4680613f0ac7685ca8a5a46f7bea5a1"),
    (["duality", "--n", "3"],
     "023b87c3efbda054c6e7085b42b388552dd68b08f8b7c687b7b373fb568a459c",
     "f43c64abfe001a29f70989b1b56c8543ca81ab87be776f89a0f9a26251c3f55b"),
]


@pytest.mark.parametrize("flags,json_digest,text_digest", VERIFY_DIGESTS,
                         ids=[" ".join(f) for f, _, _ in VERIFY_DIGESTS])
def test_verify_outputs_are_pinned(capsys, flags, json_digest, text_digest):
    for fmt, digest in (("json", json_digest), ("text", text_digest)):
        assert main(["verify"] + flags + ["--format", fmt]) == 0
        captured = capsys.readouterr()
        assert not captured.err
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest, fmt


# sha256 of the --format json stdout of `betti --no-cache`.  They cover one
# cleared elimination per σ-orbit below the middle degree with the ranks
# above it copied from the dual blocks (n = 2 at p = 11, n = 3 at p = 19,
# n = 4 at p = 37, gl_3 at p = 7), at primes large and small against n
# (n = 3 at p = 5 and p = 2).  These payloads change only on purpose
BETTI_DIGESTS = [
    (["--lie", "ravenel", "--n", "2", "--p", "11"],
     "7e13112d8b3caa8fc681daf6153c5ebe8b9ce4dc907a2b503045e3ea2b114aac"),
    (["--lie", "ravenel", "--n", "3", "--p", "19"],
     "116411568d9fc345612ebd1f38c733d9ca940cdf9a7af5b698bc607b512007d3"),
    (["--lie", "ravenel", "--n", "3", "--p", "5"],
     "4b86831da88759887fcd56927a130f769be46de44fd384639cb4896dec95dbcc"),
    (["--lie", "ravenel", "--n", "3", "--p", "2"],
     "41b358b50724a475c38e62028d1d7bd11bff4447b7d62edc3d8edebe2b18eba5"),
    (["--lie", "ravenel", "--n", "4", "--p", "37", "--epsilon", "0", "--slow"],
     "b3194eb02f90b367c4f11850c165acc7f1e05eaf9157794cc99e01a8b9b814ed"),
    (["--lie", "ravenel", "--n", "4", "--p", "37", "--epsilon", "1", "--slow"],
     "987b61ab8d662217888ef5aca0eac6458915925c384ae4de2f03e8e32e884cab"),
    (["--lie", "ravenel", "--complex", "cc", "--n", "4", "--p", "37", "--epsilon", "0"],
     "2369a066ed04bc9b423263f0c743fbe2edb1ae15157e9649fa88cf776e5f3815"),
    (["--lie", "ravenel", "--complex", "cc", "--n", "4", "--p", "37", "--epsilon", "1"],
     "f68f0238c52ce4d341458d23c23b600f682fdd3e8669fe7b39c955639205d0de"),
    (["--lie", "ravenel", "--complex", "fsc", "--n", "4", "--p", "37", "--epsilon", "0"],
     "5b17201cfb784ce4c7078fc74763012c51b91075d7f7483f0bf552ba0f8503ae"),
    (["--lie", "ravenel", "--complex", "fsc", "--n", "4", "--p", "37", "--epsilon", "1"],
     "e8a7c5bfc0d6bdadc0654224d9ae8b3209d094bdbaf04453dc681c5791ec2dca"),
    (["--lie", "gl", "--n", "3", "--p", "7"],
     "6115713a9deba0b01d7341427f88b5e09e2ceaf28b9913a973da276a2d0a5fdf"),
]


@pytest.mark.parametrize("flags,digest", BETTI_DIGESTS,
                         ids=[" ".join(f) for f, _ in BETTI_DIGESTS])
def test_betti_json_payloads_are_pinned(capsys, flags, digest):
    assert main(["betti"] + flags + ["--no-cache", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert not captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def _connection_file(tmp_path, n, values):
    """A --params file: values maps (i, j) to (num, den), absent means 0."""
    path = tmp_path / "conn.json"
    path.write_text(json.dumps({"params": [
        _params(i, j, *values.get((i, j), (0, 1)))
        for i in range(1, n + 1) for j in range(1, n + 1)]}))
    return str(path)


@pytest.mark.parametrize("n,p,flavor,which,values,message", [
    # h[2,1] is fixed, but d(h[2,1]) reaches h[1,1]h[1,2] of parameter 1/2
    (2, 11, "custom", "core", {(1, 2): (1, 2)}, "d(h[2,1]) reaches h[1,1]h[1,2]"),
    (2, 11, "semilinear", "medial", None, "not preserved"),
    (3, 7, "semilinear", "medial", None, "not preserved"),
    (2, 11, "custom", "medial", {(i, j): (1, 1) for i in (1, 2) for j in (1, 2)},
     "nonpositive parameters"),
])
def test_monodromy_refusals_exit_2_with_a_message(capsys, tmp_path, n, p, flavor,
                                                  which, values, message):
    argv = ["monodromy", "--n", str(n), "--p", str(p), "--flavor", flavor,
            "--which", which]
    if values is not None:
        argv += ["--params", _connection_file(tmp_path, n, values)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert not captured.out
    if which == "medial":
        # the first term off weight is named, as core_homogeneity finds it
        assert "first term off weight: d(" in captured.err


@pytest.mark.parametrize("eps", ["0", "1", "3", "x"])
def test_betti_gl_refuses_epsilon(capsys, eps):
    # gl_n has no deformation parameter, so a given --epsilon would be ignored
    code = main(["betti", "--lie", "gl", "--n", "2", "--p", "7", "--epsilon", eps,
                 "--no-cache"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "takes no --epsilon" in captured.err


def test_betti_gl_config_still_hashes_epsilon_0(capsys):
    from stabfold.cli import SCHEMA_VERSION, config_hash

    code, js = run_json(capsys, "betti", "--lie", "gl", "--n", "2", "--p", "7",
                        "--no-cache")
    assert code == 0
    assert js["config_hash"] == config_hash({
        "cmd": "betti", "lie": "gl", "complex": "full", "n": 2, "p": 7,
        "ext": 1, "epsilon": "0", "schema_version": SCHEMA_VERSION})


@pytest.mark.parametrize("argv", [
    ["betti", "--lie", "ravenel", "--n", "2", "--p", "10"],
    ["betti", "--lie", "ravenel", "--n", "2", "--p", "11", "--ext", "0"],
    ["betti", "--lie", "ravenel", "--n", "2", "--p", "11", "--epsilon", "abc"],
    ["betti", "--lie", "ravenel", "--n", "0", "--p", "11"],
    ["betti", "--lie", "ravenel", "--n", "6", "--p", "73"],
    ["pages", "--n", "2", "--p", "9"],
    ["monodromy", "--n", "7", "--p", "11"],
    ["verify", "collapse", "--n", "9"],
    ["dims", "--threads", "2"],
    ["verify", "dd-zero", "--threads", "2"],
    ["dims", "--n-max", "9"],
    ["dims", "--n-max", "0"],
    ["pages", "--n", "2", "--p", "11", "--r-max", "0"],
    ["monodromy", "--n", "2", "--p", "11", "--t-report", "-3"],
    # only betti reads a cache, and only dims and betti write csv
    ["verify", "tables", "--format", "csv"],
    ["presentations", "--n", "2", "--format", "csv"],
    ["dims", "--cache-dir", "x"],
    ["pages", "--n", "2", "--p", "11", "--cache-dir", "x"],
])
def test_bad_arguments_exit_2_with_message(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_a_large_p_is_decided_at_once():
    # a prime near 10^18 is accepted and the semiprime 1000000007 * 1000000009
    # refused, each within a second or so; p >= 2^64 is refused outright.  A
    # subprocess, so that a primality test that never ends fails the test
    env = dict(os.environ, PYTHONPATH=str(Path(stabfold.__file__).parents[1]))

    def stabfold_cli(*argv):
        return subprocess.run([sys.executable, "-m", "stabfold.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    assert stabfold_cli("dims", "--n-max", "1", "--p", "1000000000000000003").returncode == 0
    for p, why in (("1000000016000000063", "must be a prime"),
                   (str(1 << 64), "must be 2..")):
        proc = stabfold_cli("betti", "--lie", "ravenel", "--n", "2", "--p", p)
        assert proc.returncode == 2 and why in proc.stderr
        assert "Traceback" not in proc.stderr


def test_a_field_far_above_the_limit_is_refused_in_one_line(capsys):
    # 2^100000 is not written out in the message
    assert main(["betti", "--lie", "ravenel", "--n", "2", "--p", "2",
                 "--ext", "100000", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "2^16" in err and err.count("\n") == 1


def _params(i, j, num, den):
    return {"i": i, "j": j, "num": num, "den": den}


SIGMA_2 = [_params(i, j, -i, 2) for i in (1, 2) for j in (1, 2)]


@pytest.mark.parametrize("content,message", [
    (None, "needs --params"),
    ("missing", "cannot read"),
    ("{not json", "malformed"),
    (json.dumps([1, 2]), "malformed"),
    (json.dumps({"parameters": SIGMA_2}), "malformed"),
    (json.dumps({"params": [{"i": 1, "j": 1, "num": 1}] + SIGMA_2[1:]}), "malformed"),
    (json.dumps({"params": [_params(1, 1, 1, 0)] + SIGMA_2[1:]}), "malformed"),
    (json.dumps({"params": SIGMA_2[:3]}), "malformed"),
    (json.dumps({"params": [_params(3, 1, 1, 2)] + SIGMA_2[1:]}), "malformed"),
    ("sigma", "needs --flavor custom"),
    ("semilinear", "needs --flavor custom"),
])
def test_bad_params_file_exits_2_with_message(capsys, tmp_path, content, message):
    # no file, a missing file, bad JSON, a list, missing keys, a zero
    # denominator, too few parameters, a subscript out of range; and a good
    # file given to a built-in flavor, which would ignore it
    flavor = "custom"
    if content in ("sigma", "semilinear"):
        flavor, content = content, json.dumps({"params": SIGMA_2})
    argv = ["monodromy", "--n", "2", "--p", "11", "--flavor", flavor]
    if content is not None:
        path = tmp_path / "conn.json"
        if content != "missing":
            path.write_text(content)
        argv += ["--params", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert not captured.out


@pytest.mark.parametrize("suite", [
    pytest.param("invariant-cycles", marks=pytest.mark.slow),
    "collapse",
])
def test_verify_suites_pass_at_n4(capsys, suite):
    # invariant-cycles takes about 9 s on a 2-core machine, run with -m slow;
    # collapse under 1 s, since run_pages pairs each block in one pass
    code, js = run_json(capsys, "verify", suite, "--n", "4")
    assert code == 0 and js["ok"]


def test_verify_duality_covers_every_block_at_n4(capsys):
    # betti copies the upper-half ranks across Poincaré duality: the claim
    # eliminates every block of the full, critical and first-subscript
    # complexes at n = 4, p = 37, eps = 0 and 1, and says so
    code, js = run_json(capsys, "verify", "duality", "--n", "4")
    assert code == 0 and js["ok"]
    assert [c["detail"] for c in js["checks"]] == [
        "exhaustive, 1,929 blocks", "exhaustive, 17 blocks", "exhaustive, 495 blocks"] * 2


def test_closed_form_basis_sizes_match_enumeration():
    from stabfold.cli import basis_size, build_complex

    for n, p in ((1, 3), (2, 11), (3, 19), (3, 7)):
        for lie in ("ravenel", "gl"):
            for label in ("full", "cc", "fsc"):
                cx = build_complex(lie, label, n, p)
                assert basis_size(label, n, p) == cx.dim(), (lie, label, n, p)


def test_betti_size_gate_n5_is_immediate(capsys):
    import time

    for label in ("full", "cc", "fsc"):
        t0 = time.perf_counter()
        code = main(["betti", "--lie", "ravenel", "--complex", label,
                     "--n", "5", "--p", "53", "--no-cache"])
        assert code == 2 and time.perf_counter() - t0 < 5
        assert "--slow" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["1", "5"])
def test_model_kernel_unsupported_height_is_a_usage_error(capsys, n):
    code = main(["verify", "model-kernel", "--n", n])
    captured = capsys.readouterr()
    assert code == 2
    assert "2, 3, 4" in captured.err and "Traceback" not in captured.err
    assert "[FAIL]" not in captured.out


@pytest.mark.parametrize("n,p", [("3", "3"), ("2", "2"), ("4", "2")])
def test_model_kernel_with_p_dividing_n_is_a_usage_error(n, p):
    # GF(p^m) has no primitive d-th root of unity for p | d; run in a
    # subprocess so that a search for one that never ends fails the test
    env = dict(os.environ, PYTHONPATH=str(Path(stabfold.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "stabfold.cli", "verify", "model-kernel",
         "--n", n, "--p", p], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "primitive" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("suite", [name for name, claim in CLAIMS.items() if claim.fixed])
@pytest.mark.parametrize("flags", [["--n", "2"], ["--p", "7"], ["--n", "2", "--p", "7"]])
def test_fixed_suites_refuse_height_and_prime(capsys, suite, flags):
    code = main(["verify", suite] + flags)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "takes no --n or --p" in captured.err


@pytest.mark.parametrize("argv", [
    ["pages", "--n", "5", "--p", "53"],
    ["pages", "--n", "5", "--p", "53", "--block", "full"],
    ["verify", "collapse", "--n", "5"],
    ["verify", "invariant-cycles", "--n", "5"],
    ["monodromy", "--n", "5", "--p", "53"],
    ["verify", "dd-zero", "--n", "5"],
    ["verify", "duality", "--n", "5"],
])
def test_height5_enumeration_refused_at_once(capsys, argv):
    import time

    t0 = time.perf_counter()
    code = main(argv)
    assert code == 2 and time.perf_counter() - t0 < 5
    captured = capsys.readouterr()
    assert "ROADMAP item 3" in captured.err and not captured.out


def test_verify_dd_zero_reports_a_flipped_sign(capsys, monkeypatch):
    from stabfold import ravenel

    from oracles import flipped_sign_table

    real = ravenel.generator_pair_table
    faulty = flipped_sign_table(real(2))  # an eps term of d(h[1,1])
    monkeypatch.setattr(ravenel, "generator_pair_table",
                        lambda n: faulty if n == 2 else real(n))
    code, js = run_json(capsys, "verify", "dd-zero", "--n", "2")
    assert code == 1 and not js["ok"]
    failed = {c["name"] for c in js["checks"] if not c["ok"]}
    assert failed == {f"dd=0 n=2 p={p} {what} (exhaustive)"
                      for p in (11, 13) for what in ("eps=1", "bundle")}
    code, out = run(capsys, "verify", "dd-zero", "--n", "2")
    assert code == 1 and "[FAIL] dd=0 n=2 p=11 eps=1" in out


def test_verify_dd_zero_reports_a_sign_mask_without_the_generators_below_g(
        capsys, monkeypatch):
    from stabfold import ravenel

    from oracles import below_dropped_terms

    real = ravenel.term_table
    monkeypatch.setattr(ravenel, "term_table",
                        lambda pairs, eps: below_dropped_terms(real(pairs, eps)))
    code, js = run_json(capsys, "verify", "dd-zero", "--n", "3")
    assert code == 1 and not js["ok"]
    assert not any(c["ok"] for c in js["checks"])
    assert {c["name"] for c in js["checks"]} == {
        f"dd=0 n=3 p={p} {what} (exhaustive)"
        for p in (19, 23) for what in ("eps=0", "eps=1", "bundle")}


def test_version_defined_once():
    import stabfold
    from stabfold import cli

    assert cli.VERSION == stabfold.__version__


BETTI_N2 = ["betti", "--lie", "ravenel", "--n", "2", "--p", "11",
            "--format", "json"]


def _counting_betti(monkeypatch):
    from stabfold import cli

    calls = []
    real = cli.betti

    def counted(cx):
        calls.append(cx)
        return real(cx)

    monkeypatch.setattr(cli, "betti", counted)
    return calls


def _edit_entry(tmp_path, edit):
    (path,) = tmp_path.glob("*.json")
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("edit", [
    lambda d: d.update(schema_version=0),
    lambda d: d["config"].update(p=13),
    lambda d: d.pop("config"),
    lambda d: d.update(fingerprint="0" * 64),
    lambda d: d.pop("fingerprint"),
], ids=["schema", "config", "no-config", "fingerprint", "no-fingerprint"])
def test_betti_cache_rejects_stale_entries(capsys, tmp_path, monkeypatch, edit):
    argv = BETTI_N2 + ["--cache-dir", str(tmp_path)]
    main(argv)
    first = capsys.readouterr().out
    calls = _counting_betti(monkeypatch)
    main(argv)
    assert not calls and capsys.readouterr().out == first  # a hit
    _edit_entry(tmp_path, edit)
    main(argv)
    assert len(calls) == 1 and capsys.readouterr().out == first  # a miss


def test_betti_cache_rejects_unreadable_entry(capsys, tmp_path, monkeypatch):
    argv = BETTI_N2 + ["--cache-dir", str(tmp_path)]
    main(argv)
    first = capsys.readouterr().out
    (path,) = tmp_path.glob("*.json")
    path.write_text("{not json")
    calls = _counting_betti(monkeypatch)
    main(argv)
    assert len(calls) == 1 and capsys.readouterr().out == first


def test_no_cache_path_never_fingerprints(capsys, monkeypatch):
    from stabfold import cli

    def refuse():
        raise AssertionError("fingerprint computed on the --no-cache path")

    monkeypatch.setattr(cli, "code_fingerprint", refuse)
    assert main(BETTI_N2 + ["--no-cache"]) == 0


def test_fields_above_2_16_elements_are_refused(capsys):
    # every field gets log tables, so GF(257^2) (66,049 elements) and
    # GF(65537) are refused with a message and exit status 2
    for argv in (["betti", "--lie", "gl", "--n", "2", "--p", "257", "--ext", "2",
                  "--no-cache"],
                 ["betti", "--lie", "gl", "--n", "2", "--p", "65537", "--no-cache"],
                 ["monodromy", "--n", "2", "--p", "257", "--ext", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "2^16" in captured.err and not captured.out
    # dims only grades by p and builds no field
    assert main(["dims", "--p", "65537"]) == 0


def test_a_closed_pipe_ends_the_run_without_a_traceback():
    # the reader is gone before anything is written, so the first write of
    # the JSON payload meets a broken pipe
    env = dict(os.environ, PYTHONPATH=str(Path(stabfold.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "stabfold.cli", "pages", "--n", "3", "--p", "19",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_an_unwritable_cache_directory_is_a_usage_error(capsys, tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    code = main(BETTI_N2 + ["--cache-dir", str(blocker)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err.count("\n") == 1 and str(blocker) in captured.err
