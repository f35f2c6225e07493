import json

import pytest

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
])
def test_bad_arguments_exit_2_with_message(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


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
])
def test_bad_params_file_exits_2_with_message(capsys, tmp_path, content, message):
    # no file, a missing file, bad JSON, a list, missing keys, a zero
    # denominator, too few parameters, a subscript out of range
    argv = ["monodromy", "--n", "2", "--p", "11", "--flavor", "custom"]
    if content is not None:
        path = tmp_path / "conn.json"
        if content != "missing":
            path.write_text(content)
        argv += ["--params", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert not captured.out


@pytest.mark.slow
@pytest.mark.parametrize("suite", ["invariant-cycles", "collapse"])
def test_verify_suites_pass_at_n4(capsys, suite):
    # about 9 s and 27 s on a 2-core machine; run with -m slow
    code, js = run_json(capsys, "verify", suite, "--n", "4")
    assert code == 0 and js["ok"]


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


@pytest.mark.parametrize("argv", [
    ["pages", "--n", "5", "--p", "53"],
    ["pages", "--n", "5", "--p", "53", "--block", "full"],
    ["verify", "collapse", "--n", "5"],
    ["verify", "invariant-cycles", "--n", "5"],
    ["monodromy", "--n", "5", "--p", "53"],
    ["verify", "dd-zero", "--n", "5"],
])
def test_height5_enumeration_refused_at_once(capsys, argv):
    import time

    t0 = time.perf_counter()
    code = main(argv)
    assert code == 2 and time.perf_counter() - t0 < 5
    captured = capsys.readouterr()
    assert "ROADMAP item 5" in captured.err and not captured.out


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


def test_betti_over_untabled_extension_field(capsys):
    # GF(257^2) has 66,049 elements, above the log-table limit, so its rows
    # are eliminated with boxed scalars
    code, js = run_json(capsys, "betti", "--lie", "gl", "--n", "2", "--p", "257",
                        "--ext", "2", "--no-cache")
    assert code == 0 and js["grand_total"] == 4
    assert [(r["s"], r["u"], r["dim"]) for r in js["rows"]] == [
        (0, 0, 1), (1, 0, 1), (3, 0, 1), (4, 0, 1)]
