//! End-to-end tests of the `tamperscope` CLI binary: synthesize a capture,
//! classify it in both output modes, and check the simulation subcommands.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tamperscope"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tamperscope_cli_{}_{name}", std::process::id()))
}

#[test]
fn signatures_lists_nineteen_rows() {
    let out = bin().arg("signatures").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let rows = text.lines().filter(|l| l.contains('⟨')).count();
    assert_eq!(rows, 19);
    assert!(text.contains("⟨PSH+ACK → RST; RST₀⟩"));
}

#[test]
fn synthesize_then_classify_round_trip() {
    let pcap = tmp("round_trip.pcap");
    let out = bin()
        .args(["synthesize", pcap.to_str().unwrap(), "--sessions", "120"])
        .output()
        .expect("synthesize");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["classify", pcap.to_str().unwrap()])
        .output()
        .expect("classify");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("TAMPERED"));
    assert!(text.contains("clean"));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("flows match a tampering signature"));

    // JSONL mode: every line is a JSON object with the expected keys.
    let out = bin()
        .args(["classify", pcap.to_str().unwrap(), "--jsonl"])
        .output()
        .expect("classify jsonl");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 100);
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"verdict\":"));
        assert!(line.contains("\"client_ip\":"));
    }
    let _ = std::fs::remove_file(&pcap);
}

#[test]
fn classify_accepts_flags_in_any_position() {
    // Regression: boolean flags placed before the positional path used to
    // swallow the next argument as their "value", so `classify --jsonl X`
    // saw no positional at all.
    let pcap = tmp("flag_order.pcap");
    let out = bin()
        .args(["synthesize", pcap.to_str().unwrap(), "--sessions", "60"])
        .output()
        .expect("synthesize");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let flag_first = bin()
        .args(["classify", "--jsonl", pcap.to_str().unwrap()])
        .output()
        .expect("classify flag-first");
    assert!(
        flag_first.status.success(),
        "{}",
        String::from_utf8_lossy(&flag_first.stderr)
    );
    let flag_last = bin()
        .args(["classify", pcap.to_str().unwrap(), "--jsonl"])
        .output()
        .expect("classify flag-last");
    assert!(flag_last.status.success());
    assert_eq!(
        flag_first.stdout, flag_last.stdout,
        "flag position changed output"
    );

    // The engine path: thread count must not change a single output byte,
    // and --json-summary appends the summary + perf lines.
    let t1 = bin()
        .args([
            "classify",
            pcap.to_str().unwrap(),
            "--jsonl",
            "--threads",
            "1",
        ])
        .output()
        .expect("threads 1");
    let t4 = bin()
        .args([
            "classify",
            "--threads",
            "4",
            "--jsonl",
            pcap.to_str().unwrap(),
        ])
        .output()
        .expect("threads 4");
    assert!(t1.status.success() && t4.status.success());
    assert_eq!(t1.stdout, t4.stdout, "verdicts differ across thread counts");

    let summary = bin()
        .args([
            "classify",
            pcap.to_str().unwrap(),
            "--json-summary",
            "--threads",
            "2",
        ])
        .output()
        .expect("summary");
    assert!(summary.status.success());
    let text = String::from_utf8(summary.stdout).unwrap();
    assert!(text.contains("\"total_flows\":"), "{text}");
    assert!(text.contains("\"signatures\":"), "{text}");
    assert!(text.contains("\"threads\":2"), "{text}");
    let _ = std::fs::remove_file(&pcap);
}

#[test]
fn report_json_summary_is_valid_shape() {
    let out = bin()
        .args([
            "report",
            "--sessions",
            "4000",
            "--days",
            "2",
            "--json-summary",
        ])
        .output()
        .expect("report");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let line = text.trim();
    assert!(line.starts_with('{') && line.ends_with('}'));
    assert!(line.contains("\"total_flows\":"));
    assert!(line.contains("\"possibly_tampered\":"));
}

#[test]
fn world_spec_emits_one_json_line_per_country() {
    let out = bin().arg("world-spec").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 50, "expected one line per country");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"country\":"));
        assert!(
            !line.contains("-0,") && !line.ends_with("-0}"),
            "negative zero leaked: {line}"
        );
    }
    assert!(text.contains("\"country\":\"TM\""));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("USAGE"));
}

#[test]
fn unparseable_numeric_flag_is_a_usage_error() {
    // `--threads=abc` used to silently fall back to the default and run
    // anyway; strict parsing makes a typo a usage failure (exit 2).
    for args in [
        vec!["report", "--sessions", "abc"],
        vec!["report", "--threads=abc"],
        vec!["iran", "--sessions", "abc"],
        vec!["synthesize", "/tmp/never-written.pcap", "--seed", "-1"],
        vec!["report", "--threads"],
    ] {
        let out = bin().args(&args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?} did not exit 2");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("USAGE"), "{args:?}: {err}");
        assert!(
            err.contains("is not an unsigned integer") || err.contains("requires a value"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn classify_writes_the_golden_bytes_in_both_output_modes() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let pcap = fixtures.join("golden.pcap");
    for (mode, golden) in [
        (None, "golden.lines.txt"),
        (Some("--jsonl"), "golden.verdicts.jsonl"),
    ] {
        let want = std::fs::read(fixtures.join(golden)).expect("golden fixture");
        for threads in ["1", "2"] {
            let out = bin()
                .arg("classify")
                .arg(&pcap)
                .args(mode)
                .args(["--threads", threads])
                .output()
                .expect("classify");
            assert!(out.status.success());
            assert!(
                out.stdout == want,
                "classify {mode:?} --threads {threads} differs from {golden}"
            );
        }
    }
}

/// FNV-1a, 64-bit, over a command's stdout.
fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Both verdict formats on a 3000-session synthesized capture, pinned by
/// digest beyond the 21-flow golden corpus: every flow shape the netsim
/// recipe produces, at one and two engine threads.
#[test]
fn classify_stdout_matches_the_pinned_digests_on_a_synthesized_capture() {
    const LINES: u64 = 0xd91e_f37c_54c3_6405;
    const JSONL: u64 = 0x53f9_4f0a_ae22_19de;
    let pcap = tmp("digest_3000.pcap");
    let out = bin()
        .args(["synthesize", pcap.to_str().unwrap(), "--sessions", "3000"])
        .output()
        .expect("synthesize");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for (mode, want) in [(None, LINES), (Some("--jsonl"), JSONL)] {
        for threads in ["1", "2"] {
            let out = bin()
                .arg("classify")
                .arg(&pcap)
                .args(mode)
                .args(["--threads", threads])
                .output()
                .expect("classify");
            assert!(out.status.success());
            let got = fnv1a(&out.stdout);
            assert_eq!(
                got, want,
                "classify {mode:?} --threads {threads}: digest {got:#018x}"
            );
        }
    }
    let _ = std::fs::remove_file(&pcap);
}

/// `flows_closed` in `--metrics-json` counts closed flows, not the batches
/// that carry them: the golden corpus holds 21 flows at any thread count.
#[test]
fn classify_metrics_count_every_closed_flow() {
    let pcap = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden.pcap");
    for threads in ["1", "2"] {
        let metrics = tmp(&format!("flows_closed_{threads}.json"));
        let out = bin()
            .arg("classify")
            .arg(&pcap)
            .args(["--threads", threads, "--metrics-json"])
            .arg(&metrics)
            .output()
            .expect("classify");
        assert!(out.status.success());
        let text = std::fs::read_to_string(&metrics).expect("metrics written");
        let _ = std::fs::remove_file(&metrics);
        let doc = tamperscope::worldgen::json::Json::parse(text.trim()).expect("metrics parse");
        assert_eq!(
            doc.get("flows_closed").and_then(|v| v.as_u64()),
            Some(21),
            "--threads {threads}"
        );
    }
}

#[test]
fn classify_missing_file_fails_cleanly() {
    let out = bin()
        .args(["classify", "/definitely/not/here.pcap"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot open"));
}

#[test]
fn custom_world_round_trips_through_cli() {
    // Export the calibrated world, load it back, and run a small report.
    let spec_path = tmp("world.json");
    let out = bin().args(["world-spec", "--full"]).output().expect("run");
    assert!(out.status.success());
    std::fs::write(&spec_path, &out.stdout).unwrap();

    let out = bin()
        .args([
            "report",
            "--world",
            spec_path.to_str().unwrap(),
            "--sessions",
            "3000",
            "--days",
            "2",
            "--json-summary",
        ])
        .output()
        .expect("report");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"possibly_tampered\":"));
    let _ = std::fs::remove_file(&spec_path);
}

#[test]
fn single_country_world_runs() {
    let spec_path = tmp("mono.json");
    std::fs::write(
        &spec_path,
        r#"[{
            "code": "QQ", "weight": 1, "http_share": 0.5,
            "policy": {
                "dpi_blanket": 0.5,
                "dpi_mix": [{"vendor": "GfwDoubleRstAck", "rate": 1}]
            }
        }]"#,
    )
    .unwrap();
    let out = bin()
        .args([
            "report",
            "--world",
            spec_path.to_str().unwrap(),
            "--sessions",
            "2500",
            "--days",
            "1",
            "--json-summary",
        ])
        .output()
        .expect("report");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // Half the country is GFW'd: the possibly-tampered rate must be far
    // above the benign floor.
    let pt: f64 = text
        .split("\"possibly_tampered\":")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    let total: f64 = text
        .split("\"total_flows\":")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(pt / total > 0.4, "pt {pt} / total {total}");
    let _ = std::fs::remove_file(&spec_path);
}

#[test]
fn malformed_world_fails_with_context() {
    let spec_path = tmp("bad.json");
    std::fs::write(
        &spec_path,
        r#"[{"code":"X","weight":1,"policy":{"dpi_mix":[{"vendor":"Nope","rate":1}]}}]"#,
    )
    .unwrap();
    let out = bin()
        .args(["report", "--world", spec_path.to_str().unwrap()])
        .output()
        .expect("report");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown vendor"), "{err}");
    let _ = std::fs::remove_file(&spec_path);
}
