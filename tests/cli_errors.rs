//! The `bricks` binary answers a user input it cannot run with an error
//! message and exit code 1, never with a panic; its host report names
//! only the backends the host runs.

use std::process::{Command, Output};

fn bricks(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bricks"))
        .args(args)
        .output()
        .expect("the bricks binary runs")
}

#[test]
fn prof_sim_rejects_a_domain_its_bricks_cannot_tile() {
    // A100 bricks are 4x4x32: 20 and 0 are not positive multiples of 32,
    // and 4096000 makes ~1.3e17 bricks, past the u32 brick ids
    let multiple = "must be a positive multiple of each brick extent (4x4x32 on";
    for (n, expect) in [
        ("20", multiple),
        ("0", multiple),
        ("4096000", "bricks than u32 ids can number"),
    ] {
        let out = bricks(&["prof", "sim", "star", "1", "a100", "cuda", "--n", n]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--n {n}: {stderr}");
        assert!(
            stderr.contains(&format!("--n {n} ")) && stderr.contains(expect),
            "--n {n}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--n {n}: {stderr}");
    }
}

#[test]
fn simulation_commands_take_no_fidelity_flag() {
    // the simulator's fast path is the only one the CLI runs; the
    // removed flag is assembled so the tree no longer spells it
    let removed = ["--fid", "elity"].concat();
    let removed = removed.as_str();
    for args in [
        &["simulate", "star", "1", "a100", "cuda", removed, "exact"][..],
        &["prof", "sim", "star", "1", "a100", "cuda", removed, "exact"],
    ] {
        let out = bricks(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn inspect_and_reuse_reject_a_width_their_bricks_cannot_take() {
    // width 0 is an empty brick; reuse traces a fixed 128^3 domain,
    // which 7 does not divide
    for (args, expect) in [
        (&["inspect", "star", "1", "0"][..], "width must be positive"),
        (&["reuse", "star", "1", "0"], "width must be positive"),
        (
            &["reuse", "star", "1", "7"],
            "width 7 must divide the 128^3 reuse domain",
        ),
    ] {
        let out = bricks(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(expect), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn obs_reads_a_span_capture_and_rejects_a_chrome_trace() {
    use bricks_repro::obs::{set_tracing, span, trace};

    set_tracing(true);
    {
        let _sweep = span("obs-test.sweep");
        let _cell = span("obs-test.cell");
    }
    set_tracing(false);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_obs");
    std::fs::create_dir_all(&dir).unwrap();
    let spans = dir.join("spans.jsonl");
    let chrome = dir.join("trace.json");
    std::fs::write(&spans, trace::spans_jsonl()).unwrap();
    std::fs::write(&chrome, trace::chrome_trace_json()).unwrap();

    let out = bricks(&["obs", spans.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        stdout.contains("2 spans") && stdout.contains("obs-test.cell"),
        "{stdout}"
    );

    let out = bricks(&["obs", chrome.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("spans.jsonl"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_reader_that_closes_the_pipe_early_ends_the_report_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_bricks"))
        .arg("lint")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the bricks binary runs");
    let mut first = String::new();
    // the reader goes out of scope after one line, closing the pipe while
    // the rest of the report is still being written
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("a first report line");
    assert!(first.contains("diagnostics"), "{first}");
    let out = child.wait_with_output().expect("bricks exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

#[test]
fn exec_report_lists_the_backends_this_host_runs() {
    use bricks_repro::vm::CpuFeatures;

    let out = bricks(&["exec"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    let value = |key: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .unwrap_or_else(|| panic!("no `{key}` line in:\n{stdout}"))
    };
    let feats = CpuFeatures::detect();
    let expect = if feats.avx2 && feats.fma {
        "interpreter, portable, avx2"
    } else {
        "interpreter, portable"
    };
    let runnable = value("runnable backends: ");
    assert_eq!(runnable, expect, "{stdout}");
    let auto = value("auto backend: ");
    assert!(
        runnable.split(", ").any(|b| b == auto),
        "auto backend `{auto}` is not runnable: {stdout}"
    );
    // the deleted aarch64 backend is assembled so the tree no longer
    // spells it
    let deleted = ["ne", "on"].concat();
    assert!(
        !stdout.to_lowercase().contains(&deleted),
        "the report names the deleted {deleted} backend: {stdout}"
    );
}

#[test]
fn simulation_commands_reject_a_reach_their_bricks_cannot_hold() {
    // the paper's 4x4 brick rows hold a reach of at most 4, so star 5 is
    // a generator error on both commands, reported before any simulation
    for args in [
        &["simulate", "star", "5", "a100", "cuda"][..],
        &["prof", "sim", "star", "5", "a100", "cuda", "--n", "64"],
    ] {
        let out = bricks(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("reach 5 on axis 1 exceeds the block extent 4"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn prof_gate_judges_paired_rounds_and_rejects_mismatched_sides() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_gate");
    let _ = std::fs::remove_dir_all(&dir);
    let sim = |cold: f64, full: &str| {
        format!(
            r#"{{"sweep": {{"cold_cells_per_s": {cold}, "warm_cells_per_s": 100.0}},
                 "fidelity": {{"speedup": 8.0}}{full}}}"#
        )
    };
    // one side per directory, one BENCH_sim.json per round subdirectory
    let side = |name: &str, colds: &[f64]| {
        for (i, cold) in colds.iter().enumerate() {
            let round = dir.join(name).join(i.to_string());
            std::fs::create_dir_all(&round).unwrap();
            std::fs::write(round.join("BENCH_sim.json"), sim(*cold, "")).unwrap();
        }
        dir.join(name).to_str().unwrap().to_string()
    };
    let file = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let base = side("base", &[10.0, 10.1, 9.9]);
    let slow = side("slow", &[8.0, 8.1, 7.9]);
    let noisy = side("noisy", &[8.0, 6.5, 10.0]);
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let exec = file(
        "exec.json",
        r#"{"exec": {"n": 512}, "interpreter": {"points_per_s": 6e7},
            "native": {"points_per_s": 2.3e8}, "speedup": 3.8}"#,
    );
    let with_full = file(
        "full.json",
        &sim(10.0, r#", "fidelity_full": {"speedup": 4.0}"#),
    );
    let without_full = file("nofull.json", &sim(10.0, ""));

    let gate = |base: &str, new: &str| {
        let out = bricks(&["prof", "gate", base, new]);
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(!stderr.contains("panicked"), "{stderr}");
        (out.status.code(), stdout, stderr)
    };
    let (code, stdout, _) = gate(&base, &base);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.contains("gate: ok") && stdout.contains("10.000 x3"),
        "{stdout}"
    );

    // a 20% median drop with tight spreads fails the gate
    let (code, stdout, stderr) = gate(&base, &slow);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("regressed"), "{stdout}");
    assert!(stderr.contains("sweep.cold_cells_per_s"), "{stderr}");

    // a spread past the tolerance with overlapping rounds is listed,
    // neither passed nor failed
    let (code, stdout, _) = gate(&base, &noisy);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.contains("unresolved (") && stdout.contains("sweep.cold_cells_per_s"),
        "{stdout}"
    );

    // sides of different kinds, a metric that vanished from NEW and a
    // side with no rounds are errors, not passes
    for (base, new, expect) in [
        (
            &without_full,
            &exec,
            "BASE is BENCH_sim.json but NEW is BENCH_exec.json",
        ),
        (
            &with_full,
            &without_full,
            "fidelity_full.speedup: measured on BASE but missing on NEW",
        ),
        (
            &base,
            &empty.to_str().unwrap().to_string(),
            "no */BENCH_*.json rounds",
        ),
    ] {
        let (code, _, stderr) = gate(base, new);
        assert_eq!(code, Some(1), "{base} {new}: {stderr}");
        assert!(stderr.contains(expect), "{stderr}");
    }
    // a metric only NEW measured is reported, not gated
    let (code, stdout, _) = gate(&without_full, &with_full);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("new"), "{stdout}");
}
