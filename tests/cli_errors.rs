//! The `bricks` binary answers a user input it cannot run with an error
//! message and exit code 1, never with a panic.

use std::process::{Command, Output};

fn bricks(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bricks"))
        .args(args)
        .output()
        .expect("the bricks binary runs")
}

#[test]
fn prof_sim_rejects_a_domain_its_bricks_cannot_tile() {
    // A100 bricks are 4x4x32: 20 and 0 are not positive multiples of 32
    for n in ["20", "0"] {
        let out = bricks(&["prof", "sim", "star", "1", "a100", "cuda", "--n", n]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--n {n}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "--n {n} must be a positive multiple of each brick extent (4x4x32 on"
            )),
            "--n {n}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--n {n}: {stderr}");
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
