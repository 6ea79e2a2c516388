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
