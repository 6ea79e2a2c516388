//! `ci/paired-gate.sh` checks its arguments before it builds anything:
//! a wrong count exits 2 with the usage line and no other output.

use std::process::Command;

#[test]
fn paired_gate_rejects_a_wrong_argument_count_before_building() {
    let script = concat!(env!("CARGO_MANIFEST_DIR"), "/ci/paired-gate.sh");
    for args in [&[][..], &["HEAD", "HEAD"][..]] {
        let out = Command::new("bash")
            .arg(script)
            .args(args)
            .output()
            .expect("bash runs the script");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr, format!("usage: {script} BASE_REV\n"), "{args:?}");
        assert!(stdout.is_empty(), "{args:?} started work: {stdout}");
    }
}
