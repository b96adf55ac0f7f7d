//! `fleetbench` rejects bad command lines with a message and a nonzero
//! exit status, never a panic.

use std::process::Command;

#[test]
fn bad_arguments_exit_nonzero_without_panicking() {
    for args in [
        &["--machines", "x"][..],
        &["--mix", "nope"],
        &["--threads"],
        &["--chaos-rate", "-3"],
        &["--frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fleetbench"))
            .args(args)
            .output()
            .expect("fleetbench runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.contains("fleetbench: "), "{args:?}: {stderr}");
    }
}
