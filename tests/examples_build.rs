//! Smoke check: every example in the workspace must keep compiling.
//!
//! The walkthroughs under `examples/` are documentation as much as code,
//! and nothing else in `cargo test` would catch them bit-rotting. This test
//! shells out to the same cargo that is running the tests and builds every
//! example in the workspace.

use std::process::Command;

#[test]
fn all_examples_compile() {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let output = Command::new(cargo)
        .args(["build", "--examples", "--workspace"])
        .current_dir(manifest_dir)
        .output()
        .expect("failed to spawn cargo");
    assert!(
        output.status.success(),
        "`cargo build --examples --workspace` failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
