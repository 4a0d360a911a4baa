//! Records the compiler version and the source revision the benchmark
//! was built from, for the provenance line of every run.

use std::path::Path;
use std::process::Command;

fn capture(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version =
        capture(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest)
        .parent()
        .expect("the benchmark lives inside the repository");
    // Stop git at the checkout root: a checkout without its own .git
    // reports "unknown" instead of some enclosing repository's revision.
    let ceiling = root.parent().unwrap_or(root);
    let rev = capture(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(root)
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
    .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");

    println!("cargo:rerun-if-changed=build.rs");
    for git_path in ["../.git/HEAD", "../.git/refs/heads"] {
        if Path::new(&manifest).join(git_path).exists() {
            println!("cargo:rerun-if-changed={git_path}");
        }
    }
}
