//! Records the git commit and the rustc version the benchmark was built
//! from, so every result carries them. Outside a git checkout the commit
//! reads `unknown`.

use std::path::Path;
use std::process::Command;

fn main() {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let repo_root = Path::new(&manifest_dir)
        .parent()
        .expect("the benchmark package sits inside the repository");

    // Look for `.git` in the repository root only, never in the directories
    // above it.
    let ceiling = repo_root.parent().unwrap_or(repo_root);
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());

    println!("cargo:rustc-env=E2E_BENCH_GIT_COMMIT={commit}");
    println!("cargo:rustc-env=E2E_BENCH_RUSTC={rustc_version}");
    println!("cargo:rerun-if-changed=build.rs");
    // Rebuild when HEAD moves: watch HEAD and the branch file it names.
    let git_dir = repo_root.join(".git");
    let head = git_dir.join("HEAD");
    if let Ok(text) = std::fs::read_to_string(&head) {
        println!("cargo:rerun-if-changed={}", head.display());
        if let Some(branch) = text.trim().strip_prefix("ref: ") {
            let branch_file = git_dir.join(branch);
            if branch_file.exists() {
                println!("cargo:rerun-if-changed={}", branch_file.display());
            }
        }
    }
}
