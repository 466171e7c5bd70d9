//! Derives `CODE_EPOCH`'s source digest: a digest of every crate's
//! `src/` tree under `crates/` (the vendored `compat/*` crates too), so
//! a store entry can never answer for code that changed since it was
//! written (see the invalidation rule in `lib.rs`).
//!
//! The trees are found by walking `crates/`, so a new crate is covered
//! without a list to keep. Only [`PRESENTATION`] is left out: si-harness
//! files that print, serve or time documents but compute no unit
//! outcome. The digest is FNV-1a-64 over each file's path relative to
//! `crates/` (sorted, `/`-separated) and its bytes, each behind its
//! length. Cargo re-runs this script when anything under those trees
//! changes.

use std::path::{Path, PathBuf};

/// Files and directories (relative to `crates/`) that no unit outcome
/// depends on: an edit to them keeps every store entry live.
const PRESENTATION: [&str; 4] = [
    "harness/src/bench.rs",
    "harness/src/bin",
    "harness/src/render.rs",
    "harness/src/serve.rs",
];

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let crates = Path::new(&manifest).join("..");
    let mut src_dirs = Vec::new();
    find_src_dirs(&crates, "", &mut src_dirs);
    let mut files = Vec::new();
    for (rel, dir) in &src_dirs {
        println!("cargo:rerun-if-changed={}", dir.display());
        collect(dir, rel, &mut files);
    }
    println!("cargo:rerun-if-changed=build.rs");
    files.sort();
    let mut hash = Fnv::default();
    for (rel, path) in &files {
        let bytes =
            std::fs::read(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        for part in [rel.as_bytes(), &bytes] {
            hash.write(&(part.len() as u64).to_le_bytes());
            hash.write(part);
        }
    }
    let out = PathBuf::from(std::env::var("OUT_DIR").expect("cargo sets OUT_DIR"));
    std::fs::write(out.join("source_digest.rs"), format!("{:#018x}\n", hash.0))
        .expect("writing the source digest");
}

/// Every `src/` directory under `dir` (build output excluded), as
/// `(path relative to crates/, path)`.
fn find_src_dirs(dir: &Path, rel: &str, out: &mut Vec<(String, PathBuf)>) {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().expect("an entry name").to_string_lossy();
        if !path.is_dir() || name == "target" {
            continue;
        }
        let sub = format!("{rel}{name}");
        if name == "src" {
            out.push((sub, path));
        } else {
            find_src_dirs(&path, &format!("{sub}/"), out);
        }
    }
}

/// Every file under `dir` outside [`PRESENTATION`], as `(path relative
/// to crates/, path)`.
fn collect(dir: &Path, rel: &str, out: &mut Vec<(String, PathBuf)>) {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().expect("an entry name").to_string_lossy();
        let sub = format!("{rel}/{name}");
        if PRESENTATION.contains(&sub.as_str()) {
            continue;
        }
        if path.is_dir() {
            collect(&path, &sub, out);
        } else {
            out.push((sub, path));
        }
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}
