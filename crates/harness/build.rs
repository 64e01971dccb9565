//! `MODEL_FINGERPRINT`, the seed of every cache key: FNV-1a over the path
//! below `crates/`, the length and the bytes of each `src/` file of the
//! `CRATES` (this crate and its dependencies, held to the manifests by
//! `tests/architecture.rs`), in path order.

use std::{env, fs, path::Path};

const CRATES: &str = "harness sim isa trace check mem cpu core obs";

fn main() {
    let crates = Path::new(".."); // A build script runs in its crate's directory.
    let mut dirs: Vec<String> = CRATES.split(' ').map(|c| format!("{c}/src")).collect();
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        println!("cargo:rerun-if-changed=../{dir}");
        for entry in fs::read_dir(crates.join(&dir)).expect("a source directory") {
            let path = format!("{dir}/{}", entry.expect("an entry").file_name().display());
            let is_dir = crates.join(&path).is_dir();
            if is_dir { &mut dirs } else { &mut files }.push(path);
        }
    }
    println!("cargo:rerun-if-changed=build.rs");
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = fs::read(crates.join(path)).expect("a source file");
        let len = (bytes.len() as u64).to_le_bytes();
        for &b in path.as_bytes().iter().chain(&len).chain(&bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let out = env::var("OUT_DIR").expect("set by cargo");
    fs::write(Path::new(&out).join("fingerprint"), format!("{h:#018x}")).expect("OUT_DIR");
}
