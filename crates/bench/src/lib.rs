//! Shared items for the bench targets that the `ecnbench` benchmark does
//! not cover: the wire-codec micro timings (`micro`), the 100k-server
//! scaling record (`megapool`) and the design ablations (`ablations`).
//! The paper's artefacts come from `ecnudp run`, and campaign timings
//! from `ecnbench`.

use std::path::Path;

pub mod alloc;

/// Default seed for benchmark runs (fixed so printed artefacts are stable).
pub const BENCH_SEED: u64 = 2015;

/// Replace `path` with `doc` atomically (temp file + rename in the
/// target's directory), so an interrupted bench run can never leave a
/// torn document — readers see either the old file or the new one.
pub fn write_bench_json(path: &Path, doc: &str) {
    // Same directory as the target so the rename cannot cross filesystems.
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy())
        .unwrap_or_default();
    let tmp = path.with_file_name(format!(".{file_name}.tmp.{}", std::process::id()));
    std::fs::write(&tmp, doc).expect("write bench json temp file");
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        panic!("atomic rename of bench json into {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_write_is_atomic_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join("ecn_bench_json_atomic_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_atomic.json");
        let _ = std::fs::remove_file(&path);

        write_bench_json(&path, "{\n  \"alpha\": {\"x\": 1}\n}\n");
        write_bench_json(&path, "{\n  \"beta\": {\"y\": 2}\n}\n");
        // the second write replaces the whole document
        let doc = std::fs::read_to_string(&path).unwrap();
        assert_eq!(doc, "{\n  \"beta\": {\"y\": 2}\n}\n");
        // the temp file must be renamed away, never left beside the target
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
