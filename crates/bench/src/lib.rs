//! Shared helpers for the benchmark harness: each `[[bench]]` target
//! regenerates one of the paper's tables/figures (printing the rows the
//! paper reports) and then times the computational kernel behind it.

use ecn_core::{CampaignConfig, CampaignResult, EngineConfig};
use ecn_pool::PoolPlan;
use std::path::Path;
use std::time::{Duration, Instant};

pub mod alloc;

/// Default seed for benchmark runs (fixed so printed artefacts are stable).
pub const BENCH_SEED: u64 = 2015;

/// Run the full paper-scale campaign through the sharded engine
/// (optionally with the traceroute survey), reporting wall time and the
/// engine's phase breakdown. The per-artefact benches render and time
/// their artefact from the result's streamed aggregates.
pub fn paper_campaign(run_traceroute: bool) -> CampaignResult {
    let plan = PoolPlan::paper();
    let cfg = CampaignConfig {
        seed: BENCH_SEED,
        run_traceroute,
        ..CampaignConfig::default()
    };
    let t0 = Instant::now();
    let run = ecn_core::try_run_engine(&plan, &cfg, &EngineConfig::default())
        .expect("in-process campaign");
    eprintln!(
        "[bench] paper-scale campaign ({} traces{}, {} shards x {} units) in {:.1}s\n[bench] {}",
        run.result.aggregates.trace_stats.len(),
        if run_traceroute {
            ", with traceroute survey"
        } else {
            ""
        },
        run.shards,
        run.units,
        t0.elapsed().as_secs_f64(),
        run.timing.render(),
    );
    run.result
}

/// Time a closure `iters` times and print mean per-iteration milliseconds.
pub fn time_kernel<T>(label: &str, iters: u32, mut f: impl FnMut() -> T) {
    // warm-up
    std::hint::black_box(f());
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per = t0.elapsed().as_secs_f64() * 1000.0 / f64::from(iters);
    println!("[kernel] {label}: {per:.3} ms/iter over {iters} iters");
}

/// A fixed scalar kernel (checksum-shaped: 8-byte adds over a 1.5 KB
/// buffer plus an avalanche mix) timed for ~80 ms, in kilo-iterations per
/// second. The score scales with the single-core integer throughput the
/// simulator's hot loop depends on, so a `BENCH_campaign.json` section
/// that records it next to `num_cpus` says how fast the host that
/// produced its wall-clock numbers was.
pub fn calibration_kops() -> f64 {
    let mut buf = [0u8; 1536];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = i as u8;
    }
    let mut acc = 0x9e37_79b9_7f4a_7c15u64;
    let t0 = Instant::now();
    let mut iters = 0u64;
    loop {
        for _ in 0..256 {
            let mut s = 0u64;
            for ch in buf.chunks_exact(8) {
                s = s.wrapping_add(u64::from_le_bytes(ch.try_into().unwrap()));
            }
            acc ^= s.rotate_left(17).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            // Feed the digest back into the buffer: the next pass depends
            // on this one through memory, so the sum cannot be folded to
            // a constant and the loop actually exercises load/ALU ports.
            let off = (acc as usize) % (buf.len() - 8);
            buf[off..off + 8].copy_from_slice(&acc.to_le_bytes());
            iters += 1;
        }
        if t0.elapsed() >= Duration::from_millis(80) {
            break;
        }
    }
    std::hint::black_box(acc);
    iters as f64 / t0.elapsed().as_secs_f64() / 1000.0
}

/// Insert or replace one top-level section of `BENCH_campaign.json`,
/// preserving the others — several bench targets (`campaign_sharding`,
/// `probe_hot_loop`) contribute sections to the same trajectory artefact,
/// in whatever order they run. `section_body` must be a JSON object
/// (`{...}`); the file keeps one `"name": {...}` entry per section.
///
/// The write is atomic (temp file + rename in the target's directory), so
/// an interrupted or concurrent bench run can never leave a torn
/// document — readers see either the old sections or the new ones.
pub fn update_bench_json(path: &Path, section: &str, section_body: &str) {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut sections = parse_top_level_sections(&existing);
    sections.retain(|(name, _)| name != section);
    sections.push((section.to_string(), section_body.trim().to_string()));
    let mut out = String::from("{\n");
    for (i, (name, body)) in sections.iter().enumerate() {
        let comma = if i + 1 == sections.len() { "" } else { "," };
        out.push_str(&format!("  \"{name}\": {}{comma}\n", indent_block(body)));
    }
    out.push_str("}\n");
    // Same directory as the target so the rename cannot cross filesystems.
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy())
        .unwrap_or_default();
    let tmp = path.with_file_name(format!(".{file_name}.tmp.{}", std::process::id()));
    std::fs::write(&tmp, out).expect("write bench json temp file");
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        panic!("atomic rename of bench json into {}: {e}", path.display());
    }
}

/// Split a `{ "name": {...}, ... }` document into (name, object) pairs by
/// brace counting. Only object-valued top-level keys are supported — which
/// is exactly what the bench writers emit. None of our emitted strings
/// contain braces, so no string-state tracking is needed.
fn parse_top_level_sections(doc: &str) -> Vec<(String, String)> {
    let mut sections = Vec::new();
    let bytes = doc.as_bytes();
    let mut i = match doc.find('{') {
        Some(p) => p + 1,
        None => return sections,
    };
    while i < bytes.len() {
        let Some(q0) = doc[i..].find('"').map(|p| i + p) else {
            break;
        };
        let Some(q1) = doc[q0 + 1..].find('"').map(|p| q0 + 1 + p) else {
            break;
        };
        let name = doc[q0 + 1..q1].to_string();
        let Some(colon) = doc[q1..].find(':').map(|p| q1 + p) else {
            break;
        };
        let Some(value_start) = doc[colon + 1..]
            .find(|c: char| !c.is_whitespace())
            .map(|p| colon + 1 + p)
        else {
            break;
        };
        if bytes[value_start] != b'{' {
            // legacy flat entry (scalar value): drop it and move on
            i = match doc[value_start..].find([',', '}']) {
                Some(p) => value_start + p + 1,
                None => break,
            };
            continue;
        }
        let b0 = value_start;
        let mut depth = 0usize;
        let mut b1 = b0;
        for (k, c) in doc[b0..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        b1 = b0 + k;
                        break;
                    }
                }
                _ => {}
            }
        }
        sections.push((name, dedent_block(&doc[b0..=b1])));
        i = b1 + 1;
    }
    sections
}

/// Strip the common leading indentation a previous write added, so
/// re-serialising a preserved section is idempotent (indentation would
/// otherwise grow two spaces per merge).
fn dedent_block(body: &str) -> String {
    let common = body
        .lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.len() - l.trim_start().len())
        .min()
        .unwrap_or(0);
    let mut lines = body.lines();
    let mut out = String::from(lines.next().unwrap_or("{").trim_start());
    for line in lines {
        out.push('\n');
        out.push_str(line.get(common..).unwrap_or_else(|| line.trim_start()));
    }
    out
}

/// Re-indent a JSON object body so nested lines sit two spaces deeper
/// under their section key.
fn indent_block(body: &str) -> String {
    let mut lines = body.lines();
    let mut out = String::from(lines.next().unwrap_or("{").trim_start());
    for line in lines {
        out.push('\n');
        out.push_str("  ");
        out.push_str(line.trim_end());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_sections_merge_and_replace() {
        let dir = std::env::temp_dir().join("ecn_bench_json_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_test.json");
        let _ = std::fs::remove_file(&path);

        update_bench_json(&path, "alpha", "{\n  \"x\": 1\n}");
        update_bench_json(&path, "beta", "{\n  \"y\": {\n    \"z\": 2\n  }\n}");
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.contains("\"alpha\""), "{doc}");
        assert!(doc.contains("\"beta\""), "{doc}");
        assert!(doc.contains("\"z\": 2"), "{doc}");

        // replacing a section keeps the other intact
        update_bench_json(&path, "alpha", "{\n  \"x\": 9\n}");
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.contains("\"x\": 9"), "{doc}");
        assert!(!doc.contains("\"x\": 1"), "{doc}");
        assert!(doc.contains("\"z\": 2"), "{doc}");

        // merging is idempotent: preserved sections keep their exact
        // bytes (indentation must not drift deeper per merge round)
        update_bench_json(&path, "alpha", "{\n  \"x\": 9\n}");
        let doc2 = std::fs::read_to_string(&path).unwrap();
        assert_eq!(doc, doc2, "re-merge changed preserved bytes");

        let sections = parse_top_level_sections(&doc);
        assert_eq!(sections.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bench_json_update_is_atomic_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join("ecn_bench_json_atomic_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_atomic.json");
        let _ = std::fs::remove_file(&path);

        update_bench_json(&path, "alpha", "{\n  \"x\": 1\n}");
        update_bench_json(&path, "beta", "{\n  \"y\": 2\n}");
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(
            doc.contains("\"alpha\"") && doc.contains("\"beta\""),
            "{doc}"
        );
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
