//! What the benchmark reads about its host and its own processes: CPU
//! time of reaped children, the resident-set gauge, the machine record,
//! and the scalar calibration kernel.

use std::time::{Duration, Instant};

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, 100 on x86 and ARM Linux).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of every reaped child of this process, and
/// of their reaped descendants (`cutime + cstime`). Worker processes are
/// reaped by the campaign child, so their time arrives with it.
pub fn children_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (`state`); cutime and cstime are fields 16 and 17.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(16 - 3), tick(17 - 3)) {
        (Some(cu), Some(cs)) => (cu + cs) / USER_HZ,
        _ => 0.0,
    }
}

/// This process's current resident set in kB (`VmRSS`; 0 off Linux).
pub fn vm_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|r| r.trim().strip_suffix("kB"))
                .and_then(|n| n.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The machine a result was measured on.
pub struct Machine {
    /// Logical CPUs this process may use.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Score of [`calibration_kops`], taken once per invocation.
    pub calibration_kops: f64,
}

impl Machine {
    /// Read the machine record and run the calibration kernel (~80 ms).
    pub fn probe() -> Machine {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            calibration_kops: calibration_kops(),
        }
    }
}

/// A fixed scalar kernel (checksum-shaped: 8-byte adds over a 1.5 KB
/// buffer plus an avalanche mix) timed for ~80 ms, in kilo-iterations per
/// second. It scales with the single-core integer throughput the
/// simulator's hot loop depends on, so results from two hosts can be put
/// side by side.
pub fn calibration_kops() -> f64 {
    let mut buf = [0u8; 1536];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = i as u8;
    }
    let mut acc = 0x9e37_79b9_7f4a_7c15u64;
    let t0 = Instant::now();
    let mut iters = 0u64;
    while t0.elapsed() < Duration::from_millis(80) {
        for _ in 0..256 {
            let mut s = 0u64;
            for ch in buf.chunks_exact(8) {
                s = s.wrapping_add(u64::from_le_bytes(ch.try_into().expect("8-byte chunk")));
            }
            acc ^= s.rotate_left(17).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            // Feed the digest back into the buffer so the next pass
            // depends on this one through memory and cannot be folded.
            let off = (acc as usize) % (buf.len() - 8);
            buf[off..off + 8].copy_from_slice(&acc.to_le_bytes());
            iters += 1;
        }
    }
    std::hint::black_box(acc);
    iters as f64 / t0.elapsed().as_secs_f64() / 1000.0
}
