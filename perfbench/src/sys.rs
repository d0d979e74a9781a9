//! The benchmark's view of the machine: its one wall clock, per-process
//! CPU time and peak memory from `/proc`, and the machine record printed
//! next to every result.

use std::time::Instant;

/// The benchmark's only wall-clock read; every timing in the harness
/// derives from it.
pub fn now() -> Instant {
    #[allow(clippy::disallowed_methods)] // the wall clock is the measurement
    Instant::now() // lint:allow(R2): benchmark timing — the wall clock is what is measured
}

/// Seconds elapsed since `t0`.
pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100
/// on every Linux platform this runs on).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of a process (`"self"` or a pid),
/// including children it has already waited for.
pub fn cpu_s(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name: state is field 3, so
    // utime/stime/cutime/cstime (fields 14–17) sit at offsets 11–14.
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f
        .get(11..15)?
        .iter()
        .filter_map(|x| x.parse::<f64>().ok())
        .sum();
    Some(ticks / USER_HZ)
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Executor threads for the in-process workloads: two, or fewer on a
/// smaller machine.
pub fn threads() -> usize {
    parallelism().min(2)
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Time of one fixed integer kernel (a 2^24-step xorshift chain), the
/// yardstick for comparing results across machines.
pub fn calibration_ms() -> f64 {
    let t0 = now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..(1u32 << 24) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    since(t0) * 1e3
}

/// One line describing the machine: parallelism, the calibration
/// kernel's time, the compiler version and the commit the benchmark was
/// built from. Informational only — never gated.
pub fn machine_record() -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!(
        "{{\"record\":\"machine\",\"available_parallelism\":{},\"calibration_ms\":{:.3},\
         \"rustc\":\"{}\",\"commit\":\"{}\"}}",
        parallelism(),
        calibration_ms(),
        rustc.replace('"', "'"),
        commit()
    )
}

/// The commit the checkout was built from: `HEAD` of the enclosing git
/// repository, or `unknown` in an exported tree.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h,
        Err(_) => return "unknown".into(),
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        None => head.to_string(),
    }
}
