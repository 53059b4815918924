//! What the host tells about the benchmark process: its peak resident
//! set and the time the hypervisor stole from the guest's CPUs.

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Seconds stolen by the hypervisor from all of the guest's CPUs since
/// boot (the `steal` column of the `cpu` line of `/proc/stat`), or 0
/// where the kernel does not report it.
pub fn steal_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else { return 0.0 };
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / USER_HZ)
}
