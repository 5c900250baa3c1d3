//! What the numbers were measured on: cores, commit, compiler, memory.

use std::path::{Path, PathBuf};

/// The benchmark package's own directory (`benchmark/`).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit the checkout is at, read from `.git` beside the package; a
/// checkout that is not a git repository has none.
pub fn commit_id() -> String {
    let root = package_dir().join("..");
    read_head(&root.join(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn read_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| line.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// `rustc --version` of the toolchain on the path (the one cargo built with).
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MB (`VmHWM`), where the platform
/// exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t   52344 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(52_344));
        assert_eq!(parse_vm_hwm_kb("Name:\tbenchmark\n"), None);
    }
}
