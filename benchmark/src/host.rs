//! What the benchmark reads from the host: CPU affinity, memory and
//! CPU accounting from `/proc`, and the environment block recorded
//! beside every result. No `libc`: pinning goes through `taskset`,
//! everything else through `/proc` text files.

use std::process::Command;

use crate::json::Json;

fn proc_status_field(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// This process's `Cpus_allowed_list`, verbatim (e.g. `0-1`).
pub fn cpus_allowed_list() -> String {
    proc_status_field("Cpus_allowed_list").unwrap_or_default()
}

/// Expands a kernel CPU list (`0-1,4`) into CPU numbers.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((lo, hi)) => {
                if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
                    cpus.extend(lo..=hi);
                }
            }
            None => cpus.extend(part.parse::<usize>().ok()),
        }
    }
    cpus
}

/// The CPU workers are pinned to: the last one this process may use
/// (CPU 0 tends to take the interrupts), or `None` when `taskset` is
/// missing or the allowed list cannot be read.
pub fn pin_cpu() -> Option<usize> {
    let taskset_runs = Command::new("taskset")
        .arg("--version")
        .output()
        .is_ok_and(|o| o.status.success());
    parse_cpu_list(&cpus_allowed_list())
        .last()
        .copied()
        .filter(|_| taskset_runs)
}

/// `taskset -c <cpu> <exe> <args…>`, or plain `<exe> <args…>` when
/// `cpu` is `None`.
pub fn worker_command(cpu: Option<usize>, args: &[String]) -> std::io::Result<Command> {
    let exe = std::env::current_exe()?;
    Ok(match cpu {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.arg("-c").arg(cpu.to_string()).arg(exe).args(args);
            c
        }
        None => {
            let mut c = Command::new(exe);
            c.args(args);
            c
        }
    })
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(utime, stime)` of this process, all threads, in clock ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are
    // counted from the closing parenthesis. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after it.
    let mut fields = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .skip(11)
        .map(|f| f.parse().unwrap_or(0));
    (fields.next().unwrap_or(0), fields.next().unwrap_or(0))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and toolchain a result was measured on.
pub fn env_block() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpus_allowed_list", Json::Str(cpus_allowed_list())),
        ("cpu_model", Json::Str(cpu_model)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_expand() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-3,7"), vec![0, 2, 3, 7]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(!cpus_allowed_list().is_empty());
    }
}
