//! Parsers for the few `/proc` files the benchmark reads: process CPU time
//! (`/proc/self/stat`), peak resident memory (`/proc/self/status`) and the
//! filesystem type under a path (`/proc/self/mountinfo`).

use std::path::Path;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux fixes
/// this user-visible `USER_HZ` at 100 on every architecture it reports it.
pub const TICKS_PER_SEC: u64 = 100;

/// User plus system CPU time, in clock ticks, from the text of
/// `/proc/<pid>/stat`. The command name (field 2) is parenthesised and may
/// itself contain spaces and parentheses, so fields are counted from the
/// last `)`.
pub fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `fields[0]` is field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The value in KiB of a `Key:   123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kib(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut parts = value.split_whitespace();
        let kib = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(kib)
    })
}

/// The filesystem type of the mount holding `path`, from the text of
/// `/proc/<pid>/mountinfo`: the mount point that is the longest
/// component-wise prefix of `path`.
pub fn parse_mountinfo_fstype(text: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in text.lines() {
        let (pre, post) = match line.split_once(" - ") {
            Some(split) => split,
            None => continue,
        };
        let mount_point = match pre.split_whitespace().nth(4) {
            Some(m) => m.replace("\\040", " "),
            None => continue,
        };
        let fstype = match post.split_whitespace().next() {
            Some(f) => f,
            None => continue,
        };
        let mount = Path::new(&mount_point);
        if path.starts_with(mount) {
            let depth = mount.components().count();
            if best.as_ref().is_none_or(|(d, _)| depth >= *d) {
                best = Some((depth, fstype.to_string()));
            }
        }
    }
    best.map(|(_, f)| f)
}

/// This process's user plus system CPU time in seconds.
pub fn cpu_seconds() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat_cpu_ticks(&text).map(|t| t as f64 / TICKS_PER_SEC as f64)
}

/// This process's peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kib(&text, "VmHWM").map(|kib| kib as f64 / 1024.0)
}

/// The filesystem type holding `path` (which must exist).
pub fn fstype_of(path: &Path) -> Option<String> {
    let path = std::fs::canonicalize(path).ok()?;
    let text = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    parse_mountinfo_fstype(&text, &path)
}
