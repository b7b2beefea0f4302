//! Process-wide CPU time, peak memory and the machine's stolen time, read
//! from `/proc` (Linux).

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/self/stat` (`USER_HZ`, 100 on every mainstream Linux ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU time of the whole process (every thread, live or
/// exited) so far, in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    cpu_ms_from_stat(&stat).expect("/proc/self/stat has utime and stime")
}

fn cpu_ms_from_stat(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space-separated, starting with field 3 (state).
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000.0 / USER_HZ)
}

/// The machine's CPU ticks so far, from the first line of `/proc/stat`:
/// `(stolen, total)`. Stolen ticks are those the hypervisor gave to other
/// guests while this machine's CPUs wanted to run.
pub fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    machine_ticks_from(&stat).expect("/proc/stat starts with the cpu line")
}

fn machine_ticks_from(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user and nice).
    let ticks: Vec<u64> = line
        .split_whitespace()
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    peak_rss_from_status(&status).expect("/proc/self/status has VmHWM")
}

fn peak_rss_from_status(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_command_name() {
        let stat = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(cpu_ms_from_stat(stat), Some(3000.0));
    }

    #[test]
    fn parses_steal_from_the_cpu_line() {
        let stat = "cpu  80229 0 5593 299070 410 0 168 1116 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(
            machine_ticks_from(stat),
            Some((1116, 80229 + 5593 + 299070 + 410 + 168 + 1116))
        );
        assert_eq!(machine_ticks_from("intr 1 2"), None);
    }

    #[test]
    fn parses_vmhwm() {
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(peak_rss_from_status(status), Some(2.0));
    }

    #[test]
    fn live_process_reads_work() {
        assert!(cpu_ms() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
