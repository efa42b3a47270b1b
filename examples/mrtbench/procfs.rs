//! Readers for the Linux `/proc` counters the benchmark samples at run
//! boundaries: per-thread CPU time and context switches, process CPU
//! time, the machine's stolen CPU time, and the host's TCP segment
//! count.

use std::collections::HashMap;

/// Clock ticks per second of `/proc` CPU times (USER_HZ, 100 on every
/// mainstream Linux architecture).
pub const TICKS_PER_S: f64 = 100.0;

/// The calling thread's kernel task id.
pub fn thread_id() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// `utime + stime` in ticks from a `/proc/.../stat` line. The command
/// name may hold spaces and parentheses, so fields count from the last
/// `)`; utime and stime are fields 14 and 15.
fn stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU ticks used by the whole process so far.
pub fn process_ticks() -> Option<u64> {
    stat_ticks(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// One thread's CPU ticks and context switches (voluntary plus
/// involuntary).
#[derive(Clone, Copy, Default)]
pub struct TaskSample {
    pub ticks: u64,
    pub switches: u64,
}

/// Every live thread of this process, by task id.
pub fn tasks() -> HashMap<u32, TaskSample> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let (Ok(stat), Ok(status)) = (
            std::fs::read_to_string(path.join("stat")),
            std::fs::read_to_string(path.join("status")),
        ) else {
            continue; // the thread exited between listing and reading
        };
        let switches = status
            .lines()
            .filter(|l| l.contains("ctxt_switches:"))
            .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
            .sum();
        if let Some(ticks) = stat_ticks(&stat) {
            out.insert(tid, TaskSample { ticks, switches });
        }
    }
    out
}

/// `(steal, total)` CPU ticks of the whole machine from the `cpu` line
/// of `/proc/stat`: the time the hypervisor ran something else on this
/// machine's virtual CPUs, and the time of every state summed.
pub fn cpu_steal() -> Option<(u64, u64)> {
    steal_of(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Steal is the 8th number on the `cpu` line, after user, nice, system,
/// idle, iowait, irq and softirq. The guest columns after it are already
/// counted in user and nice, so the total stops at steal.
fn steal_of(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .find(|l| l.starts_with("cpu "))?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// `Tcp: OutSegs` from `/proc/net/snmp`: segments sent by every socket
/// in this network namespace. Over loopback both ends are local, so a
/// fetch's segments in both directions count.
pub fn tcp_out_segs() -> Option<u64> {
    let snmp = std::fs::read_to_string("/proc/net/snmp").ok()?;
    let mut tcp = snmp.lines().filter(|l| l.starts_with("Tcp:"));
    let names = tcp.next()?;
    let values = tcp.next()?;
    let col = names.split_whitespace().position(|n| n == "OutSegs")?;
    values.split_whitespace().nth(col)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let line = "42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15";
        // utime is the 14th field overall: after "S" (3rd) come 1..=10,
        // then utime = 11 and stime = 12.
        assert_eq!(stat_ticks(line), Some(23));
    }

    #[test]
    fn steal_is_the_eighth_number_of_the_cpu_line() {
        let stat = "cpu  10 0 5 80 1 0 2 7 4 0\ncpu0 5 0 2 40 0 0 1 3 2 0\n";
        assert_eq!(steal_of(stat), Some((7, 105)));
        assert_eq!(steal_of("cpu0 1 2 3\n"), None);
    }
}
