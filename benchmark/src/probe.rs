//! Outside-in probes: what the kernel says about this process and its
//! threads, read from `/proc` so no layer has to cooperate.
//!
//! Per-thread CPU is attributed by thread name: the edge names its
//! reactor `edge-reactor`, the engine its workers `shard-worker-N` and
//! the recorder its writer `flight-recorder`. The generator is the
//! thread that calls the probe.

use std::fs;
use std::io;

/// `/proc` reports CPU time in clock ticks of `USER_HZ`, which is 100
/// on every Linux architecture this runs on.
const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cpu {
    /// Seconds in user mode.
    pub user_s: f64,
    /// Seconds in the kernel.
    pub sys_s: f64,
}

impl Cpu {
    /// User plus system seconds.
    pub fn total(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// CPU spent between `earlier` and `self`.
    pub fn since(&self, earlier: &Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    fn add(&mut self, other: &Cpu) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
    }
}

/// Parses one `/proc/<pid>[/task/<tid>]/stat` line into the thread's
/// name and CPU time. The name sits in parentheses and may itself hold
/// spaces and `)`, so the fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<(String, Cpu)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    // After the name: field 3 (state) onwards; utime is field 14 and
    // stime field 15.
    let fields: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((
        comm,
        Cpu {
            user_s: utime as f64 / TICKS_PER_SEC,
            sys_s: stime as f64 / TICKS_PER_SEC,
        },
    ))
}

fn read_stat(path: &str) -> io::Result<(String, Cpu)> {
    let text = fs::read_to_string(path)?;
    parse_stat(&text).ok_or_else(|| io::Error::other(format!("unparsable {path}")))
}

/// Whole-process CPU, exited threads included.
pub fn process_cpu() -> io::Result<Cpu> {
    Ok(read_stat("/proc/self/stat")?.1)
}

/// CPU per thread role, summed over the live threads of each role.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ThreadCpu {
    /// The calling (load-generating) thread.
    pub generator: Cpu,
    /// `edge-reactor`.
    pub edge: Cpu,
    /// Every `shard-worker-*`.
    pub worker: Cpu,
    /// `flight-recorder`.
    pub recorder: Cpu,
}

impl ThreadCpu {
    /// Per-role CPU spent between `earlier` and `self`.
    pub fn since(&self, earlier: &ThreadCpu) -> ThreadCpu {
        ThreadCpu {
            generator: self.generator.since(&earlier.generator),
            edge: self.edge.since(&earlier.edge),
            worker: self.worker.since(&earlier.worker),
            recorder: self.recorder.since(&earlier.recorder),
        }
    }
}

/// Reads every thread of this process and sums CPU by role.
pub fn thread_cpu() -> io::Result<ThreadCpu> {
    let me = current_tid()?;
    let mut out = ThreadCpu::default();
    for entry in fs::read_dir("/proc/self/task")? {
        let entry = entry?;
        let tid = entry.file_name().to_string_lossy().into_owned();
        // A thread may exit between the listing and the read.
        let Ok((comm, cpu)) = read_stat(&format!("/proc/self/task/{tid}/stat")) else {
            continue;
        };
        let slot = if tid == me {
            &mut out.generator
        } else if comm == "edge-reactor" {
            &mut out.edge
        } else if comm.starts_with("shard-worker-") {
            &mut out.worker
        } else if comm == "flight-recorder" {
            &mut out.recorder
        } else {
            continue;
        };
        slot.add(&cpu);
    }
    Ok(out)
}

/// The calling thread's id, from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`).
fn current_tid() -> io::Result<String> {
    let link = fs::read_link("/proc/thread-self")?;
    link.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .ok_or_else(|| io::Error::other("unexpected /proc/thread-self link"))
}

/// Resets the process's peak resident set (`VmHWM`) to its current size.
pub fn reset_peak_rss() -> io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set since the last reset, in KiB.
pub fn peak_rss_kib() -> io::Result<u64> {
    let text = fs::read_to_string("/proc/self/status")?;
    status_kib(&text, "VmHWM").ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Reads a `Key:   123 kB` line of `/proc/<pid>/status`.
pub fn status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_plain_name() {
        let line = "4242 (shard-worker-0) S 4200 4200 4200 0 -1 4194624 120 0 0 0 \
                    731 42 0 0 20 0 5 0 9000 1000000 300 18446744073709551615";
        let (comm, cpu) = parse_stat(line).expect("parses");
        assert_eq!(comm, "shard-worker-0");
        assert!((cpu.user_s - 7.31).abs() < 1e-9);
        assert!((cpu.sys_s - 0.42).abs() < 1e-9);
    }

    #[test]
    fn stat_line_with_spaces_and_parens_in_name() {
        let line = "77 (a) b (c)) R 1 77 77 0 -1 0 0 0 0 0 250 1300 0 0 20 0 1 0 1 1 1 1";
        let (comm, cpu) = parse_stat(line).expect("parses");
        assert_eq!(comm, "a) b (c)");
        assert!((cpu.user_s - 2.5).abs() < 1e-9);
        assert!((cpu.sys_s - 13.0).abs() < 1e-9);
        assert!((cpu.total() - 15.5).abs() < 1e-9);
    }

    #[test]
    fn truncated_stat_line_is_rejected() {
        assert_eq!(parse_stat("12 (x) S 1 2 3"), None);
        assert_eq!(parse_stat("no parens at all"), None);
    }

    #[test]
    fn status_lookup() {
        let status = "Name:\tbenchmark\nVmPeak:\t  9000 kB\nVmHWM:\t  1234 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(status_kib(status, "VmHWM"), Some(1234));
        assert_eq!(status_kib(status, "VmRSS"), Some(1000));
        assert_eq!(status_kib(status, "VmSwap"), None);
    }

    #[test]
    fn live_probes_read_this_process() {
        let before = process_cpu().expect("process stat");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let after = process_cpu().expect("process stat");
        assert!(after.total() >= before.total());
        assert!(thread_cpu().expect("task stats").generator.total() >= 0.0);
        reset_peak_rss().expect("clear_refs");
        assert!(peak_rss_kib().expect("VmHWM") > 0);
    }
}
