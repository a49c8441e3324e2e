//! Readers for the `/proc/<pid>` files the per-layer server metrics
//! come from, plus the host fingerprint. Parsers take the file text so
//! they can be tested on canned files.

use std::path::Path;

/// Linux reports `utime`/`stime` in USER_HZ ticks, which is 100 on every
/// mainstream architecture.
pub const TICK_NS: u64 = 10_000_000;

/// The counters of one process the benchmark differences over the timed
/// phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    pub utime: u64,
    pub stime: u64,
    pub syscr: u64,
    pub syscw: u64,
    pub write_bytes: u64,
    pub ctx_switches: u64,
    pub vm_hwm_kb: u64,
}

impl Sample {
    pub fn delta(&self, before: &Sample) -> Sample {
        Sample {
            utime: self.utime.saturating_sub(before.utime),
            stime: self.stime.saturating_sub(before.stime),
            syscr: self.syscr.saturating_sub(before.syscr),
            syscw: self.syscw.saturating_sub(before.syscw),
            write_bytes: self.write_bytes.saturating_sub(before.write_bytes),
            ctx_switches: self.ctx_switches.saturating_sub(before.ctx_switches),
            vm_hwm_kb: self.vm_hwm_kb,
        }
    }

    pub fn add(&mut self, other: &Sample) {
        self.utime += other.utime;
        self.stime += other.stime;
        self.syscr += other.syscr;
        self.syscw += other.syscw;
        self.write_bytes += other.write_bytes;
        self.ctx_switches += other.ctx_switches;
        self.vm_hwm_kb += other.vm_hwm_kb;
    }
}

/// `(utime, stime)` in ticks from `/proc/<pid>/stat`. The command name
/// may hold spaces and parentheses, so fields are counted from the last
/// `)`.
pub fn parse_stat(text: &str) -> Result<(u64, u64), String> {
    let rest = &text[text.rfind(')').ok_or("stat: no ')' after comm")? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let field = |i: usize| -> Result<u64, String> {
        fields
            .get(i - 3)
            .ok_or(format!("stat: missing field {i}"))?
            .parse()
            .map_err(|e| format!("stat field {i}: {e}"))
    };
    Ok((field(14)?, field(15)?))
}

fn key_values(text: &str) -> impl Iterator<Item = (&str, u64)> {
    text.lines().filter_map(|line| {
        let (key, value) = line.split_once(':')?;
        let number = value.split_ascii_whitespace().next()?.parse().ok()?;
        Some((key.trim(), number))
    })
}

fn require(text: &str, file: &str, key: &str) -> Result<u64, String> {
    key_values(text)
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
        .ok_or(format!("{file}: no {key} field"))
}

/// Fill the `/proc/<pid>/io` fields of `sample`.
pub fn parse_io(text: &str, sample: &mut Sample) -> Result<(), String> {
    sample.syscr = require(text, "io", "syscr")?;
    sample.syscw = require(text, "io", "syscw")?;
    sample.write_bytes = require(text, "io", "write_bytes")?;
    Ok(())
}

/// Peak resident set (`VmHWM`, kB) from `/proc/<pid>/status`.
pub fn parse_hwm_kb(text: &str) -> Result<u64, String> {
    require(text, "status", "VmHWM")
}

/// Voluntary plus involuntary context switches of one task's `status`.
pub fn parse_ctx_switches(text: &str) -> Result<u64, String> {
    Ok(require(text, "status", "voluntary_ctxt_switches")?
        + require(text, "status", "nonvoluntary_ctxt_switches")?)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Sample process `pid` ("self" for this process). Context switches
/// are per task in Linux, so they are summed over every live thread.
pub fn sample(pid: &str) -> Result<Sample, String> {
    let dir = Path::new("/proc").join(pid);
    let mut s = Sample::default();
    (s.utime, s.stime) = parse_stat(&read(&dir.join("stat"))?)?;
    parse_io(&read(&dir.join("io"))?, &mut s)?;
    s.vm_hwm_kb = parse_hwm_kb(&read(&dir.join("status"))?)?;
    let tasks = std::fs::read_dir(dir.join("task")).map_err(|e| format!("task dir: {e}"))?;
    for task in tasks.flatten() {
        // A thread that exits between listing and reading just drops out.
        if let Ok(text) = std::fs::read_to_string(task.path().join("status")) {
            s.ctx_switches += parse_ctx_switches(&text)?;
        }
    }
    Ok(s)
}

/// Filesystem type of the mount holding `path`, from a `mounts` table:
/// the longest mount point that is a prefix of the path.
pub fn fs_type_of(mounts: &str, path: &Path) -> String {
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut words = line.split_ascii_whitespace();
        let (Some(_dev), Some(point), Some(fs)) = (words.next(), words.next(), words.next()) else {
            continue;
        };
        if path.starts_with(point) && best.is_none_or(|(len, _)| point.len() >= len) {
            best = Some((point.len(), fs));
        }
    }
    best.map_or("unknown", |(_, fs)| fs).to_string()
}

/// The host the numbers were measured on.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub data_dir_fs: String,
}

pub fn host(data_dir: &Path) -> Host {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':').map(|x| x.1))
        .unwrap_or("unknown")
        .trim()
        .to_string();
    let dir = std::fs::canonicalize(data_dir).unwrap_or_else(|_| data_dir.to_path_buf());
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model,
        kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .unwrap_or_default()
            .trim()
            .to_string(),
        data_dir_fs: fs_type_of(
            &std::fs::read_to_string("/proc/self/mounts").unwrap_or_default(),
            &dir,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (serve (x) y) S 1 4242 4242 0 -1 4194560 312 0 0 0 \
                        731 96 0 0 20 0 3 0 5124 25165824 1024 18446744073709551615";

    const IO: &str = "rchar: 1200\nwchar: 3400\nsyscr: 56\nsyscw: 78\n\
                      read_bytes: 0\nwrite_bytes: 8192\ncancelled_write_bytes: 0\n";

    const STATUS: &str = "Name:\tserve\nState:\tS (sleeping)\nVmPeak:\t  120000 kB\n\
                          VmHWM:\t    6144 kB\nVmRSS:\t    6000 kB\nThreads:\t3\n\
                          voluntary_ctxt_switches:\t150\nnonvoluntary_ctxt_switches:\t7\n";

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        assert_eq!(parse_stat(STAT), Ok((731, 96)));
        assert!(parse_stat("12 (serve) S 1").is_err());
        assert!(parse_stat("no paren at all").is_err());
    }

    #[test]
    fn io_fields_parse() {
        let mut s = Sample::default();
        parse_io(IO, &mut s).unwrap();
        assert_eq!((s.syscr, s.syscw), (56, 78));
        assert_eq!(s.write_bytes, 8192);
        assert!(parse_io("syscr: 1\n", &mut s).is_err());
    }

    #[test]
    fn status_fields_parse() {
        assert_eq!(parse_hwm_kb(STATUS), Ok(6144));
        assert_eq!(parse_ctx_switches(STATUS), Ok(157));
        assert!(parse_hwm_kb("Name:\tserve\n").is_err());
    }

    #[test]
    fn own_process_samples() {
        let s = sample("self").unwrap();
        assert!(s.vm_hwm_kb > 0);
        assert!(s.ctx_switches > 0);
    }

    #[test]
    fn fs_type_picks_the_longest_mount_prefix() {
        let mounts = "overlay / overlay rw 0 0\n\
                      /dev/vdb /data ext4 rw 0 0\n\
                      tmpfs /data/tmp tmpfs rw 0 0\n";
        assert_eq!(fs_type_of(mounts, Path::new("/data/x")), "ext4");
        assert_eq!(fs_type_of(mounts, Path::new("/data/tmp/y")), "tmpfs");
        assert_eq!(fs_type_of(mounts, Path::new("/datax")), "overlay");
        assert_eq!(fs_type_of("", Path::new("/x")), "unknown");
    }
}
