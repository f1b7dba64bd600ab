//! What the benchmark reads from the host: process resource usage and
//! the fingerprint that says which machine a result came from.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("simbench reads `struct rusage` with the 64-bit Linux layout");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Resource usage of the whole process, every thread included, also
/// the simulator's exited process threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// Kernel CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minflt: u64,
    /// Voluntary context switches.
    pub vol_csw: u64,
}

impl Usage {
    /// Reads the process's usage now.
    pub fn now() -> Usage {
        let mut raw = RawUsage::default();
        // SAFETY: `RawUsage` is `#[repr(C)]` with the 64-bit Linux layout of
        // `struct rusage` (checked by the `compile_error!` above), and the
        // pointer is to a live, writable value for the duration of the call.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
        );
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: secs(&raw.utime),
            sys_s: secs(&raw.stime),
            minflt: raw.minflt as u64,
            vol_csw: raw.nvcsw as u64,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Usage) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.minflt += other.minflt;
        self.vol_csw += other.vol_csw;
    }

    /// The least of each field of `self` and `other`.
    pub fn least(&self, other: &Usage) -> Usage {
        Usage {
            user_s: self.user_s.min(other.user_s),
            sys_s: self.sys_s.min(other.sys_s),
            minflt: self.minflt.min(other.minflt),
            vol_csw: self.vol_csw.min(other.vol_csw),
        }
    }

    /// The usage accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt - earlier.minflt,
            vol_csw: self.vol_csw - earlier.vol_csw,
        }
    }
}

/// The process's peak resident set so far, in KiB: `VmHWM` of
/// `/proc/self/status`. Not `ru_maxrss`, which Linux carries across
/// `execve`: under `cargo run` it would report cargo's own peak.
pub fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The host a result was measured on. Host times from two different
/// fingerprints are never compared.
#[derive(Debug)]
pub struct Fingerprint {
    /// `available_parallelism()`: CPUs this process may run on.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// Whether the engine's parker spins before it sleeps; it does when
    /// `available_parallelism() > 1`, and that changes the host path of
    /// every baton handoff.
    pub engine_spins: bool,
}

impl Fingerprint {
    /// Reads the fingerprint of this host. The benchmark never sets CPU
    /// affinity, so `nproc` is the host's, as any user run sees it.
    pub fn probe() -> Fingerprint {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| {
                let (key, value) = l.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
        Fingerprint {
            nproc,
            cpu_model,
            kernel,
            engine_spins: nproc > 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_resident_set_covers_what_is_resident() {
        let touched = std::hint::black_box(vec![1u8; 8 << 20]);
        let peak = peak_rss_kib().expect("Linux has VmHWM");
        assert!(peak >= 8 << 10, "peak {peak} KiB");
        drop(touched);
    }
}
