//! Host descriptor and process accounting read from `/proc`.

use std::process::Command;

/// User-visible clock ticks per second of `/proc/<pid>/stat` (`USER_HZ`);
/// fixed at 100 on every Linux ABI.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, all threads,
/// exited ones included.
///
/// `CLOCK_PROCESS_CPUTIME_ID` is the scheduler's exact run-time sum.
/// `/proc/self/stat` is not a substitute where the clock exists: its
/// utime/stime are sampled on the timer tick, which misjudges threads that
/// run in sub-millisecond bursts (every thread of the wire workload) by
/// tens of percent from run to run.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    }
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live local laid out as 64-bit Linux's
    // `struct timespec` (two 64-bit longs), and the call only writes to it.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) } != 0 {
        return 0.0;
    }
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

/// Tick-sampled fallback for hosts without the clock above.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| -> f64 {
        fields
            .get(field - 3)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0) as f64
    };
    (ticks(14) + ticks(15)) / CLK_TCK
}

/// High-water mark of the resident set, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name") || line.starts_with("Model"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything needed to tell which machine and build produced a number.
#[derive(Clone, Debug)]
pub struct HostInfo {
    pub nproc: usize,
    pub cpu_model: String,
    pub simd_backend: &'static str,
    pub rustc: String,
    pub git_commit: String,
}

impl HostInfo {
    pub fn gather() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu_model: cpu_model(),
            simd_backend: pir_prf::SimdBackend::active().label(),
            rustc: first_line_of("rustc", &["--version"]),
            // The driver's checkout is not a git repository; "unknown" is
            // the honest answer there.
            git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
        }
    }

    pub fn to_json(&self) -> String {
        use crate::metrics::json_string;
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"simd_backend\": {}, \"rustc\": {}, \"git_commit\": {}}}",
            self.nproc,
            json_string(&self.cpu_model),
            json_string(self.simd_backend),
            json_string(&self.rustc),
            json_string(&self.git_commit)
        )
    }
}
