//! Host-side counters: CPU time and context switches from `getrusage`,
//! allocation calls from a counting global allocator, peak RSS and the
//! kernel's UDP and loopback counters from `/proc`. Linux only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s followed by fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux rusage and /proc counters (64-bit Linux only)");

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

/// CPU time and context switches of the process or of one thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_ns: u64,
    pub sys_ns: u64,
    pub ctx_switches: u64,
}

impl Usage {
    pub fn cpu_ns(&self) -> u64 {
        self.user_ns + self.sys_ns
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_ns: self.user_ns - earlier.user_ns,
            sys_ns: self.sys_ns - earlier.sys_ns,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

fn usage(who: i32) -> Usage {
    let mut ru = RawRusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the layout
    // the 64-bit Linux ABI specifies (the compile_error above rules out
    // every other target), and `who` is RUSAGE_SELF or RUSAGE_THREAD,
    // both valid on Linux. getrusage writes only inside `*usage`.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let ns = |t: &Timeval| t.tv_sec as u64 * 1_000_000_000 + t.tv_usec as u64 * 1_000;
    Usage {
        user_ns: ns(&ru.ru_utime),
        sys_ns: ns(&ru.ru_stime),
        ctx_switches: (ru.ru_nvcsw + ru.ru_nivcsw) as u64,
    }
}

/// Whole-process usage, every thread included.
pub fn process_usage() -> Usage {
    usage(RUSAGE_SELF)
}

/// Usage of the calling thread only.
pub fn thread_usage() -> Usage {
    usage(RUSAGE_THREAD)
}

/// The system allocator, counting allocation calls while
/// [`count_allocs`] is on. Off, it costs one relaxed load per call.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// update allocates nothing and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turn allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation calls counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The kernel's view of this network namespace's UDP traffic.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelNet {
    /// `Udp: OutDatagrams` from `/proc/net/snmp`.
    pub udp_out: u64,
    /// `Udp: InErrors` (receive-buffer overflows included).
    pub udp_in_errors: u64,
    /// Bytes transmitted on `lo`, from `/proc/net/dev`.
    pub lo_tx_bytes: u64,
}

impl KernelNet {
    /// Read the counters; `None` when `/proc/net` is not readable.
    pub fn read() -> Option<KernelNet> {
        let snmp = std::fs::read_to_string("/proc/net/snmp").ok()?;
        let mut udp = snmp.lines().filter(|l| l.starts_with("Udp:"));
        let names: Vec<&str> = udp.next()?.split_whitespace().collect();
        let values: Vec<&str> = udp.next()?.split_whitespace().collect();
        let field = |name: &str| -> Option<u64> {
            let i = names.iter().position(|n| *n == name)?;
            values.get(i)?.parse().ok()
        };
        let dev = std::fs::read_to_string("/proc/net/dev").ok()?;
        let lo = dev
            .lines()
            .find_map(|l| l.trim_start().strip_prefix("lo:"))?;
        // Receive: bytes packets errs drop fifo frame compressed multicast;
        // then transmit bytes.
        let lo_tx_bytes = lo.split_whitespace().nth(8)?.parse().ok()?;
        Some(KernelNet {
            udp_out: field("OutDatagrams")?,
            udp_in_errors: field("InErrors")?,
            lo_tx_bytes,
        })
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &KernelNet) -> KernelNet {
        KernelNet {
            udp_out: self.udp_out - earlier.udp_out,
            udp_in_errors: self.udp_in_errors - earlier.udp_in_errors,
            lo_tx_bytes: self.lo_tx_bytes - earlier.lo_tx_bytes,
        }
    }
}
