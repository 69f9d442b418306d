//! Measurement from outside the program: CPU clocks, a thread-attributed
//! counting allocator, and resident memory from `/proc/self`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// CPU clocks
// ---------------------------------------------------------------------------

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and both clock ids are defined on every Linux kernel.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + system) consumed by the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time (user + system) consumed by the whole process, ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// Wraps the system allocator and, while counting is switched on, counts
/// every allocation call (alloc, alloc_zeroed, realloc) process-wide and
/// per thread, except on threads of the benchmark's own that opted out.
/// Switched off, the cost is one relaxed load per call.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

// A `const`-initialised `Cell` is a plain TLS slot: reading it inside the
// allocator cannot itself allocate.
thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc() {
    // `try_with` fails only while the thread's TLS is being torn down.
    if COUNTING.load(Ordering::Relaxed) && !UNCOUNTED.try_with(Cell::get).unwrap_or(false) {
        PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` unchanged; the counting on the
// side touches only atomics and a const-initialised thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// Switch allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Leave the calling thread's allocations out of every count.
fn stop_counting_this_thread() {
    UNCOUNTED.with(|c| c.set(true));
}

/// Allocations counted process-wide so far.
pub fn process_allocs() -> u64 {
    PROCESS_ALLOCS.load(Ordering::Relaxed)
}

/// Allocations counted on the calling thread so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

// ---------------------------------------------------------------------------
// Resident memory
// ---------------------------------------------------------------------------

/// Current resident set size in bytes, from `/proc/self/status`.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .expect("VmRSS line in /proc/self/status")
        * 1024
}

/// Samples RSS on its own thread and keeps the peak since the last
/// [`RssSampler::take_peak`]. The sampler's allocations are not counted,
/// and it publishes its own CPU time so passes can leave it out.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    cpu_ns: Arc<AtomicU64>,
    handle: std::thread::JoinHandle<()>,
}

/// RSS sampling period.
const RSS_PERIOD: Duration = Duration::from_millis(5);

impl RssSampler {
    /// Start sampling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(rss_bytes()));
        let cpu_ns = Arc::new(AtomicU64::new(0));
        let (flag, max, cpu) = (stop.clone(), peak.clone(), cpu_ns.clone());
        let handle = std::thread::spawn(move || {
            stop_counting_this_thread();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(RSS_PERIOD);
                max.fetch_max(rss_bytes(), Ordering::Relaxed);
                cpu.store(thread_cpu_ns(), Ordering::Relaxed);
            }
        });
        RssSampler {
            stop,
            peak,
            cpu_ns,
            handle,
        }
    }

    /// CPU time the sampler thread has used, ns, as of its latest sample.
    pub fn cpu_ns(&self) -> u64 {
        self.cpu_ns.load(Ordering::Relaxed)
    }

    /// The peak RSS in bytes since the previous call (or the start), which
    /// restarts the peak from the current RSS.
    pub fn take_peak(&self) -> u64 {
        let now = rss_bytes();
        self.peak.swap(now, Ordering::Relaxed).max(now)
    }

    /// Stop sampling and wait for the sampler thread.
    pub fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("RSS sampler thread panicked");
    }
}
