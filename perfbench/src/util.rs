//! Small shared helpers: a seeded RNG, order statistics, and process
//! memory readings.

/// SplitMix64: tiny, seedable, and independent of the workspace's RNG so
/// the benchmark's own draws never perturb the corpus generators.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples; 0 when
/// empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`, ...) in MiB.
pub fn proc_status_mb(pid: u32, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line
        .trim_start_matches(field)
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// `prctl(2)` with one integer argument (`PR_SET_TIMERSLACK`,
/// `PR_SET_PDEATHSIG`, ...). Async-signal-safe, so usable between fork and
/// exec.
pub fn prctl1(option: i32, arg: u64) -> i32 {
    // SAFETY: the options used here take one integer argument and touch no
    // memory of ours; the kernel ignores the unused arguments.
    unsafe { prctl(option, arg, 0, 0, 0) }
}

/// A CPU set as `sched_setaffinity(2)` takes it (glibc's 1024-bit
/// `cpu_set_t`).
#[derive(Clone, Copy)]
#[repr(transparent)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

impl CpuSet {
    /// The calling thread's current CPU set.
    pub fn current() -> Result<CpuSet, String> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a writable buffer of exactly the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(set)
    }

    /// The set holding only the lowest-numbered CPU of `self`.
    pub fn first(&self) -> CpuSet {
        let mut one = CpuSet([0; 16]);
        if let Some(w) = self.0.iter().position(|&w| w != 0) {
            one.0[w] = 1 << self.0[w].trailing_zeros();
        }
        one
    }

    /// Restrict the calling thread (and the threads and processes it
    /// starts afterwards) to this set.
    pub fn apply(&self) -> Result<(), String> {
        // SAFETY: `self` is a readable buffer of exactly the size passed.
        if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self) } != 0 {
            return Err(format!(
                "sched_setaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(())
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    fn timerfd_create(clockid: i32, flags: i32) -> i32;
    fn timerfd_settime(fd: i32, flags: i32, new: *const Itimerspec, old: *mut Itimerspec) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// A one-shot monotonic `timerfd`: readable once armed time has passed, so
/// a poller can wait for sockets and a due time to the nanosecond.
pub struct Timer(i32);

impl Timer {
    pub fn new() -> Result<Timer, String> {
        const CLOCK_MONOTONIC: i32 = 1;
        const TFD_NONBLOCK: i32 = 0o4000;
        const TFD_CLOEXEC: i32 = 0o2000000;
        // SAFETY: plain syscall with integer arguments.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) };
        if fd < 0 {
            return Err(format!(
                "timerfd_create: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(Timer(fd))
    }

    pub fn fd(&self) -> i32 {
        self.0
    }

    /// Fire once, `after` from now (at least 1 ns: a zero value disarms).
    pub fn arm(&self, after: std::time::Duration) -> Result<(), String> {
        let after = after.max(std::time::Duration::from_nanos(1));
        let spec = Itimerspec {
            it_interval: Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: Timespec {
                tv_sec: after.as_secs() as i64,
                tv_nsec: after.subsec_nanos() as i64,
            },
        };
        // SAFETY: `spec` is a valid itimerspec; the old value is not asked for.
        if unsafe { timerfd_settime(self.0, 0, &spec, std::ptr::null_mut()) } != 0 {
            return Err(format!(
                "timerfd_settime: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(())
    }

    /// Consume an expiry so the fd stops polling readable.
    pub fn clear(&self) {
        let mut count = [0u8; 8];
        // SAFETY: reads at most 8 bytes into an 8-byte buffer; a
        // non-blocking read of an unexpired timer fails harmlessly.
        unsafe { read(self.0, count.as_mut_ptr(), count.len()) };
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        // SAFETY: the fd is owned by this value and closed once.
        unsafe { close(self.0) };
    }
}

/// A thread that spins at `SCHED_IDLE` priority for as long as the value
/// lives, so its CPU never goes idle. Any normal thread that wakes on that
/// CPU preempts it at once; what it saves is the idle CPU's wake-up (see
/// NOTES.md, "One CPU, kept awake").
pub struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> Result<KeepAwake, String> {
        use std::sync::atomic::Ordering;
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = stop.clone();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            const SCHED_IDLE: i32 = 5;
            let param = 0i32;
            // SAFETY: `param` is a valid sched_param (one int, priority 0).
            let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
            let _ = ready_tx.send(if rc == 0 {
                Ok(())
            } else {
                Err(format!(
                    "sched_setscheduler: {}",
                    std::io::Error::last_os_error()
                ))
            });
            if rc == 0 {
                while !flag.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }
        });
        let ready = ready_rx
            .recv()
            .unwrap_or_else(|_| Err("keep-awake thread died".into()));
        let awake = KeepAwake {
            stop,
            thread: Some(thread),
        };
        ready.map(|()| awake)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
