//! The host's own speed, measured while the stack under test is idle.
//!
//! The reference host is shared: other tenants slow its CPUs by up to
//! 45 % for seconds to minutes at a time, which moves every timed metric
//! of a run by as much. A fixed loop of this file's own code — nothing of
//! the program — is timed before the set-ups, between rounds and after
//! the last round; the timed end-to-end metrics are then reported at the
//! speed at which that loop takes [`REFERENCE_PROBE_MS`]. The loop runs
//! only while no op is in flight. If the stack's own threads use CPU
//! during a probe, that would slow the probe and hide part of a
//! regression, so it is measured and reported as a failure.

use std::time::Instant;

/// The probe's time on the reference host in a quiet phase, in ms.
pub const REFERENCE_PROBE_MS: f64 = 10.0;
/// The share of probe time the rest of the process may spend on a CPU.
pub const IDLE_CPU_LIMIT: f64 = 0.05;

/// Probe times of one run, and what the rest of the process did during
/// them.
#[derive(Debug, Default)]
pub struct HostSpeed {
    /// Each probe's time, ms.
    probes: Vec<f64>,
    /// Wall time spent probing, s.
    wall: f64,
    /// CPU time the process's other threads used meanwhile, s.
    others_cpu: f64,
}

impl HostSpeed {
    /// Times the loop three times and records the median.
    pub fn probe(&mut self) {
        let (cpu_before, own_before) = (process_cpu(), thread_cpu());
        let started = Instant::now();
        let mut times: Vec<f64> = (0..3).map(|_| timed_loop()).collect();
        self.wall += started.elapsed().as_secs_f64();
        self.others_cpu += (process_cpu() - cpu_before) - (thread_cpu() - own_before);
        times.sort_by(f64::total_cmp);
        self.probes.push(times[1]);
    }

    pub fn probes(&self) -> &[f64] {
        &self.probes
    }

    /// How much slower than the reference the host ran: the median probe
    /// time over [`REFERENCE_PROBE_MS`]; 1 when nothing was probed. A
    /// timed value divided by this is what it would have read on the
    /// reference host.
    pub fn slowdown(&self) -> f64 {
        if self.probes.is_empty() {
            return 1.0;
        }
        crate::stats::median(&self.probes) / REFERENCE_PROBE_MS
    }

    /// The share of probe time the process's other threads spent on a CPU.
    pub fn others_busy(&self) -> f64 {
        if self.wall > 0.0 {
            self.others_cpu / self.wall
        } else {
            0.0
        }
    }
}

/// About 10 ms of integer and memory work on the reference host: an
/// xorshift stream folded into a 256 KiB buffer, which is rotated after
/// every pass.
fn timed_loop() -> f64 {
    let started = Instant::now();
    let mut buf = vec![0u64; 32 * 1024];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for pass in 0..100 {
        for v in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = v.wrapping_add(x);
            acc = acc.wrapping_mul(0x0000_0100_0000_01b3) ^ *v;
        }
        buf.rotate_left(pass + 1);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

#[cfg(target_os = "linux")]
fn cpu_clock(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // the 64-bit Linux targets this builds for), and clock_gettime writes
    // only into it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc == 0 {
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    } else {
        0.0
    }
}

#[cfg(target_os = "linux")]
fn process_cpu() -> f64 {
    cpu_clock(2) // CLOCK_PROCESS_CPUTIME_ID
}

#[cfg(target_os = "linux")]
fn thread_cpu() -> f64 {
    cpu_clock(3) // CLOCK_THREAD_CPUTIME_ID
}

#[cfg(not(target_os = "linux"))]
fn process_cpu() -> f64 {
    0.0
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu() -> f64 {
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_see_other_threads_spending_cpu() {
        let mut idle = HostSpeed::default();
        idle.probe();
        assert_eq!(idle.probes().len(), 1);
        assert!(idle.slowdown() > 0.0);

        let stop = std::sync::atomic::AtomicBool::new(false);
        let mut busy = HostSpeed::default();
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
            busy.probe();
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert!(
            busy.others_busy() > IDLE_CPU_LIMIT,
            "a spinning thread used {:.3} of probe time",
            busy.others_busy()
        );
    }
}
