//! Process probes (CPU time, resident memory) and the hashing event
//! writer.

use std::io::Write;
use std::sync::{Arc, Mutex};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds the whole process has used so far, summed over all its
/// threads, including threads that have exited.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching the C layout through `repr(C)`),
    // and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Resident memory now (`VmRSS` of `/proc/self/status`), MiB.
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line in /proc/self/status");
    kb as f64 / 1024.0
}

/// The process's resident high-water mark (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let bytes = qlec_obs::peak_rss_bytes().expect("VmHWM line in /proc/self/status");
    bytes as f64 / (1024.0 * 1024.0)
}

/// [`host_probe_ms`] on the 2-vCPU VM the baseline was recorded on: the
/// host speed end-to-end times are corrected to.
pub const REFERENCE_PROBE_MS: f64 = 10.0;

/// Wall milliseconds of a fixed chain of 50 M dependent integer
/// multiply-adds: how fast the host runs code right now.
///
/// The host's speed drifts in waves of minutes, on every workload at
/// once. This probe drifts with it but does not depend on the program
/// under test, so scaling a run's times by `REFERENCE_PROBE_MS / probe`
/// removes most of the host's drift and keeps every change the program
/// makes. It touches no memory, so it does not move `peak_rss_mb`.
pub fn host_probe_ms() -> f64 {
    let t0 = std::time::Instant::now();
    let mut x = std::hint::black_box(1u64);
    for i in 0..std::hint::black_box(50_000_000u64) {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// What the hashing writer saw of an event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamDigest {
    /// FNV-1a of every byte, as `qlec_corpus::fnv1a64` computes it.
    pub fnv: u64,
    /// Lines, the schema header included.
    pub lines: u64,
    /// `FaultInjected` event lines.
    pub faults: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FAULT_PREFIX: &[u8] = b"{\"FaultInjected\"";

/// A bit bucket that hashes what it is given, so the event stream is
/// checked without being stored. The digest is published at each
/// `flush`.
pub struct HashWriter {
    digest: StreamDigest,
    /// Bytes of the current line seen so far, and whether they still
    /// match [`FAULT_PREFIX`].
    line_pos: usize,
    prefix_ok: bool,
    out: Arc<Mutex<StreamDigest>>,
}

impl HashWriter {
    /// A writer publishing into `out`.
    pub fn new(out: Arc<Mutex<StreamDigest>>) -> Self {
        HashWriter {
            digest: StreamDigest {
                fnv: FNV_OFFSET,
                ..StreamDigest::default()
            },
            line_pos: 0,
            prefix_ok: true,
            out,
        }
    }
}

impl Write for HashWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.digest.fnv = (self.digest.fnv ^ b as u64).wrapping_mul(FNV_PRIME);
            if b == b'\n' {
                self.digest.lines += 1;
                self.line_pos = 0;
                self.prefix_ok = true;
                continue;
            }
            if self.line_pos < FAULT_PREFIX.len() {
                self.prefix_ok &= b == FAULT_PREFIX[self.line_pos];
                if self.prefix_ok && self.line_pos + 1 == FAULT_PREFIX.len() {
                    self.digest.faults += 1;
                }
            }
            self.line_pos += 1;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        *self.out.lock().expect("stream digest lock poisoned") = self.digest;
        Ok(())
    }
}
