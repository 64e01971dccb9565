//! `profile <sim_dense|sim_stream|figure> [seconds=10]` runs the benchmark's
//! simulator points (`benchmark/src/inputs.rs`) or a `FIGURES` row in rounds
//! for `seconds`, samples each millisecond of CPU time (`setitimer(ITIMER_PROF)`)
//! and prints each sample in the text as a hex offset from the executable's
//! offset-0 mapping, for `addr2line` (`scripts/profile.sh`). `imp` holds the
//! `unsafe`, as `hfs_serve::signal` does: the workspace has no `libc`.

#![deny(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

use hfs_bench::experiments::Figure;
use hfs_core::{DesignPoint as D, MachineConfig};
use hfs_harness::{execute_once, Job};
use hfs_mem::Protocol;

static IPS: [AtomicUsize; 1 << 16] = [const { AtomicUsize::new(0) }; 1 << 16];
static TAKEN: AtomicUsize = AtomicUsize::new(0);

/// Disarms the timer (the handler stays) and returns the samples.
fn stop() -> Vec<usize> {
    let _ = imp::set_timer(0);
    let n = TAKEN.load(Relaxed).min(IPS.len());
    IPS[..n].iter().map(|ip| ip.load(Relaxed)).collect()
}

/// The executable's load base and its text mapping, from `/proc/self/maps`.
fn text_mapping() -> Option<(usize, std::ops::Range<usize>)> {
    let exe = std::env::current_exe().ok()?;
    let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
    let hex = |s: &str| usize::from_str_radix(s, 16).ok();
    let range = |f: Vec<&str>| {
        let (lo, hi) = f[0].split_once('-')?;
        Some(hex(lo)?..hex(hi)?)
    };
    let mut mine = (maps.lines())
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .filter(|f| f.len() == 6 && std::path::Path::new(f[5]) == exe);
    // Mappings are listed by address, and an ELF file's first segment
    // starts at offset 0: the base `addr2line` offsets are taken from.
    let base = range(mine.next()?)?.start;
    Some((base, range(mine.find(|f| f[1].contains('x'))?)?))
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    #![allow(unsafe_code)]
    use std::ptr::null_mut;
    use std::sync::atomic::Ordering::Relaxed;

    type Handler = extern "C" fn(i32, *const u8, *const u8);
    /// glibc's `struct sigaction`: handler, 1024-bit mask, flags, restorer.
    #[repr(C)]
    struct SigAction(Handler, [u64; 16], i32, usize);

    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const [i64; 4], old: *mut [i64; 4]) -> i32;
    }

    /// Stores one sample with atomics only (async-signal-safe). `Relaxed`
    /// publishes nothing else: a sample `stop` reads mid-store reads 0.
    extern "C" fn on_prof(_signum: i32, _info: *const u8, ctx: *const u8) {
        // SAFETY: under SA_SIGINFO `ctx` is the kernel's `ucontext_t`, which
        // on x86-64 holds the interrupted `rip` as an aligned word at byte
        // 168 (flags, link, a 24-byte stack, then `gregs[REG_RIP = 16]`).
        let ip = unsafe { ctx.add(168).cast::<usize>().read() };
        if let Some(slot) = super::IPS.get(super::TAKEN.fetch_add(1, Relaxed)) {
            slot.store(ip, Relaxed);
        }
    }

    /// Samples every `us` microseconds of CPU time; 0 disarms.
    pub fn set_timer(us: u64) -> std::io::Result<()> {
        let (sigprof, itimer_prof, sa_siginfo_restart) = (27, 2, 0x1000_0004);
        let act = SigAction(on_prof, [0; 16], sa_siginfo_restart, 0);
        let tv = [(us / 1_000_000) as i64, (us % 1_000_000) as i64];
        // SAFETY: the structs match the C layouts (`itimerval` is two
        // `timeval`s, interval then first expiry), outlive the calls,
        // which copy them, and a null `old` asks for no previous value.
        let ok = unsafe {
            sigaction(sigprof, &act, null_mut()) == 0
                && setitimer(itimer_prof, &[tv[0], tv[1], tv[0], tv[1]], null_mut()) == 0
        };
        ok.then_some(()).ok_or_else(std::io::Error::last_os_error)
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    pub fn set_timer(_us: u64) -> std::io::Result<()> {
        Err(std::io::ErrorKind::Unsupported.into())
    }
}

/// The points of `sim_dense` and `sim_stream`, keyed as in `benchmark/goldens.json`.
const SIM_DENSE: &str = "fir/EXISTING@20000 mcf/EXISTING@5000 wc/EXISTING@20000 \
    fir/EXISTING/dragon@20000";
const SIM_STREAM: &str = "fir/SYNCOPTI+SC+Q64@20000 fir/HEAVYWT@20000 \
    mcf/SYNCOPTI+SC+Q64@5000 mcf/HEAVYWT@5000 wc/HEAVYWT@20000";

fn sim_points(workload: &str) -> Option<Vec<Job>> {
    let points = [("sim_dense", SIM_DENSE), ("sim_stream", SIM_STREAM)]
        .into_iter()
        .find_map(|(name, points)| (name == workload).then_some(points))?;
    let designs = [D::existing(), D::syncopti_sc_q64(), D::heavywt()];
    let job = |key: &str| {
        let (label, iterations) = key.split_once('@').expect("label@iterations");
        let f: Vec<&str> = label.split('/').collect();
        let design = designs.into_iter().find(|d| d.label() == f[1]);
        let mut cfg = MachineConfig::itanium2_cmp(design.expect("a listed design"));
        if label.ends_with("/dragon") {
            cfg.mem.protocol = Protocol::Dragon;
        }
        let b = hfs_workloads::benchmark(f[0]).expect("a registered benchmark");
        let iterations = iterations.parse().expect("an iteration count");
        Job::pipeline(label, b.with_iterations(iterations).pair, cfg)
    };
    Some(points.split_whitespace().map(job).collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let (jobs, figure) = (sim_points(name), Figure::named(name));
    let seconds = args.get(1).map_or(Ok(10), |s| s.parse());
    let (Ok(seconds), true) = (seconds, jobs.is_some() || figure.is_some()) else {
        eprintln!("usage: profile <sim_dense|sim_stream|figure> [seconds=10]");
        std::process::exit(2);
    };
    let (base, text) = text_mapping().expect("the executable's mappings");
    imp::set_timer(1_000).expect("start the profiling timer");
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs(seconds) {
        for job in jobs.iter().flatten() {
            execute_once(job).unwrap_or_else(|e| panic!("{}: {e}", job.label));
        }
        if let Some(fig) = figure {
            (fig.run)();
        }
    }
    let inside: Vec<usize> = stop().into_iter().filter(|ip| text.contains(ip)).collect();
    for ip in &inside {
        println!("{:x}", ip - base);
    }
    let (taken, kept) = (TAKEN.load(Relaxed), inside.len());
    eprintln!("profile: {name}: {taken} samples, {kept} in the text");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    /// About 0.5 s of CPU time at one sample per 5 ms. This binary holds
    /// no other test, so no other thread burns CPU time the timer could
    /// sample, and the clock is read rarely, so (almost) every sample
    /// lands in the loop itself.
    #[test]
    fn a_busy_loop_is_sampled_inside_the_text_mapping() {
        let (base, text) = text_mapping().expect("the test binary's mappings");
        assert!(base <= text.start);
        imp::set_timer(5_000).expect("start the profiling timer");
        let started = Instant::now();
        let mut x = 0u64;
        for chunk in 0u64.. {
            for i in 0..1_000_000 {
                x = black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            let give_up = chunk % 64 == 63 && started.elapsed() > Duration::from_secs(20);
            if TAKEN.load(Relaxed) >= 100 || give_up {
                break;
            }
        }
        let ips = stop();
        assert!(!ips.is_empty(), "no sample in {:?}", started.elapsed());
        let outside: Vec<&usize> = ips.iter().filter(|ip| !text.contains(ip)).collect();
        assert!(outside.is_empty(), "{outside:x?} lie outside {text:x?}");
    }
}
