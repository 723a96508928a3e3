//! Sample statistics, seeded Zipf draws, and process probes shared by
//! every workload.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::{Duration, Instant};
use taxrec_taxonomy::ZipfWeights;

/// Percentile `q` (0..=1) of `samples` by nearest rank; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Durations as milliseconds.
pub fn ms(d: &[Duration]) -> Vec<f64> {
    d.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Durations as microseconds.
pub fn us(d: &[Duration]) -> Vec<f64> {
    d.iter().map(|d| d.as_secs_f64() * 1e6).collect()
}

/// The rate `ops / secs` of each unit of fixed work (a batch call, an
/// epoch, a round).
pub fn unit_rates(units: impl IntoIterator<Item = (f64, f64)>) -> Vec<f64> {
    units
        .into_iter()
        .map(|(ops, secs)| ops / secs.max(1e-9))
        .collect()
}

/// Zipf-distributed ids over `0..n`: ranks drawn by
/// [`taxrec_taxonomy::ZipfWeights`], mapped through a seeded shuffle
/// so the hot ids are not simply the lowest ones.
#[derive(Debug)]
pub struct ZipfIds {
    ranks: ZipfWeights,
    ids: Vec<usize>,
}

impl ZipfIds {
    /// Ids `0..n` with skew `s`, ranked by a permutation drawn from `rng`.
    pub fn new(n: usize, s: f64, rng: &mut StdRng) -> ZipfIds {
        let mut ids: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        ZipfIds {
            ranks: ZipfWeights::new(n, s),
            ids,
        }
    }

    /// One draw.
    pub fn draw(&self, rng: &mut StdRng) -> usize {
        self.ids[self.ranks.sample(rng)]
    }
}

/// Peak resident set size of this process so far, MiB
/// (`getrusage(RUSAGE_SELF).ru_maxrss`).
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the 64-bit Linux `struct rusage` layout
    // (two timevals, then fourteen longs), and the call only writes it.
    let ok = unsafe { getrusage(0, &mut u) } == 0;
    if ok {
        u.maxrss_kb as f64 / 1024.0
    } else {
        0.0
    }
}

/// A CPU affinity mask (up to 1024 CPUs) of the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuMask([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl CpuMask {
    /// The calling thread's current mask, if the OS reports one.
    pub fn current() -> Option<CpuMask> {
        let mut m = [0u64; 16];
        // SAFETY: the kernel writes at most `size_of_val(&m)` bytes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&m), m.as_mut_ptr()) };
        (rc == 0).then_some(CpuMask(m))
    }

    /// The mask holding only the `n`-th CPU of `self` (counting from
    /// 0, wrapping around when `self` has fewer CPUs).
    pub fn nth_cpu(&self, n: usize) -> Option<CpuMask> {
        let cpus: Vec<usize> = (0..1024)
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        let cpu = *cpus.get(n % cpus.len().max(1))?;
        let mut m = [0u64; 16];
        m[cpu / 64] = 1 << (cpu % 64);
        Some(CpuMask(m))
    }

    /// Bind the calling thread (and threads it spawns later) to `self`.
    pub fn apply(&self) -> bool {
        // SAFETY: the kernel only reads the mask.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
    }
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn percentiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn zipf_draws_are_seeded_and_skewed() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let z = ZipfIds::new(100, 1.0, &mut rng);
            (0..2000).map(|_| z.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let d = draw(3);
        let mut counts = vec![0; 100];
        d.iter().for_each(|&i| counts[i] += 1);
        counts.sort_unstable();
        assert!(counts[99] > 10 * counts[50].max(1));
    }

    #[test]
    fn unit_rates_divide_ops_by_time() {
        assert_eq!(unit_rates([(10.0, 2.0), (3.0, 1.0)]), [5.0, 3.0]);
    }
}
