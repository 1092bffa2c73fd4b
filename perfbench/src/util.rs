//! Small helpers: a seeded RNG, order statistics and `/proc/self` probes.

use std::time::Duration;

/// SplitMix64: a tiny seeded generator, so every input the benchmark makes
/// depends on `--seed` alone.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BA5E_D00D_F00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly random permutation of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u32 + 1) as usize;
            perm.swap(i, j);
        }
        perm
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of the samples (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in `(0, 1]`) of the samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Counters that tell a noisy run from a slow one: involuntary context
/// switches of the main thread (`/proc/self/status`) and minor page faults
/// of the whole process (`/proc/self/stat`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Noise {
    pub involuntary_ctx_switches: u64,
    pub minor_faults: u64,
}

impl Noise {
    pub fn read() -> Noise {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; minflt is field 10.
        let minor_faults = stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().nth(7))
            .and_then(|f| f.parse().ok())
            .unwrap_or(0);
        Noise {
            involuntary_ctx_switches: status_field(&status, "nonvoluntary_ctxt_switches:"),
            minor_faults,
        }
    }

    pub fn since(self, start: Noise) -> Noise {
        Noise {
            involuntary_ctx_switches: self
                .involuntary_ctx_switches
                .saturating_sub(start.involuntary_ctx_switches),
            minor_faults: self.minor_faults.saturating_sub(start.minor_faults),
        }
    }
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") as f64 / 1024.0
}
