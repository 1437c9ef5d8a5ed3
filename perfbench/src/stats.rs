//! Pure helpers: the percentile rule, geometric means, the seeded request
//! order, and result fingerprints. Everything here is deterministic and is
//! covered by the self-tests at the bottom of the file.

use legobase::storage::Value;
use legobase::ResultTable;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100] of `sorted` (ascending), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it — a tail figure
/// backed by a handful of samples is noise, so it is not reported.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.max(1) - 1;
    (sorted.len() - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// Fewest samples a run needs so that percentile `p` can be reported.
pub fn samples_needed(p: f64) -> usize {
    (1..).find(|&n| percentile(&vec![0.0; n], p).is_some()).expect("some n qualifies")
}

/// Median (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty() && values.iter().all(|v| *v > 0.0), "geomean needs positives");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// SplitMix64: a tiny, fully specified generator, so the request order
/// depends on the seed alone and never on a library's version.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The request stream of one client: pass after pass, each pass a fresh
/// seeded permutation of `queries`. `stream` separates the clients of one
/// run (connection 0, 1, …) so that each sends its own order.
pub struct Passes {
    rng: Rng,
    queries: Vec<usize>,
}

impl Passes {
    pub fn new(queries: &[usize], seed: u64, stream: u64) -> Passes {
        let mixed = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        Passes { rng: Rng::new(mixed), queries: queries.to_vec() }
    }

    pub fn next_pass(&mut self) -> Vec<usize> {
        let mut pass = self.queries.clone();
        self.rng.shuffle(&mut pass);
        pass
    }
}

/// FNV-1a, for fingerprints and cache keys.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Order-sensitive, bit-exact fingerprint of a result. A response whose
/// fingerprint equals that of a response already verified against the
/// reference is the same result bit for bit, so it is correct too; any
/// other response is compared with the reference in full.
pub fn fingerprint(result: &ResultTable) -> u64 {
    let mut h = Fnv::default();
    h.write(&(result.len() as u64).to_le_bytes());
    for row in result.rows() {
        h.write(&(row.len() as u64).to_le_bytes());
        for v in row {
            match v {
                Value::Null => h.write(&[0]),
                Value::Int(i) => {
                    h.write(&[1]);
                    h.write(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    h.write(&[2]);
                    h.write(&f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    h.write(&[3]);
                    h.write(&(s.len() as u64).to_le_bytes());
                    h.write(s.as_bytes());
                }
                Value::Date(d) => {
                    h.write(&[4]);
                    h.write(&d.0.to_le_bytes());
                }
                Value::Bool(b) => h.write(&[5, u8::from(*b)]),
            }
        }
    }
    h.finish()
}

fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Starts a fresh peak-RSS measurement: returns the heap's free pages to
/// the kernel, then resets `VmHWM` to the current resident set.
pub fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` only releases free heap memory back to
    // the kernel; it takes no pointer and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v[..99], 90.0), None, "99 samples leave 9 beyond p90");
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        // A 2x win on one of two queries moves the geomean by sqrt(2).
        let before = geomean(&[1.0, 100.0]);
        let after = geomean(&[0.5, 100.0]);
        assert!((before / after - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn request_order_is_determined_by_the_seed() {
        let qs: Vec<usize> = (1..=22).collect();
        let run = |seed, stream| {
            let mut p = Passes::new(&qs, seed, stream);
            (0..5).map(|_| p.next_pass()).collect::<Vec<_>>()
        };
        assert_eq!(run(7, 0), run(7, 0));
        assert_ne!(run(7, 0), run(8, 0));
        assert_ne!(run(7, 0), run(7, 1), "each client stream has its own order");
        for pass in run(7, 0) {
            let mut sorted = pass.clone();
            sorted.sort();
            assert_eq!(sorted, qs, "every pass is a permutation of the query set");
        }
        let passes = run(7, 0);
        assert_ne!(passes[0], passes[1], "passes differ from one another");
    }

    #[test]
    fn fingerprints_are_bit_exact() {
        use legobase::storage::RowTable;
        let table = |v: Value| {
            ResultTable(RowTable { rows: vec![vec![Value::Int(1), v]], ..Default::default() })
        };
        let a = table(Value::Float(0.1 + 0.2));
        assert_eq!(fingerprint(&a), fingerprint(&table(Value::Float(0.1 + 0.2))));
        assert_ne!(fingerprint(&a), fingerprint(&table(Value::Float(0.3))));
        assert_ne!(fingerprint(&table(Value::Int(3))), fingerprint(&table(Value::Float(3.0))));
    }
}
