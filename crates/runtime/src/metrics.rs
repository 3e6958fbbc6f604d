//! Lock-free serving metrics: counters, gauges, and fixed-bucket latency
//! histograms with p50/p95/p99, collected in a named registry that
//! serializes point-in-time snapshots as JSON.
//!
//! All hot-path operations are single atomic RMWs; the registry's maps are
//! only locked to *create or look up* an instrument (shards cache the
//! `Arc`s they use), so recording never contends with snapshotting.

use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depth, jobs in flight).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    high_water: AtomicI64,
}

impl Gauge {
    /// Sets the level and updates the high-water mark.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` and updates the high-water mark.
    pub fn add(&self, delta: i64) {
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever observed.
    pub fn high_water(&self) -> i64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds, in milliseconds: quarter-ms to
/// ~8 s, doubling — 16 buckets plus an implicit overflow bucket.
pub const LATENCY_BUCKETS_MS: [f64; 16] = [
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
    8192.0,
];

/// Fixed-bucket histogram over milliseconds. Quantiles are resolved to the
/// upper bound of the bucket containing the target rank, clamped to the
/// observed maximum, so estimates are conservative — never below the true
/// quantile, never above the max, and above the true quantile by at most
/// one bucket width.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum in integer microseconds, so it stays atomic.
    sum_us: AtomicU64,
    /// The exact maximum as `f64` bits: non-negative floats order like
    /// their bit patterns, so `fetch_max` on the bits keeps the largest.
    max_bits: AtomicU64,
}

impl Histogram {
    /// A histogram over the given ascending bucket upper bounds (ms).
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
        }
    }

    /// Records one observation, in milliseconds.
    pub fn record(&self, ms: f64) {
        // `> 0.0` also maps -0.0 to +0.0, whose bits order below every
        // positive float's.
        let ms = if ms.is_finite() && ms > 0.0 { ms } else { 0.0 };
        let idx = self.bounds.partition_point(|b| ms > *b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us
            .fetch_add((ms * 1000.0) as u64, Ordering::Relaxed);
        self.max_bits.fetch_max(ms.to_bits(), Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Largest observation, in milliseconds.
    pub fn max_ms(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Mean observation, in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / 1000.0 / n as f64
        }
    }

    /// Conservative quantile estimate in milliseconds for `q ∈ [0, 1]`:
    /// the containing bucket's upper bound, clamped to the observed max
    /// (0 when empty).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (bound, b) in self.bounds.iter().zip(&self.buckets) {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return bound.min(self.max_ms());
            }
        }
        // The overflow bucket resolves to the observed maximum.
        self.max_ms()
    }
}

/// Exact nearest-rank percentile over raw samples, in milliseconds —
/// the ground truth the fixed-bucket [`Histogram::quantile_ms`]
/// estimate is conservative against. `--trace-summary` computes this
/// from the per-job trace records (which make the exact answer free),
/// and a test cross-checks the histogram's bucket-bound answer never
/// undershoots it. Sorts a copy; 0 when empty.
pub fn exact_quantile_ms(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n) - 1;
    sorted[rank]
}

/// A named registry of counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns (creating on first use) the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counters
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns (creating on first use) the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauges
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns (creating on first use) the latency histogram called `name`,
    /// with the default [`LATENCY_BUCKETS_MS`] bounds.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histograms
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new(&LATENCY_BUCKETS_MS)))
            .clone()
    }

    /// A point-in-time snapshot of every instrument, as a JSON value tree:
    /// `{"counters": {..}, "gauges": {name: {value, high_water}},
    /// "histograms": {name: {count, mean_ms, p50_ms, p95_ms, p99_ms,
    /// max_ms}}}`.
    pub fn snapshot(&self) -> Value {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), Value::UInt(v.get())))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Value::Map(vec![
                        ("value".into(), Value::Int(v.get())),
                        ("high_water".into(), Value::Int(v.high_water())),
                    ]),
                )
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Value::Map(vec![
                        ("count".into(), Value::UInt(h.count())),
                        ("mean_ms".into(), Value::Float(h.mean_ms())),
                        ("p50_ms".into(), Value::Float(h.quantile_ms(0.50))),
                        ("p95_ms".into(), Value::Float(h.quantile_ms(0.95))),
                        ("p99_ms".into(), Value::Float(h.quantile_ms(0.99))),
                        ("max_ms".into(), Value::Float(h.max_ms())),
                    ]),
                )
            })
            .collect();
        Value::Map(vec![
            ("counters".into(), Value::Map(counters)),
            ("gauges".into(), Value::Map(gauges)),
            ("histograms".into(), Value::Map(histograms)),
        ])
    }

    /// [`MetricsRegistry::snapshot`] rendered as a JSON string.
    pub fn snapshot_json(&self) -> String {
        serde_json::to_string(&self.snapshot()).expect("metrics snapshot serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("jobs");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("jobs").get(), 5, "same instrument by name");

        let g = reg.gauge("depth");
        g.set(3);
        g.add(2);
        g.add(-4);
        assert_eq!(g.get(), 1);
        assert_eq!(g.high_water(), 5);
    }

    #[test]
    fn histogram_quantiles_are_conservative() {
        let h = Histogram::new(&LATENCY_BUCKETS_MS);
        // 90 fast observations, 10 slow: p50 must land in a fast bucket,
        // p99 in the slow one.
        for _ in 0..90 {
            h.record(0.3); // bucket (0.25, 0.5]
        }
        for _ in 0..10 {
            h.record(100.0); // bucket (64, 128]
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_ms(0.50), 0.5);
        // The slow bucket's bound (128) lies above every observation, so
        // the estimate clamps to the max.
        assert_eq!(h.quantile_ms(0.95), 100.0);
        assert_eq!(h.quantile_ms(0.99), 100.0);
        assert!(h.quantile_ms(0.50) <= h.quantile_ms(0.95));
        assert_eq!(h.max_ms(), 100.0);
        assert!((h.mean_ms() - (90.0 * 0.3 + 10.0 * 100.0) / 100.0).abs() < 0.01);
    }

    #[test]
    fn bucket_quantiles_never_undershoot_exact_nearest_rank() {
        // The histogram's answer is the containing bucket's upper bound
        // clamped to the max, so for any sample set it must be >= the
        // exact nearest-rank percentile, <= the max, and within one bucket
        // of the exact value.
        let samples: Vec<f64> = (0..500)
            .map(|i| {
                // A deterministic spread across several buckets, with a
                // heavy tail.
                let x = (i as f64 * 0.37) % 7.0;
                if i % 50 == 0 {
                    300.0 + x
                } else {
                    x
                }
            })
            .collect();
        let h = Histogram::new(&LATENCY_BUCKETS_MS);
        for &s in &samples {
            h.record(s);
        }
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_quantile_ms(&samples, q);
            let bucketed = h.quantile_ms(q);
            assert!(
                bucketed >= exact,
                "q={q}: bucket estimate {bucketed} undershoots exact {exact}"
            );
            assert!(
                bucketed <= h.max_ms(),
                "q={q}: bucket estimate {bucketed} exceeds the max {}",
                h.max_ms()
            );
            // Conservative by at most one bucket: the exact value lives in
            // the same bucket the estimate names.
            let bucket_floor = LATENCY_BUCKETS_MS
                .iter()
                .rev()
                .find(|&&b| b < bucketed)
                .copied()
                .unwrap_or(0.0);
            assert!(
                exact > bucket_floor || bucketed == exact,
                "q={q}: exact {exact} below the estimate's bucket ({bucket_floor}, {bucketed}]"
            );
        }
    }

    #[test]
    fn exact_quantile_is_nearest_rank() {
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(exact_quantile_ms(&samples, 0.5), 3.0);
        assert_eq!(exact_quantile_ms(&samples, 0.0), 1.0);
        assert_eq!(exact_quantile_ms(&samples, 1.0), 5.0);
        assert_eq!(exact_quantile_ms(&samples, 0.99), 5.0);
        assert_eq!(exact_quantile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_overflow_bucket_reports_max() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.record(50.0);
        assert_eq!(h.quantile_ms(0.5), 50.0, "overflow resolves to max");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new(&LATENCY_BUCKETS_MS);
        assert_eq!(h.quantile_ms(0.99), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
        assert_eq!(h.max_ms(), 0.0);
    }

    #[test]
    fn snapshot_serializes() {
        let reg = MetricsRegistry::new();
        reg.counter("a").inc();
        reg.gauge("g").set(2);
        reg.histogram("h").record(1.5);
        let json = reg.snapshot_json();
        assert!(json.contains("\"a\":1"), "{json}");
        assert!(json.contains("\"high_water\":2"), "{json}");
        assert!(json.contains("\"p99_ms\""), "{json}");
    }
}
