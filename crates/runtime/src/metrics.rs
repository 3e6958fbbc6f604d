//! Lock-free serving metrics: counters and gauges collected in a named
//! registry, plus the one nearest-rank percentile every latency summary
//! uses.
//!
//! Counter and gauge updates are single atomic RMWs; the registry's maps
//! are only locked to *create or look up* an instrument (shards cache the
//! `Arc`s they use). Latencies are not aggregated here: the serve report
//! folds them from the per-job results with [`exact_quantile_ms`].

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

/// Exact nearest-rank percentile over raw samples, in milliseconds: the
/// sample at rank `ceil(q * n)` (at least 1) in ascending order, so the
/// answer is always an observed value and `q = 1` is the max. Every
/// latency summary in the serve report and `--trace-summary` goes
/// through this. Sorts a copy with `total_cmp`; 0 when empty.
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

/// A named registry of counters and gauges.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
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
    fn exact_quantile_is_nearest_rank() {
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(exact_quantile_ms(&samples, 0.5), 3.0);
        assert_eq!(exact_quantile_ms(&samples, 0.0), 1.0);
        assert_eq!(exact_quantile_ms(&samples, 1.0), 5.0);
        assert_eq!(exact_quantile_ms(&samples, 0.99), 5.0);
        assert_eq!(exact_quantile_ms(&[], 0.5), 0.0);
    }
}
