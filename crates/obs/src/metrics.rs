//! Counters and histograms with deterministic contents and
//! deterministic (sorted-key, fixed-bucket) serialization.

use serde_json::Value;
use std::collections::BTreeMap;

/// Number of log₂ buckets per histogram: exponents −64..=63, clamped.
const BUCKETS: usize = 128;

/// A fixed-bucket log₂ histogram of nonnegative samples.
///
/// Bucket `i` holds samples whose binary exponent is `i − 64` (clamped
/// at both ends); zero, negative, and non-finite samples land in
/// bucket 0. Array-backed, so merging is a bucketwise add and two
/// histograms built from the same samples are identical regardless of
/// arrival order.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// ⌊log₂ v⌋ read off the exponent bits — no libm call on the
    /// per-sample path. Subnormals carry a zero exponent field, which
    /// reads as −1023 and clamps to the lowest bucket like every other
    /// sample below 2⁻⁶⁴.
    fn bucket_of(v: f64) -> usize {
        if !v.is_finite() || v <= 0.0 {
            return 0;
        }
        let e = ((v.to_bits() >> 52) & 0x7ff) as i64 - 1023;
        (e.clamp(-64, 63) + 64) as usize
    }

    /// Record one sample.
    pub fn observe(&mut self, v: f64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of finite samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest finite sample, if any finite sample was recorded.
    pub fn min(&self) -> Option<f64> {
        (self.min <= self.max).then_some(self.min)
    }

    /// Largest finite sample, if any finite sample was recorded.
    pub fn max(&self) -> Option<f64> {
        (self.min <= self.max).then_some(self.max)
    }

    /// Bucketwise merge.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Serialize the summary plus nonzero buckets (keyed by exponent).
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("count".to_string(), Value::Number(self.count as f64));
        m.insert("sum".to_string(), Value::Number(self.sum));
        if let (Some(lo), Some(hi)) = (self.min(), self.max()) {
            m.insert("min".to_string(), Value::Number(lo));
            m.insert("max".to_string(), Value::Number(hi));
        }
        let mut b = BTreeMap::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                b.insert(format!("{:+04}", i as i64 - 64), Value::Number(n as f64));
            }
        }
        m.insert("log2_buckets".to_string(), Value::Object(b));
        Value::Object(m)
    }
}

/// Named counters and histograms for one solver run (or a merged
/// fan-out of runs). `BTreeMap`-keyed, so iteration and serialization
/// order are deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (creating it at zero). The key
    /// is allocated only when the counter is new.
    pub fn incr(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Set the named counter to an absolute value.
    pub fn set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record a sample into the named histogram (creating it empty).
    /// The key is allocated only when the histogram is new, so a hot
    /// loop sampling one name allocates once, not once per sample.
    pub fn observe(&mut self, name: &str, v: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::new();
                h.observe(v);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// The named histogram, if any sample was ever recorded into it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merge another registry: counters add, histograms merge
    /// bucketwise. Deterministic regardless of merge grouping.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Serialize as `{ "counters": {...}, "histograms": {...} }`.
    pub fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Value::Number(v as f64)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_value()))
            .collect();
        let mut m = BTreeMap::new();
        m.insert("counters".to_string(), Value::Object(counters));
        m.insert("histograms".to_string(), Value::Object(histograms));
        Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn histogram_buckets_by_exponent() {
        let mut h = Histogram::new();
        h.observe(1.5); // exponent 0
        h.observe(0.25); // exponent -2
        h.observe(1024.0); // exponent 10
        h.observe(0.0); // special bucket
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(0.0));
        assert_eq!(h.max(), Some(1024.0));
        let v = h.to_value();
        let buckets = v.get("log2_buckets").unwrap().as_object().unwrap();
        assert_eq!(buckets.len(), 4);
        assert!(buckets.contains_key("+000"));
        assert!(buckets.contains_key("-002"));
        assert!(buckets.contains_key("+010"));
        assert!(buckets.contains_key("-064"));
    }

    /// The libm form `bucket_of` replaced.
    fn bucket_by_log2(v: f64) -> usize {
        if !v.is_finite() || v <= 0.0 {
            return 0;
        }
        (v.log2().floor().clamp(-64.0, 63.0) + 64.0) as usize
    }

    #[test]
    fn bucket_of_reads_the_binary_exponent() {
        let exact = |e: i32| (e.clamp(-64, 63) + 64) as usize;
        for k in -1022..=1023i32 {
            let p = 2f64.powi(k);
            assert_eq!(Histogram::bucket_of(p), exact(k), "2^{k}");
            assert_eq!(Histogram::bucket_of(p), bucket_by_log2(p), "2^{k}");
            let up = f64::from_bits(p.to_bits() + 1);
            assert_eq!(Histogram::bucket_of(up), exact(k), "next_up(2^{k})");
            assert_eq!(
                Histogram::bucket_of(up),
                bucket_by_log2(up),
                "next_up(2^{k})"
            );
            // Just below a power of two the binary exponent is k − 1.
            // The libm form agrees for −1 ≤ k ≤ 2; beyond that log₂ of a
            // value within 32 ulps of 2^k rounds up to k itself and
            // `floor` lands one bucket high — the documented bucketing
            // ("binary exponent") is what is pinned here.
            let down = f64::from_bits(p.to_bits() - 1);
            assert_eq!(Histogram::bucket_of(down), exact(k - 1), "next_down(2^{k})");
            if (-1..=2).contains(&k) {
                assert_eq!(Histogram::bucket_of(down), bucket_by_log2(down));
            }
        }
        for d in -300..=300 {
            for m in [1.0, 1.5, 2.0, 3.0, 5.0, 7.5, 9.999] {
                let v = m * 10f64.powi(d);
                assert_eq!(Histogram::bucket_of(v), bucket_by_log2(v), "{v:e}");
            }
        }
        let subnormals = [f64::from_bits(1), 1e-310, f64::MIN_POSITIVE / 2.0];
        for v in subnormals {
            assert_eq!(Histogram::bucket_of(v), 0);
            assert_eq!(Histogram::bucket_of(v), bucket_by_log2(v));
        }
        let specials = [
            0.0,
            -0.0,
            -1.0,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for v in specials {
            assert_eq!(Histogram::bucket_of(v), 0, "{v}");
        }
        assert_eq!(Histogram::bucket_of(f64::MAX), 127);
        assert_eq!(Histogram::bucket_of(f64::MIN_POSITIVE), 0);
    }

    #[test]
    fn merge_is_order_independent() {
        let samples = [0.5, 2.0, 8.0, 1e-9, 3.5];
        let mut one = Histogram::new();
        for &s in &samples {
            one.observe(s);
        }
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                a.observe(s);
            } else {
                b.observe(s);
            }
        }
        a.merge(&b);
        assert_eq!(
            serde_json::to_string(&a.to_value()),
            serde_json::to_string(&one.to_value())
        );
    }

    #[test]
    fn registry_counters_and_merge() {
        let mut a = MetricsRegistry::new();
        a.incr("iterations", 3);
        a.observe("residual", 0.5);
        let mut b = MetricsRegistry::new();
        b.incr("iterations", 4);
        b.incr("restarts", 1);
        b.observe("residual", 0.25);
        a.merge(&b);
        assert_eq!(a.counter("iterations"), 7);
        assert_eq!(a.counter("restarts"), 1);
        assert_eq!(a.counter("missing"), 0);
        assert_eq!(a.histogram("residual").unwrap().count(), 2);
        assert!(!a.is_empty());
        let s = serde_json::to_string(&a.to_value());
        assert!(s.contains("\"iterations\":7"));
    }
}
