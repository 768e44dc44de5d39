//! Measurements and evaluation failures.

use serde::{Deserialize, Serialize};

/// Why a configuration produced no runtime.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalFailure {
    /// The configuration violates the benchmark's restriction set (it is
    /// outside the "Constrained" space of Table VIII).
    Restricted,
    /// The configuration passed restrictions but cannot run on the target
    /// architecture — compile/launch failure (outside the "Valid" space).
    Launch(String),
    /// The measurement attempt failed transiently (driver flake, remote
    /// hiccup). Retrying the same configuration may well succeed.
    Transient(String),
    /// The measurement attempt hung past the protocol deadline and was
    /// killed. Like [`EvalFailure::Transient`], worth retrying.
    Timeout,
    /// The configuration crashed the kernel/device. Not retryable as such —
    /// crashers are sticky — and repeat offenders get quarantined.
    Crash(String),
}

impl EvalFailure {
    /// Whether a retry of the same configuration could plausibly succeed.
    ///
    /// Retryable failures are *never* memoized by the evaluator (caching a
    /// flake would make it permanent); deterministic failures are cached
    /// forever, exactly as before the fault model existed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, EvalFailure::Transient(_) | EvalFailure::Timeout)
    }
}

impl std::fmt::Display for EvalFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalFailure::Restricted => f.write_str("restricted configuration"),
            EvalFailure::Launch(msg) => write!(f, "launch failure: {msg}"),
            EvalFailure::Transient(msg) => write!(f, "transient failure: {msg}"),
            EvalFailure::Timeout => f.write_str("measurement timed out"),
            EvalFailure::Crash(msg) => write!(f, "crashed configuration: {msg}"),
        }
    }
}

/// How many run samples a [`Samples`] holds without touching the heap.
/// Protocol run counts are tiny (5 by default, 16 is exotic), so the common
/// case fits inline exactly; anything larger is rare enough to pay for a
/// spill. Kept at the default run count deliberately: every extra inline
/// slot grows `Measurement` (it holds two of these) and the batched
/// evaluation path moves and clones measurements through its output and
/// memo, where a fatter struct costs real throughput at large batch sizes.
const INLINE_SAMPLES: usize = 5;

/// An inline-first sample vector: up to `INLINE_SAMPLES` (5) `f64`s live
/// in the struct itself, longer runs spill to a heap `Vec`.
///
/// `Measurement` used to own its samples as a `Vec<f64>`, which put one
/// heap allocation (plus one per clone — and the memo cache clones every
/// published measurement) on the evaluator's per-eval hot path. With the
/// default 5-run protocol this type never allocates: construction,
/// cloning and memo publication are all plain copies.
///
/// Serializes exactly like `Vec<f64>` (a JSON array), so artifacts are
/// byte-identical to the `Vec`-backed representation.
#[derive(Clone)]
pub struct Samples {
    len: usize,
    inline: [f64; INLINE_SAMPLES],
    /// Holds *all* samples once `len > INLINE_SAMPLES`; empty otherwise.
    spill: Vec<f64>,
}

impl Samples {
    /// An empty sample vector.
    pub const fn new() -> Samples {
        Samples {
            len: 0,
            inline: [0.0; INLINE_SAMPLES],
            spill: Vec::new(),
        }
    }

    /// Append one sample.
    pub fn push(&mut self, v: f64) {
        if self.len < INLINE_SAMPLES {
            self.inline[self.len] = v;
        } else {
            if self.len == INLINE_SAMPLES {
                self.spill.reserve(self.len + 1);
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(v);
        }
        self.len += 1;
    }

    /// The samples as a slice.
    pub fn as_slice(&self) -> &[f64] {
        if self.len <= INLINE_SAMPLES {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no samples are held (the `skip_serializing_if` predicate
    /// of unmeasured energy).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The samples as an owned `Vec`.
    pub fn to_vec(&self) -> Vec<f64> {
        self.as_slice().to_vec()
    }
}

impl Default for Samples {
    fn default() -> Samples {
        Samples::new()
    }
}

impl std::ops::Deref for Samples {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Samples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for Samples {
    fn eq(&self, other: &Samples) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Vec<f64>> for Samples {
    fn eq(&self, other: &Vec<f64>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Samples> for Vec<f64> {
    fn eq(&self, other: &Samples) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<f64>> for Samples {
    fn from(v: Vec<f64>) -> Samples {
        if v.len() <= INLINE_SAMPLES {
            let mut s = Samples::new();
            for x in v {
                s.push(x);
            }
            s
        } else {
            Samples {
                len: v.len(),
                inline: [0.0; INLINE_SAMPLES],
                spill: v,
            }
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        let mut s = Samples::new();
        for v in iter {
            s.push(v);
        }
        s
    }
}

impl<'a> IntoIterator for &'a Samples {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl Serialize for Samples {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        self.as_slice().serialize(w)
    }
}

impl Deserialize for Samples {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Samples, serde::DeError> {
        r.begin_array("Samples")?;
        let mut samples = Samples::new();
        while r.next_element()? {
            samples.push(f64::deserialize(r)?);
        }
        Ok(samples)
    }
}

/// One measured configuration: repeated runs plus the aggregate objective.
///
/// Energy is the suite's optional second objective: it is populated only
/// when the evaluator measures it (see
/// [`EvaluatorBuilder::energy`](crate::EvaluatorBuilder::energy)), so
/// time-only runs — and their serialized records — are unchanged by its
/// existence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Aggregated objective in milliseconds (median of `samples` by
    /// default).
    pub time_ms: f64,
    /// Individual run times in milliseconds.
    pub samples: Samples,
    /// Aggregated energy in millijoules (median of `energy_samples`), when
    /// energy was measured.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub energy_mj: Option<f64>,
    /// Individual run energies in millijoules (empty when not measured).
    #[serde(default, skip_serializing_if = "Samples::is_empty")]
    pub energy_samples: Samples,
}

/// Median of a non-empty sample vector (the suite's robust aggregate).
///
/// Protocol run counts are tiny (5 by default), so small inputs sort on
/// the stack via insertion sort — same ascending order, same median, no
/// allocation. `from_samples` sits on the evaluator's hot path.
fn median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n <= 16 {
        let mut buf = [0.0f64; 16];
        for (i, &s) in samples.iter().enumerate() {
            assert!(!s.is_nan(), "NaN sample");
            let mut j = i;
            while j > 0 && buf[j - 1] > s {
                buf[j] = buf[j - 1];
                j -= 1;
            }
            buf[j] = s;
        }
        return mid_of(&buf[..n]);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    mid_of(&sorted)
}

/// Median of an already-sorted non-empty slice.
fn mid_of(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

impl Measurement {
    /// Aggregate samples into a measurement using the median (robust to the
    /// occasional slow run, as real tuners do). Accepts any sample source —
    /// the evaluator streams protocol runs straight in, so no intermediate
    /// `Vec` ever exists for protocols that fit inline.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Measurement {
        let samples: Samples = samples.into_iter().collect();
        assert!(!samples.is_empty(), "measurement needs at least one run");
        let time_ms = median(&samples);
        Measurement {
            time_ms,
            samples,
            energy_mj: None,
            energy_samples: Samples::new(),
        }
    }

    /// Attach energy samples (median-aggregated, like the time samples).
    pub fn with_energy_samples(
        mut self,
        energy_samples: impl IntoIterator<Item = f64>,
    ) -> Measurement {
        let energy_samples: Samples = energy_samples.into_iter().collect();
        assert!(
            !energy_samples.is_empty(),
            "energy measurement needs at least one run"
        );
        self.energy_mj = Some(median(&energy_samples));
        self.energy_samples = energy_samples;
        self
    }

    /// Energy–delay product in mJ·ms, when energy was measured.
    pub fn edp(&self) -> Option<f64> {
        self.energy_mj.map(|e| e * self.time_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd() {
        let m = Measurement::from_samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(m.time_ms, 2.0);
    }

    #[test]
    fn median_even() {
        let m = Measurement::from_samples(vec![4.0, 1.0, 2.0, 3.0]);
        assert_eq!(m.time_ms, 2.5);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_samples_panic() {
        let _ = Measurement::from_samples(Vec::<f64>::new());
    }

    #[test]
    fn energy_samples_aggregate_by_median() {
        let m = Measurement::from_samples(vec![2.0]).with_energy_samples(vec![9.0, 3.0, 6.0]);
        assert_eq!(m.energy_mj, Some(6.0));
        assert_eq!(m.edp(), Some(12.0));
    }

    #[test]
    fn time_only_measurement_serializes_without_energy_fields() {
        let m = Measurement::from_samples(vec![1.0, 2.0]);
        assert_eq!(m.energy_mj, None);
        assert!(m.edp().is_none());
        let json = serde_json::to_string_pretty(&m).unwrap();
        assert!(!json.contains("energy"));
        let back: Measurement = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn energy_measurement_round_trips() {
        let m = Measurement::from_samples(vec![1.0]).with_energy_samples(vec![5.0, 4.0]);
        let json = serde_json::to_string_pretty(&m).unwrap();
        let back: Measurement = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.energy_mj, Some(4.5));
    }

    #[test]
    fn samples_spill_past_the_inline_capacity() {
        let long: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let s: Samples = long.iter().copied().collect();
        assert_eq!(s.len(), 20);
        assert_eq!(s, long);
        assert_eq!(s.to_vec(), long);
        let via_from = Samples::from(long.clone());
        assert_eq!(via_from, s);
        // Clone preserves the spilled contents.
        assert_eq!(s.clone(), s);
        // Spilled samples serialize like any array.
        let m = Measurement::from_samples(long.clone());
        let json = serde_json::to_string(&m).unwrap();
        let back: Measurement = serde_json::from_str(&json).unwrap();
        assert_eq!(back.samples, long);
    }

    #[test]
    fn samples_serialize_exactly_like_vec() {
        let v = vec![1.5, 2.25, 3.0];
        let s = Samples::from(v.clone());
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            serde_json::to_string(&v).unwrap()
        );
        let back: Samples = serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn failure_display() {
        assert_eq!(
            EvalFailure::Restricted.to_string(),
            "restricted configuration"
        );
        assert!(EvalFailure::Launch("x".into()).to_string().contains('x'));
        assert!(EvalFailure::Transient("y".into()).to_string().contains('y'));
        assert!(EvalFailure::Timeout.to_string().contains("timed out"));
        assert!(EvalFailure::Crash("z".into()).to_string().contains('z'));
    }

    #[test]
    fn retryability_split() {
        assert!(EvalFailure::Transient("flake".into()).is_retryable());
        assert!(EvalFailure::Timeout.is_retryable());
        assert!(!EvalFailure::Restricted.is_retryable());
        assert!(!EvalFailure::Launch("bad".into()).is_retryable());
        assert!(!EvalFailure::Crash("boom".into()).is_retryable());
    }
}
