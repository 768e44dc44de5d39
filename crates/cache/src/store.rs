//! The persistent `bat/cache/v1` store: cells, trial blobs, deterministic
//! merge and the byte-stable on-disk JSON form.

use crate::digest::{merge_top, DigestEntry, QuantileSketch};
use crate::index;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Schema tag of the cache artifact.
pub const CACHE_SCHEMA: &str = "bat/cache/v1";

/// What went wrong loading or saving a cache artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// Filesystem failure (path and OS error).
    Io(String),
    /// The file parsed as JSON but is not a `bat/cache/v1` document, or
    /// did not parse at all.
    Parse(String),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io(msg) => write!(f, "cache io error: {msg}"),
            CacheError::Parse(msg) => write!(f, "cache parse error: {msg}"),
        }
    }
}

impl std::error::Error for CacheError {}

/// One cache cell: everything the store knows about tuning one benchmark
/// on one architecture under one measurement scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheCell {
    /// Benchmark (kernel) name, e.g. `"gemm"`.
    pub benchmark: String,
    /// Architecture name, e.g. `"RTX 3090"`.
    pub architecture: String,
    /// Canonical scenario string: objective, budget, measurement protocol
    /// and fault plan — everything that changes what a measurement means.
    pub scenario: String,
    /// Total evaluations folded into this cell.
    pub evals: u64,
    /// The best configurations seen, ordered best-first; at most
    /// [`TOP_K`](crate::TOP_K) entries.
    pub top: Vec<DigestEntry>,
    /// Landscape sketch over every successful measurement folded in.
    pub sketch: QuantileSketch,
}

impl CacheCell {
    /// An empty cell for the given key.
    pub fn new(benchmark: &str, architecture: &str, scenario: &str) -> CacheCell {
        CacheCell {
            benchmark: benchmark.to_string(),
            architecture: architecture.to_string(),
            scenario: scenario.to_string(),
            evals: 0,
            top: Vec::new(),
            sketch: QuantileSketch::new(),
        }
    }

    /// The cell key as a tuple, for ordering and lookup.
    pub fn key(&self) -> (&str, &str, &str) {
        (&self.benchmark, &self.architecture, &self.scenario)
    }

    /// The single best known entry (first of `top`), if any.
    pub fn best(&self) -> Option<&DigestEntry> {
        self.top.first()
    }

    /// Fold one measured configuration into the cell.
    pub fn observe(&mut self, config: &BTreeMap<String, i64>, ms: f64, energy_mj: Option<f64>) {
        let entry = DigestEntry {
            config: config.clone(),
            ms,
            energy_mj,
        };
        self.top = merge_top(&self.top, std::slice::from_ref(&entry));
        self.sketch.observe(ms);
    }

    /// Merge another cell with the same key into this one. Commutative and
    /// associative — every part is (sum, top-k union, bin-wise sum).
    pub fn merge(&mut self, other: &CacheCell) {
        debug_assert_eq!(self.key(), other.key());
        self.evals += other.evals;
        self.top = merge_top(&self.top, &other.top);
        self.sketch.merge(&other.sketch);
    }
}

/// One finished tuning trial, stored verbatim. The record is an opaque
/// JSON blob (a `bat/result/v1` trial record) keyed by an exact
/// fingerprint of everything that determined it, so a campaign run with
/// `--cache` can replay it byte-for-byte instead of re-tuning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedTrial {
    /// Canonical fingerprint of (benchmark, architecture, scenario, tuner,
    /// rep, seed, record mode).
    pub fingerprint: String,
    /// Benchmark name, duplicated out of the fingerprint for inspection.
    pub benchmark: String,
    /// Architecture name, duplicated out of the fingerprint for inspection.
    pub architecture: String,
    /// The trial record, verbatim.
    pub record: Value,
}

/// `v` as it reads back after being written as JSON: non-negative `Int`s
/// parse as `UInt`, and non-finite floats, written as `null`, parse as
/// `Null`. Everything else — strings, finite floats (written with their
/// shortest round-trip text), key order and duplicate keys — survives the
/// trip unchanged.
fn canonical(v: Value) -> Value {
    match v {
        Value::Int(i) if i >= 0 => Value::UInt(i as u64),
        Value::Float(f) if !f.is_finite() => Value::Null,
        Value::Array(items) => Value::Array(items.into_iter().map(canonical).collect()),
        Value::Object(entries) => Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k, canonical(v)))
                .collect(),
        ),
        other => other,
    }
}

/// The persistent cache artifact: sorted cells plus sorted trial blobs.
///
/// Invariants (maintained by every constructor and mutator): `cells`
/// sorted by (benchmark, architecture, scenario) with unique keys;
/// `trials` sorted by fingerprint with unique fingerprints. Serialization
/// of the same logical store is therefore always the same bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheStore {
    /// Schema tag; always [`CACHE_SCHEMA`].
    pub schema: String,
    /// Landscape cells, sorted by key.
    pub cells: Vec<CacheCell>,
    /// Exact-replay trial blobs, sorted by fingerprint.
    pub trials: Vec<CachedTrial>,
}

impl Default for CacheStore {
    fn default() -> Self {
        CacheStore::new()
    }
}

impl CacheStore {
    /// An empty store (the merge identity).
    pub fn new() -> CacheStore {
        CacheStore {
            schema: CACHE_SCHEMA.to_string(),
            cells: Vec::new(),
            trials: Vec::new(),
        }
    }

    /// Parse a store from its JSON form, validating the schema tag and
    /// re-establishing the sorted invariants (so a hand-edited file still
    /// round-trips to canonical bytes).
    pub fn from_json(s: &str) -> Result<CacheStore, CacheError> {
        let store: CacheStore =
            serde_json::from_str(s).map_err(|e| CacheError::Parse(e.to_string()))?;
        if store.schema != CACHE_SCHEMA {
            return Err(CacheError::Parse(format!(
                "cache schema {:?} is not {CACHE_SCHEMA:?}",
                store.schema
            )));
        }
        let mut normalized = CacheStore::new();
        for cell in store.cells {
            normalized.merge_cell(cell);
        }
        for trial in store.trials {
            normalized.insert_trial(trial);
        }
        Ok(normalized)
    }

    /// The canonical JSON form: pretty-printed, fully sorted, byte-stable.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("cache store serializes")
    }

    /// Load a store from `path`.
    pub fn load(path: &str) -> Result<CacheStore, CacheError> {
        let contents = std::fs::read_to_string(path)
            .map_err(|e| CacheError::Io(format!("reading {path}: {e}")))?;
        CacheStore::parse_file(path, &contents)
    }

    /// Load a store from `path`, or start empty when the file does not
    /// exist yet (a corrupt existing file is still an error).
    pub fn load_or_empty(path: &str) -> Result<CacheStore, CacheError> {
        match std::fs::read_to_string(path) {
            Ok(contents) => CacheStore::parse_file(path, &contents),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(CacheStore::new()),
            Err(e) => Err(CacheError::Io(format!("reading {path}: {e}"))),
        }
    }

    /// [`from_json`](CacheStore::from_json), with parse errors naming the
    /// file the text came from.
    fn parse_file(path: &str, contents: &str) -> Result<CacheStore, CacheError> {
        CacheStore::from_json(contents).map_err(|e| match e {
            CacheError::Parse(m) => CacheError::Parse(format!("parsing {path}: {m}")),
            io => io,
        })
    }

    /// Write the store to `path` atomically (temp file + rename), so a
    /// crash mid-write cannot corrupt a cache other campaigns share.
    pub fn save_atomic(&self, path: &str) -> Result<(), CacheError> {
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, self.to_json())
            .map_err(|e| CacheError::Io(format!("writing {tmp}: {e}")))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| CacheError::Io(format!("renaming {tmp} to {path}: {e}")))
    }

    /// The cell for a key, if present (binary search over the sorted list).
    pub fn cell(&self, benchmark: &str, architecture: &str, scenario: &str) -> Option<&CacheCell> {
        index::position(&self.cells, (benchmark, architecture, scenario))
            .ok()
            .map(|i| &self.cells[i])
    }

    /// The stored trial for a fingerprint, if present.
    pub fn trial(&self, fingerprint: &str) -> Option<&CachedTrial> {
        self.trials
            .binary_search_by(|t| t.fingerprint.as_str().cmp(fingerprint))
            .ok()
            .map(|i| &self.trials[i])
    }

    /// Whether a trial with this fingerprint is already stored.
    pub fn has_trial(&self, fingerprint: &str) -> bool {
        self.trial(fingerprint).is_some()
    }

    /// Fold one measured configuration into the cell for a key, creating
    /// the cell on first use.
    pub fn observe(
        &mut self,
        benchmark: &str,
        architecture: &str,
        scenario: &str,
        config: &BTreeMap<String, i64>,
        ms: f64,
        energy_mj: Option<f64>,
    ) {
        index::entry(&mut self.cells, (benchmark, architecture, scenario))
            .observe(config, ms, energy_mj);
    }

    /// Count one evaluation against the cell for a key (failed evaluations
    /// spend budget too, but contribute no digest entry).
    pub fn count_evals(&mut self, benchmark: &str, architecture: &str, scenario: &str, n: u64) {
        index::entry(&mut self.cells, (benchmark, architecture, scenario)).evals += n;
    }

    /// Insert one trial blob, keeping the sorted invariant. The record is
    /// first put in the form a JSON round trip gives it (non-negative
    /// `Int`s become `UInt`s, non-finite floats `Null`), so a freshly
    /// folded store compares equal to its reloaded self. A fingerprint
    /// collision keeps the record that serializes lower — an arbitrary but
    /// deterministic tie-break, so merge order never changes the artifact.
    pub fn insert_trial(&mut self, mut trial: CachedTrial) {
        trial.record = canonical(trial.record);
        let at = self
            .trials
            .binary_search_by(|t| t.fingerprint.cmp(&trial.fingerprint));
        match at {
            Ok(i) => {
                let text = |v: &Value| serde_json::to_string_pretty(v).expect("record serializes");
                if text(&trial.record) < text(&self.trials[i].record) {
                    self.trials[i] = trial;
                }
            }
            Err(i) => self.trials.insert(i, trial),
        }
    }

    /// Merge another store into this one. Cells with equal keys merge
    /// component-wise; trials union by fingerprint. Commutative,
    /// associative, with the empty store as identity — so any merge tree
    /// over the same shards yields the same bytes.
    pub fn merge(&mut self, other: &CacheStore) {
        for cell in &other.cells {
            self.merge_cell(cell.clone());
        }
        for trial in &other.trials {
            self.insert_trial(trial.clone());
        }
    }

    fn merge_cell(&mut self, cell: CacheCell) {
        match index::position(&self.cells, cell.key()) {
            Ok(i) => self.cells[i].merge(&cell),
            Err(i) => self.cells.insert(i, cell),
        }
    }

    /// Drop every trial blob, keeping only the landscape cells. Shrinks a
    /// cache for shipping (warm starts and `CacheLookup` still work) at
    /// the cost of exact `--cache` replay and of idempotent re-folding.
    pub fn evict_trials(&mut self) {
        self.trials.clear();
    }

    /// Summary line: cell and trial counts.
    pub fn summary(&self) -> String {
        format!(
            "{} cell{}, {} trial{}",
            self.cells.len(),
            if self.cells.len() == 1 { "" } else { "s" },
            self.trials.len(),
            if self.trials.len() == 1 { "" } else { "s" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(x: i64) -> BTreeMap<String, i64> {
        let mut c = BTreeMap::new();
        c.insert("block_size_x".to_string(), x);
        c
    }

    fn sample_store(salt: i64) -> CacheStore {
        let mut s = CacheStore::new();
        for i in 0..5 {
            s.observe(
                "gemm",
                "RTX 3090",
                "objective=time;budget=40",
                &config(salt * 10 + i),
                1.0 + (salt * 7 + i) as f64 * 0.1,
                None,
            );
            s.count_evals("gemm", "RTX 3090", "objective=time;budget=40", 1);
        }
        s.insert_trial(CachedTrial {
            fingerprint: format!("bench=gemm;salt={salt}"),
            benchmark: "gemm".to_string(),
            architecture: "RTX 3090".to_string(),
            record: Value::Object(vec![("salt".to_string(), Value::Int(salt))]),
        });
        s
    }

    #[test]
    fn round_trip_is_byte_stable() {
        let s = sample_store(1);
        let json = s.to_json();
        let back = CacheStore::from_json(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn schema_is_validated() {
        let mut s = sample_store(1);
        s.schema = "bat/cache/v0".to_string();
        let err = CacheStore::from_json(&s.to_json()).unwrap_err();
        assert!(matches!(err, CacheError::Parse(_)));
        assert!(err.to_string().contains("bat/cache/v1"));
    }

    #[test]
    fn merge_is_commutative_in_bytes() {
        let a = sample_store(1);
        let b = sample_store(2);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json(), ba.to_json());
    }

    #[test]
    fn lookup_and_best() {
        let s = sample_store(3);
        let cell = s
            .cell("gemm", "RTX 3090", "objective=time;budget=40")
            .unwrap();
        assert_eq!(cell.evals, 5);
        assert_eq!(cell.best().unwrap().config, config(30));
        assert!(s.cell("gemm", "RTX 3090", "objective=energy").is_none());
        assert!(s.has_trial("bench=gemm;salt=3"));
        assert!(!s.has_trial("bench=gemm;salt=4"));
    }

    #[test]
    fn evict_keeps_cells_only() {
        let mut s = sample_store(1);
        s.evict_trials();
        assert!(s.trials.is_empty());
        assert_eq!(s.cells.len(), 1);
        assert_eq!(s.summary(), "1 cell, 0 trials");
    }

    #[test]
    fn parse_errors_name_the_file() {
        let path =
            std::env::temp_dir().join(format!("bat-cache-truncated-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let json = sample_store(1).to_json();
        std::fs::write(path, &json[..json.len() / 2]).unwrap();
        for err in [
            CacheStore::load(path).unwrap_err(),
            CacheStore::load_or_empty(path).unwrap_err(),
        ] {
            let CacheError::Parse(msg) = err else {
                panic!("expected a parse error, got {err:?}");
            };
            assert!(msg.starts_with(&format!("parsing {path}: ")), "{msg}");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn load_or_empty_handles_missing_file() {
        let s = CacheStore::load_or_empty("/nonexistent/dir/cache.json");
        // Missing parent dir still reads as NotFound on open.
        assert_eq!(s.unwrap(), CacheStore::new());
    }

    /// Random JSON trees of at most `self.0` levels, drawing the scalars a
    /// JSON round trip can change: signed and unsigned integers at their
    /// extremes, `-0.0`, NaN, ±inf, subnormals and arbitrary float bits,
    /// strings with quotes, escapes, control and non-ASCII characters, and
    /// objects with repeated keys.
    struct ArbValue(u32);

    impl proptest::Strategy for ArbValue {
        type Value = Value;

        fn generate(&self, rng: &mut proptest::TestRng) -> Value {
            fn pick(rng: &mut proptest::TestRng, n: usize) -> usize {
                (0..n).generate(rng)
            }
            fn bits(rng: &mut proptest::TestRng) -> u64 {
                (0..u64::MAX).generate(rng)
            }
            let kinds = if self.0 == 0 { 6 } else { 8 };
            match pick(rng, kinds) {
                0 => Value::Null,
                1 => Value::Bool(pick(rng, 2) == 1),
                2 => {
                    let any = bits(rng) as i64;
                    Value::Int([i64::MIN, -1, 0, 1, i64::MAX, any][pick(rng, 6)])
                }
                3 => {
                    let any = bits(rng);
                    Value::UInt([0, 7, u64::MAX, any][pick(rng, 4)])
                }
                4 => {
                    let any = f64::from_bits(bits(rng));
                    let floats = [
                        -0.0,
                        0.0,
                        f64::NAN,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        5e-324,
                        f64::MAX,
                        1e16,
                        -1e-7,
                        any,
                    ];
                    Value::Float(floats[pick(rng, floats.len())])
                }
                5 => {
                    let pool = [
                        'a', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é',
                        '∑', '🦀',
                    ];
                    let len = pick(rng, 8);
                    Value::String((0..len).map(|_| pool[pick(rng, pool.len())]).collect())
                }
                6 => {
                    let len = pick(rng, 4);
                    Value::Array(
                        (0..len)
                            .map(|_| ArbValue(self.0 - 1).generate(rng))
                            .collect(),
                    )
                }
                _ => {
                    let keys = ["k", "é\"", "k", ""];
                    let len = pick(rng, 4);
                    Value::Object(
                        (0..len)
                            .map(|_| {
                                let key = keys[pick(rng, keys.len())].to_string();
                                (key, ArbValue(self.0 - 1).generate(rng))
                            })
                            .collect(),
                    )
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn canonical_records_equal_their_json_round_trip(v in ArbValue(4)) {
            let text = serde_json::to_string_pretty(&v).unwrap();
            let parsed: Value = serde_json::from_str(&text).unwrap();
            let canon = canonical(v);
            // Structure (`Int` against `UInt`, `Null` against a float) and
            // text (`-0.0` against `0.0`) both agree.
            proptest::prop_assert_eq!(&canon, &parsed);
            proptest::prop_assert_eq!(serde_json::to_string_pretty(&canon).unwrap(), text);
        }
    }
}
