//! Configuration spaces: the cartesian product of parameters plus a
//! restriction set, with a mixed-radix index bijection and a prefix-pruned
//! enumeration engine.

use std::fmt;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::expr::{parse, BinOp, CompiledExpr, EvalError, ParseError, Program};
use crate::param::Param;

/// A parsed restriction together with its source text.
#[derive(Debug, Clone, PartialEq)]
pub struct Restriction {
    /// The original expression string (kept for display/serialization).
    pub source: String,
    /// Compiled form with parameter slots resolved.
    pub compiled: CompiledExpr,
}

/// Error constructing a [`ConfigSpace`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpaceError {
    /// Two parameters share a name.
    DuplicateParam(String),
    /// A restriction failed to parse.
    Parse {
        /// The restriction source text.
        source: String,
        /// The underlying parse error.
        error: ParseError,
    },
    /// A restriction references an unknown parameter.
    Compile {
        /// The restriction source text.
        source: String,
        /// The underlying resolution error.
        error: EvalError,
    },
    /// The space has no parameters.
    Empty,
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::DuplicateParam(n) => write!(f, "duplicate parameter name {n:?}"),
            SpaceError::Parse { source, error } => {
                write!(f, "failed to parse restriction {source:?}: {error}")
            }
            SpaceError::Compile { source, error } => {
                write!(f, "failed to compile restriction {source:?}: {error}")
            }
            SpaceError::Empty => f.write_str("configuration space has no parameters"),
        }
    }
}

impl std::error::Error for SpaceError {}

/// Precomputed evaluation/enumeration state derived from the restriction
/// set at build time.
///
/// Every restriction is constant-folded and compiled to a flat bytecode
/// [`Program`]. Restrictions that fold to a constant are taken out of the
/// per-configuration hot path entirely: always-true ones are dropped,
/// always-false ones collapse the whole space. The remaining *active*
/// restrictions are bucketed by the highest parameter slot they read, which
/// is what lets the counters/enumerators evaluate each restriction at the
/// shallowest possible depth of the odometer walk and prune whole subtrees.
#[derive(Debug, Clone)]
pub(crate) struct EnumEngine {
    /// Bytecode per restriction (parallel to `ConfigSpace::restrictions`).
    pub(crate) programs: Vec<Program>,
    /// Slots read by each restriction *after folding* (sorted, deduped).
    pub(crate) slots_of: Vec<Vec<usize>>,
    /// Indices of restrictions that did not fold to a constant.
    pub(crate) active: Vec<usize>,
    /// True when some restriction folded to constant false.
    pub(crate) always_false: bool,
    /// Per slot: is it read by any active restriction?
    pub(crate) touched: Vec<bool>,
    /// Per slot: active restrictions whose *highest* slot is this one
    /// (checkable as soon as the slot is assigned in an ascending walk).
    pub(crate) bucket_of_slot: Vec<Vec<usize>>,
    /// Per slot: active restrictions reading it (for single-slot patches).
    pub(crate) touching: Vec<Vec<usize>>,
    /// Highest touched slot, if any restriction is active.
    pub(crate) last_slot: Option<usize>,
    /// The pure-integer active restrictions (no division, no floats) fused
    /// into one short-circuit `and` chain in most-selective-first order.
    /// `is_valid` runs this first: it executes on the wrapping-`i64`
    /// interpreter with no exactness guards, and most restrictions in
    /// practice (divisibility, ordering, equality) land here. `None` when
    /// no active restriction is pure.
    pub(crate) valid_pure: Option<Program>,
    /// The remaining active restrictions — those whose compiled form
    /// promotes to float or divides, and therefore needs the 2⁵³
    /// exactness envelope — fused likewise. Only evaluated when the pure
    /// prefix passed, so the guarded interpreter runs on exactly the
    /// restrictions that need it. `None` when every active restriction is
    /// pure.
    pub(crate) valid_guarded: Option<Program>,
}

/// Exact-sweep budget for restriction selectivity estimation: when the
/// product of a restriction's own slot radices is at most this, every
/// assignment is evaluated; larger sub-spaces are sampled instead.
const SELECTIVITY_EXACT_MAX: u64 = 1024;

/// Deterministic sample count for large sub-spaces.
const SELECTIVITY_SAMPLES: u64 = 256;

/// SplitMix64 finalizer — the build-time sampler's only source of
/// "randomness", so selectivity estimates are pure functions of the space.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Estimate the fraction of assignments of `slots` that satisfy `program`
/// (exactly for small products, over a fixed deterministic sample
/// otherwise). `scratch` must be full-width; only `slots` are written, and
/// the restriction reads nothing else.
fn estimate_pass_rate(
    params: &[Param],
    program: &Program,
    slots: &[usize],
    scratch: &mut [i64],
    ri: u64,
) -> f64 {
    let product = slots
        .iter()
        .try_fold(1u64, |acc, &s| acc.checked_mul(params[s].len() as u64))
        .unwrap_or(u64::MAX);
    if product <= SELECTIVITY_EXACT_MAX {
        // Odometer over exactly this restriction's slots.
        let mut odo = vec![0usize; slots.len()];
        for &s in slots {
            scratch[s] = params[s].values[0];
        }
        let mut passes = 0u64;
        loop {
            if program.eval_bool(scratch) {
                passes += 1;
            }
            let mut d = slots.len();
            loop {
                if d == 0 {
                    return passes as f64 / product as f64;
                }
                d -= 1;
                odo[d] += 1;
                let p = &params[slots[d]];
                if odo[d] < p.len() {
                    scratch[slots[d]] = p.values[odo[d]];
                    break;
                }
                odo[d] = 0;
                scratch[slots[d]] = p.values[0];
            }
        }
    }
    let seed = splitmix(ri.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut passes = 0u64;
    for j in 0..SELECTIVITY_SAMPLES {
        let mut h = splitmix(seed ^ j);
        for &s in slots {
            h = splitmix(h);
            let p = &params[s];
            scratch[s] = p.values[(h % p.len() as u64) as usize];
        }
        if program.eval_bool(scratch) {
            passes += 1;
        }
    }
    passes as f64 / SELECTIVITY_SAMPLES as f64
}

impl EnumEngine {
    fn build(params: &[Param], restrictions: &[Restriction]) -> EnumEngine {
        let n = params.len();
        let mut programs = Vec::with_capacity(restrictions.len());
        let mut slots_of = Vec::with_capacity(restrictions.len());
        let mut active = Vec::new();
        let mut always_false = false;
        let mut folded_of = Vec::with_capacity(restrictions.len());
        for (ri, r) in restrictions.iter().enumerate() {
            let folded = crate::expr::fold(&r.compiled);
            let program = Program::compile_prefolded(&folded);
            match program.const_value() {
                Some(c) => {
                    if !c.truthy() {
                        always_false = true;
                    }
                    // Constant restrictions never reach the hot path.
                    slots_of.push(Vec::new());
                }
                None => {
                    slots_of.push(folded.slots());
                    active.push(ri);
                }
            }
            programs.push(program);
            folded_of.push(folded);
        }
        // Most-selective-first ordering: estimate each active restriction's
        // pass rate deterministically, then check the least-passing ones
        // first so `is_valid` short-circuits invalid configurations as
        // early as possible. Pure reordering of an `all()` conjunction —
        // the boolean result is untouched.
        let mut pass_rate = vec![1.0f64; restrictions.len()];
        if !active.is_empty() {
            let mut scratch: Vec<i64> = params.iter().map(|p| p.values[0]).collect();
            for &ri in &active {
                pass_rate[ri] = estimate_pass_rate(
                    params,
                    &programs[ri],
                    &slots_of[ri],
                    &mut scratch,
                    ri as u64,
                );
            }
            active.sort_by(|&a, &b| pass_rate[a].total_cmp(&pass_rate[b]).then(a.cmp(&b)));
        }
        let mut touched = vec![false; n];
        let mut bucket_of_slot: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut touching: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &ri in &active {
            for &s in &slots_of[ri] {
                touched[s] = true;
                touching[s].push(ri);
            }
            let last = *slots_of[ri]
                .last()
                .expect("active restriction reads a slot");
            bucket_of_slot[last].push(ri);
        }
        let last_slot = (0..n).rfind(|&s| touched[s]);
        // Fuse the active restrictions into right-nested `and` chains in
        // selectivity order: identical short-circuit evaluation to the
        // `all()` loop, but one interpreter entry per chain. The chain is
        // split by interpreter class — pure-integer restrictions first
        // (cheap wrapping-`i64` evaluation), then the ones needing float
        // promotion or division-exactness guards. A conjunction of total
        // predicates is order-insensitive, so the boolean is untouched.
        let fuse = |ris: &[usize]| {
            let mut it = ris.iter().rev();
            it.next().map(|&last| {
                let mut expr = folded_of[last].clone();
                for &ri in it {
                    expr = CompiledExpr::Binary(
                        BinOp::And,
                        Box::new(folded_of[ri].clone()),
                        Box::new(expr),
                    );
                }
                Program::compile_prefolded(&expr)
            })
        };
        let pure: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&ri| programs[ri].is_pure_int())
            .collect();
        let guarded: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&ri| !programs[ri].is_pure_int())
            .collect();
        let valid_pure = fuse(&pure);
        let valid_guarded = fuse(&guarded);
        EnumEngine {
            programs,
            slots_of,
            active,
            always_false,
            touched,
            bucket_of_slot,
            touching,
            last_slot,
            valid_pure,
            valid_guarded,
        }
    }

    /// Order the slots read by `ris` (given most-selective-first) for a
    /// counting walk: each restriction appends its not-yet-placed slots in
    /// turn, so the most selective restrictions have all their slots
    /// assigned — and prune — at the shallowest possible depth. Restriction
    /// `ri` lands in the bucket of its last-placed slot. Any slot order
    /// counts the same assignments; only the pruning schedule changes.
    fn counting_order(&self, ris: &[usize]) -> (Vec<usize>, Vec<Vec<usize>>) {
        let n = self.touched.len();
        let mut pos: Vec<Option<usize>> = vec![None; n];
        let mut slots: Vec<usize> = Vec::new();
        for &ri in ris {
            for &s in &self.slots_of[ri] {
                if pos[s].is_none() {
                    pos[s] = Some(slots.len());
                    slots.push(s);
                }
            }
        }
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); slots.len()];
        for &ri in ris {
            let at = self.slots_of[ri]
                .iter()
                .map(|&s| pos[s].expect("restriction slot placed"))
                .max()
                .expect("active restriction reads a slot");
            buckets[at].push(ri);
        }
        (slots, buckets)
    }
}

/// A discrete configuration space: parameters × restrictions.
///
/// Configurations are identified either by their value vector (`&[i64]`,
/// aligned with [`ConfigSpace::params`]) or by a dense mixed-radix index in
/// `0..cardinality()`. The index bijection makes uniform sampling and
/// neighbour arithmetic O(#params) without hashing.
#[derive(Debug, Clone)]
pub struct ConfigSpace {
    params: Vec<Param>,
    names: Vec<String>,
    restrictions: Vec<Restriction>,
    /// Mixed-radix strides: `strides[i]` = product of radices of params after i.
    strides: Vec<u64>,
    /// `1.0 / strides[i]`, for the reciprocal-multiply decode fast path.
    inv_strides: Vec<f64>,
    /// `params[i].len()`, pre-widened for the decode fast path.
    radices: Vec<u64>,
    /// True when `cardinality` fits the exact-f64 envelope (2⁵²), making
    /// the reciprocal decode's one-step correction sound.
    decode_fast: bool,
    cardinality: u64,
    engine: EnumEngine,
}

impl ConfigSpace {
    /// Start building a space.
    pub fn builder() -> ConfigSpaceBuilder {
        ConfigSpaceBuilder::default()
    }

    /// The parameters, in slot order.
    #[inline]
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Parameter names, in slot order.
    #[inline]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of parameters.
    #[inline]
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// The restriction set.
    #[inline]
    pub fn restrictions(&self) -> &[Restriction] {
        &self.restrictions
    }

    /// The derived evaluation/enumeration state (crate-internal: the
    /// neighbourhood code patches single slots against it).
    #[inline]
    pub(crate) fn engine(&self) -> &EnumEngine {
        &self.engine
    }

    /// Total number of configurations in the unrestricted cartesian product
    /// (the paper's "Cardinality" column in Table VIII).
    #[inline]
    pub fn cardinality(&self) -> u64 {
        self.cardinality
    }

    /// Decode a dense index into a fresh configuration vector.
    pub fn config_at(&self, index: u64) -> Vec<i64> {
        let mut out = vec![0; self.params.len()];
        self.decode_into(index, &mut out);
        out
    }

    /// Decode a dense index into `out` (no allocation; `out.len()` must equal
    /// the number of parameters).
    #[inline]
    pub fn decode_into(&self, index: u64, out: &mut [i64]) {
        debug_assert!(index < self.cardinality, "index out of range");
        debug_assert_eq!(out.len(), self.params.len());
        if self.decode_fast {
            // Reciprocal-multiply decode. Each slot's quotient divides
            // `index` directly rather than a running remainder, so the
            // per-slot work is independent and pipelines instead of
            // serializing on hardware dividers; digit `i` is then
            // `q_i - q_{i-1} * radix_i` (strides are nested products, so
            // `q_{i-1} = q_i / radix_i`). Inside the 2⁵² envelope the
            // rounded quotient is off by at most one, which the
            // correction step repairs exactly.
            let x = index as f64;
            let mut prev_q = 0u64;
            for (i, slot) in out.iter_mut().enumerate().take(self.params.len()) {
                let stride = self.strides[i];
                let mut q = (x * self.inv_strides[i]) as u64;
                if q * stride > index {
                    q -= 1;
                } else if (q + 1) * stride <= index {
                    q += 1;
                }
                let pos = (q - prev_q * self.radices[i]) as usize;
                *slot = self.params[i].values[pos];
                prev_q = q;
            }
            return;
        }
        let mut rem = index;
        for (i, p) in self.params.iter().enumerate() {
            let pos = (rem / self.strides[i]) as usize;
            rem %= self.strides[i];
            out[i] = p.values[pos];
        }
    }

    /// Encode a configuration into its dense index. Returns `None` if any
    /// value is not a candidate value of its parameter.
    pub fn index_of(&self, config: &[i64]) -> Option<u64> {
        assert_eq!(config.len(), self.params.len());
        let mut idx = 0u64;
        for (i, p) in self.params.iter().enumerate() {
            let pos = p.position(config[i])? as u64;
            idx += pos * self.strides[i];
        }
        Some(idx)
    }

    /// Evaluate the restriction set on a configuration.
    #[inline]
    pub fn is_valid(&self, config: &[i64]) -> bool {
        if self.engine.always_false {
            return false;
        }
        if let Some(p) = &self.engine.valid_pure {
            if !p.eval_bool(config) {
                return false;
            }
        }
        match &self.engine.valid_guarded {
            Some(p) => p.eval_bool(config),
            None => true,
        }
    }

    /// Like [`ConfigSpace::is_valid`] but for a dense index.
    ///
    /// Allocates a scratch configuration; inside loops prefer
    /// [`ConfigSpace::is_valid_index_into`].
    pub fn is_valid_index(&self, index: u64) -> bool {
        let mut scratch = vec![0; self.params.len()];
        self.is_valid_index_into(index, &mut scratch)
    }

    /// Like [`ConfigSpace::is_valid_index`] but decoding into a caller-
    /// provided scratch buffer (`scratch.len()` must equal the number of
    /// parameters), so repeated checks perform no allocation.
    #[inline]
    pub fn is_valid_index_into(&self, index: u64, scratch: &mut [i64]) -> bool {
        self.decode_into(index, scratch);
        self.is_valid(scratch)
    }

    /// Iterate over all configurations (restricted or not) in index order.
    pub fn iter(&self) -> ConfigIter<'_> {
        ConfigIter {
            space: self,
            next: 0,
            scratch: vec![0; self.params.len()],
        }
    }

    /// Count valid configurations by exhaustive parallel brute force over
    /// the full cartesian product — O(cardinality). Kept as the reference
    /// implementation the factored [`ConfigSpace::count_valid`] is verified
    /// (and benchmarked) against.
    pub fn count_valid_brute(&self) -> u64 {
        if self.engine.active.is_empty() && !self.engine.always_false {
            return self.cardinality;
        }
        const CHUNK: u64 = 1 << 16;
        let n_chunks = self.cardinality.div_ceil(CHUNK);
        (0..n_chunks)
            .into_par_iter()
            .map(|c| {
                let start = c * CHUNK;
                let end = (start + CHUNK).min(self.cardinality);
                let mut scratch = vec![0i64; self.params.len()];
                let mut count = 0u64;
                for idx in start..end {
                    if self.is_valid_index_into(idx, &mut scratch) {
                        count += 1;
                    }
                }
                count
            })
            .sum()
    }

    /// Minimum number of independent work items to aim for before handing
    /// the remaining subtrees to the parallel iterator (the first slot's
    /// radix alone is often just 2–4, which would starve a multicore host).
    const MIN_PARALLEL_TASKS: usize = 64;

    /// Count assignments of `slots` (ascending) satisfying the restrictions
    /// in `buckets` (parallel to `slots`; each bucket holds the restriction
    /// indices to check once that slot is assigned), with a pruned DFS.
    /// The leading slots are expanded — with pruning — into concrete prefix
    /// assignments until there are enough surviving prefixes to spread over
    /// all cores; each prefix then runs a sequential pruned DFS.
    fn pruned_count_over(&self, slots: &[usize], buckets: &[Vec<usize>]) -> u64 {
        if slots.is_empty() {
            return 1;
        }
        let init: Vec<i64> = self.params.iter().map(|p| p.values[0]).collect();
        let mut prefixes: Vec<Vec<i64>> = vec![init];
        let mut depth = 0;
        while depth < slots.len() && prefixes.len() < Self::MIN_PARALLEL_TASKS {
            let s = slots[depth];
            let mut next = Vec::with_capacity(prefixes.len() * self.params[s].len());
            for prefix in &prefixes {
                for &v in &self.params[s].values {
                    let mut scratch = prefix.clone();
                    scratch[s] = v;
                    if self.bucket_ok(&buckets[depth], &scratch) {
                        next.push(scratch);
                    }
                }
            }
            prefixes = next;
            depth += 1;
            if prefixes.is_empty() {
                return 0;
            }
        }
        prefixes
            .into_par_iter()
            .map(|mut scratch| self.count_dfs(depth, slots, buckets, &mut scratch))
            .sum()
    }

    #[inline]
    fn bucket_ok(&self, bucket: &[usize], scratch: &[i64]) -> bool {
        bucket
            .iter()
            .all(|&ri| self.engine.programs[ri].eval_bool(scratch))
    }

    fn count_dfs(
        &self,
        depth: usize,
        slots: &[usize],
        buckets: &[Vec<usize>],
        scratch: &mut [i64],
    ) -> u64 {
        if depth == slots.len() {
            return 1;
        }
        let s = slots[depth];
        let mut total = 0;
        for &v in &self.params[s].values {
            scratch[s] = v;
            if self.bucket_ok(&buckets[depth], scratch) {
                total += self.count_dfs(depth + 1, slots, buckets, scratch);
            }
        }
        total
    }

    /// Count configurations satisfying the restriction set, exactly, by
    /// factoring the space into connected components of the
    /// restriction/parameter graph and multiplying the per-component counts.
    /// Each component is counted by a prefix-pruned odometer walk: every
    /// restriction is evaluated as soon as its last slot is assigned, so one
    /// failed check skips every completion of that prefix at once.
    /// Parameters no restriction reads are never enumerated (they contribute
    /// a multiplier), and restriction-free spaces return
    /// [`ConfigSpace::cardinality`] directly. Small groups of restrictions
    /// make this fast even on the 1.2×10⁸-point Dedispersion space.
    pub fn count_valid(&self) -> u64 {
        if self.engine.always_false {
            return 0;
        }
        if self.engine.active.is_empty() {
            return self.cardinality;
        }
        let components = self.constraint_components();
        let mut total: u128 = 1;
        for comp in &components {
            total *= u128::from(self.count_component(comp));
        }
        for (i, p) in self.params.iter().enumerate() {
            if !self.engine.touched[i] {
                total *= p.len() as u128;
            }
        }
        u64::try_from(total).expect("valid count exceeds u64")
    }

    /// Group the active restrictions into connected components over the
    /// parameters they read.
    fn constraint_components(&self) -> Vec<Component> {
        // Union-find over parameter slots.
        let n = self.params.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for &ri in &self.engine.active {
            let slots = &self.engine.slots_of[ri];
            if let Some(&first) = slots.first() {
                for &s in &slots[1..] {
                    let (a, b) = (find(&mut parent, first), find(&mut parent, s));
                    if a != b {
                        parent[a] = b;
                    }
                }
            }
        }
        // Group restrictions by the root of their (connected) parameter set.
        let mut comps: Vec<Component> = Vec::new();
        let mut root_to_comp: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for &ri in &self.engine.active {
            let slots = &self.engine.slots_of[ri];
            let root = find(&mut parent, slots[0]);
            let ci = *root_to_comp.entry(root).or_insert_with(|| {
                comps.push(Component {
                    params: Vec::new(),
                    restrictions: Vec::new(),
                });
                comps.len() - 1
            });
            comps[ci].restrictions.push(ri);
        }
        for p in 0..n {
            let root = find(&mut parent, p);
            if let Some(&ci) = root_to_comp.get(&root) {
                if !comps[ci].params.contains(&p) {
                    comps[ci].params.push(p);
                }
            }
        }
        comps
    }

    /// Count assignments of a component's parameters satisfying its
    /// restrictions, with the pruned DFS (other parameters held at their
    /// first value — they are never read by these restrictions).
    fn count_component(&self, comp: &Component) -> u64 {
        // `comp.restrictions` inherits the engine's most-selective-first
        // order, so the most selective restrictions complete (and prune) at
        // the shallowest depths. Any slot order counts the same assignments.
        let (slots, buckets) = self.engine.counting_order(&comp.restrictions);
        debug_assert_eq!(
            {
                let mut s = slots.clone();
                s.sort_unstable();
                s
            },
            {
                let mut p = comp.params.clone();
                p.sort_unstable();
                p
            },
            "component slots must cover exactly its parameters"
        );
        self.pruned_count_over(&slots, &buckets)
    }

    /// Enumerate the dense indices of all valid configurations, in
    /// ascending order, with a prefix-pruned walk in slot order like the
    /// one [`ConfigSpace::count_valid`] runs per component: once every
    /// restriction has been checked, the whole remaining subtree is
    /// appended as one contiguous index range. Intended for spaces small
    /// enough to exhaust (the paper exhausts Pnpoly, Nbody, GEMM and
    /// Convolution).
    pub fn valid_indices(&self) -> Vec<u64> {
        if self.engine.always_false {
            return Vec::new();
        }
        let Some(last) = self.engine.last_slot else {
            // Restriction-free: every index is valid.
            return (0..self.cardinality).collect();
        };
        // Expand leading slots — with pruning — into (assignment, base
        // index) prefixes until there is enough independent work to spread
        // over all cores. Prefixes are generated in lexicographic position
        // order, so concatenating their outputs preserves ascending order.
        let init: Vec<i64> = self.params.iter().map(|p| p.values[0]).collect();
        let mut prefixes: Vec<(Vec<i64>, u64)> = vec![(init, 0)];
        let mut slot = 0;
        while slot <= last && prefixes.len() < Self::MIN_PARALLEL_TASKS {
            let mut next = Vec::with_capacity(prefixes.len() * self.params[slot].len());
            for (prefix, base) in &prefixes {
                for (pos, &v) in self.params[slot].values.iter().enumerate() {
                    let mut scratch = prefix.clone();
                    scratch[slot] = v;
                    if self.bucket_ok(&self.engine.bucket_of_slot[slot], &scratch) {
                        next.push((scratch, base + pos as u64 * self.strides[slot]));
                    }
                }
            }
            prefixes = next;
            slot += 1;
            if prefixes.is_empty() {
                return Vec::new();
            }
        }
        let mut chunks: Vec<Vec<u64>> = prefixes
            .into_par_iter()
            .map(|(mut scratch, base)| {
                let mut out = Vec::new();
                self.enum_dfs(slot, base, last, &mut scratch, &mut out);
                out
            })
            .collect();
        let total: usize = chunks.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for c in &mut chunks {
            out.append(c);
        }
        out
    }

    fn enum_dfs(
        &self,
        slot: usize,
        base: u64,
        last: usize,
        scratch: &mut [i64],
        out: &mut Vec<u64>,
    ) {
        if slot > last {
            // Every restriction is checked; the remaining slots are free, and
            // their completions form one contiguous index range.
            out.extend(base..base + self.strides[last]);
            return;
        }
        for (pos, &v) in self.params[slot].values.iter().enumerate() {
            scratch[slot] = v;
            let b = base + pos as u64 * self.strides[slot];
            if self.bucket_ok(&self.engine.bucket_of_slot[slot], scratch) {
                self.enum_dfs(slot + 1, b, last, scratch, out);
            }
        }
    }

    /// Radix (value count) of each parameter.
    pub fn radices(&self) -> Vec<usize> {
        self.params.iter().map(Param::len).collect()
    }

    /// Mixed-radix stride of parameter slot `i`.
    #[inline]
    pub fn stride(&self, i: usize) -> u64 {
        self.strides[i]
    }

    /// A copy of this space with the given parameters pinned to fixed values
    /// and all restrictions retained (used for Table VIII's "Reduced" and
    /// "Reduce-Constrained" columns).
    pub fn pinned(&self, pins: &[(&str, i64)]) -> Result<ConfigSpace, SpaceError> {
        let mut b = ConfigSpace::builder();
        for p in &self.params {
            if let Some((_, v)) = pins.iter().find(|(n, _)| *n == p.name) {
                b = b.param(p.pinned(*v));
            } else {
                b = b.param(p.clone());
            }
        }
        for r in &self.restrictions {
            b = b.restrict(&r.source);
        }
        b.build()
    }
}

struct Component {
    params: Vec<usize>,
    restrictions: Vec<usize>,
}

/// Iterator over all configurations of a space in index order.
pub struct ConfigIter<'a> {
    space: &'a ConfigSpace,
    next: u64,
    scratch: Vec<i64>,
}

impl Iterator for ConfigIter<'_> {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.space.cardinality() {
            return None;
        }
        self.space.decode_into(self.next, &mut self.scratch);
        self.next += 1;
        Some(self.scratch.clone())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.space.cardinality() - self.next) as usize;
        (rem, Some(rem))
    }
}

/// Builder for [`ConfigSpace`].
#[derive(Default)]
pub struct ConfigSpaceBuilder {
    params: Vec<Param>,
    restriction_sources: Vec<String>,
}

impl ConfigSpaceBuilder {
    /// Add a parameter.
    pub fn param(mut self, p: Param) -> Self {
        self.params.push(p);
        self
    }

    /// Add a restriction expression (parsed at [`ConfigSpaceBuilder::build`]).
    pub fn restrict(mut self, source: &str) -> Self {
        self.restriction_sources.push(source.to_string());
        self
    }

    /// Finalize the space.
    pub fn build(self) -> Result<ConfigSpace, SpaceError> {
        if self.params.is_empty() {
            return Err(SpaceError::Empty);
        }
        let names: Vec<String> = self.params.iter().map(|p| p.name.clone()).collect();
        for (i, n) in names.iter().enumerate() {
            if names[..i].contains(n) {
                return Err(SpaceError::DuplicateParam(n.clone()));
            }
        }
        let mut restrictions = Vec::with_capacity(self.restriction_sources.len());
        for source in self.restriction_sources {
            let expr = parse(&source).map_err(|error| SpaceError::Parse {
                source: source.clone(),
                error,
            })?;
            let compiled =
                CompiledExpr::compile(&expr, &names).map_err(|error| SpaceError::Compile {
                    source: source.clone(),
                    error,
                })?;
            restrictions.push(Restriction { source, compiled });
        }
        let mut strides = vec![1u64; self.params.len()];
        let mut acc = 1u64;
        for i in (0..self.params.len()).rev() {
            strides[i] = acc;
            acc = acc
                .checked_mul(self.params[i].len() as u64)
                .expect("space cardinality exceeds u64");
        }
        let engine = EnumEngine::build(&self.params, &restrictions);
        let inv_strides: Vec<f64> = strides.iter().map(|&s| 1.0 / s as f64).collect();
        let radices: Vec<u64> = self.params.iter().map(|p| p.len() as u64).collect();
        Ok(ConfigSpace {
            params: self.params,
            names,
            restrictions,
            strides,
            inv_strides,
            radices,
            decode_fast: acc <= (1 << 52),
            cardinality: acc,
            engine,
        })
    }
}

/// Serializable description of a space (restrictions as source strings).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpaceSpec {
    /// Parameter definitions.
    pub params: Vec<Param>,
    /// Restriction expression strings.
    pub restrictions: Vec<String>,
}

impl From<&ConfigSpace> for SpaceSpec {
    fn from(s: &ConfigSpace) -> Self {
        SpaceSpec {
            params: s.params.to_vec(),
            restrictions: s.restrictions.iter().map(|r| r.source.clone()).collect(),
        }
    }
}

impl TryFrom<SpaceSpec> for ConfigSpace {
    type Error = SpaceError;

    fn try_from(spec: SpaceSpec) -> Result<Self, Self::Error> {
        let mut b = ConfigSpace::builder();
        for p in spec.params {
            b = b.param(p);
        }
        for r in &spec.restrictions {
            b = b.restrict(r);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_space() -> ConfigSpace {
        ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 4]))
            .param(Param::new("b", vec![1, 2]))
            .param(Param::new("c", vec![0, 1]))
            .restrict("a * b <= 4")
            .build()
            .unwrap()
    }

    #[test]
    fn cardinality_is_product() {
        assert_eq!(small_space().cardinality(), 12);
    }

    #[test]
    fn index_bijection_round_trips() {
        let s = small_space();
        for idx in 0..s.cardinality() {
            let cfg = s.config_at(idx);
            assert_eq!(s.index_of(&cfg), Some(idx));
        }
    }

    #[test]
    fn index_of_rejects_non_candidate_values() {
        let s = small_space();
        assert_eq!(s.index_of(&[3, 1, 0]), None);
    }

    #[test]
    fn validity_matches_expression() {
        let s = small_space();
        assert!(s.is_valid(&[2, 2, 0])); // 4 <= 4
        assert!(!s.is_valid(&[4, 2, 1])); // 8 > 4
    }

    #[test]
    fn count_valid_brute_and_factored_agree() {
        let s = small_space();
        // valid (a,b): (1,1),(1,2),(2,1),(2,2),(4,1) = 5; times c (2) = 10
        assert_eq!(s.count_valid(), 10);
        assert_eq!(s.count_valid_brute(), 10);
    }

    #[test]
    fn factored_counting_handles_disjoint_groups() {
        let s = ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 3]))
            .param(Param::new("b", vec![1, 2, 3]))
            .param(Param::new("c", vec![1, 2, 3]))
            .param(Param::new("d", vec![1, 2, 3]))
            .restrict("a >= b")
            .restrict("c != 2")
            .build()
            .unwrap();
        // (a>=b): 6 of 9; (c!=2): 2 of 3; d free: 3 -> 6*2*3 = 36
        assert_eq!(s.count_valid(), 36);
        assert_eq!(s.count_valid_brute(), 36);
    }

    #[test]
    fn valid_indices_are_sorted_and_valid() {
        let s = small_space();
        let v = s.valid_indices();
        assert_eq!(v.len(), 10);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert!(v.iter().all(|&i| s.is_valid_index(i)));
    }

    #[test]
    fn selectivity_orders_active_most_selective_first() {
        // "b == 0" passes 1/3 of assignments; "a <= 3" passes 3/4. The
        // engine must schedule the rarer restriction first even though it
        // was declared second.
        let s = ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 3, 4]))
            .param(Param::new("b", vec![0, 1, 2]))
            .restrict("a <= 3")
            .restrict("b == 0")
            .build()
            .unwrap();
        assert_eq!(s.engine.active, vec![1, 0]);
    }

    #[test]
    fn reordered_validity_matches_declaration_order() {
        // The selectivity reordering must be invisible: for every index,
        // `is_valid` equals evaluating all restrictions in declaration
        // order (an `all()` conjunction is order-neutral).
        let s = ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 3, 4]))
            .param(Param::new("b", vec![0, 1, 2]))
            .param(Param::new("c", vec![1, 2]))
            .restrict("a + b <= 4")
            .restrict("c == 1")
            .restrict("a * c != 4")
            .build()
            .unwrap();
        let mut scratch = vec![0i64; 3];
        for idx in 0..s.cardinality() {
            s.decode_into(idx, &mut scratch);
            let declared =
                (0..s.restrictions.len()).all(|ri| s.engine.programs[ri].eval_bool(&scratch));
            assert_eq!(s.is_valid(&scratch), declared, "index {idx}");
        }
    }

    #[test]
    fn validity_split_partitions_by_interpreter_class() {
        // Divisibility via `%` is pure integer work; true division
        // promotes. The engine must put each in the right chain, and the
        // split evaluation must equal the declaration-order conjunction on
        // every configuration.
        let s = ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 3, 4, 6, 8]))
            .param(Param::new("b", vec![1, 2, 3, 4]))
            .restrict("a % b == 0")
            .restrict("a / b <= 3")
            .restrict("a + b <= 10")
            .build()
            .unwrap();
        assert!(s.engine.valid_pure.is_some(), "modulo/sum chain exists");
        assert!(s.engine.valid_guarded.is_some(), "division chain exists");
        assert!(s.engine.valid_pure.as_ref().unwrap().is_pure_int());
        assert!(!s.engine.valid_guarded.as_ref().unwrap().is_pure_int());
        let mut scratch = vec![0i64; 2];
        for idx in 0..s.cardinality() {
            s.decode_into(idx, &mut scratch);
            let declared =
                (0..s.restrictions.len()).all(|ri| s.engine.programs[ri].eval_bool(&scratch));
            assert_eq!(s.is_valid(&scratch), declared, "index {idx}");
        }
    }

    #[test]
    fn all_pure_restrictions_leave_no_guarded_chain() {
        let s = ConfigSpace::builder()
            .param(Param::new("a", vec![16, 32, 64]))
            .param(Param::new("b", vec![1, 2, 4]))
            .restrict("a % b == 0")
            .restrict("a * b <= 128")
            .build()
            .unwrap();
        assert!(s.engine.valid_pure.is_some());
        assert!(s.engine.valid_guarded.is_none());
    }

    #[test]
    fn valid_indices_match_brute_force_on_mixed_buckets() {
        // Restrictions attach to different highest slots, including one on
        // the first slot and one spanning first and last.
        let s = ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 3, 4]))
            .param(Param::new("b", vec![0, 1, 2]))
            .param(Param::new("c", vec![1, 2]))
            .param(Param::new("d", vec![0, 1, 2]))
            .restrict("a != 3")
            .restrict("a + b <= 4")
            .restrict("a * d != 4")
            .build()
            .unwrap();
        let brute: Vec<u64> = (0..s.cardinality())
            .filter(|&i| s.is_valid_index(i))
            .collect();
        assert_eq!(s.valid_indices(), brute);
        assert_eq!(s.count_valid(), brute.len() as u64);
        assert_eq!(s.count_valid_brute(), brute.len() as u64);
    }

    #[test]
    fn trivial_restrictions_are_folded_out() {
        let s = ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 3]))
            .param(Param::new("b", vec![1, 2]))
            .restrict("1 + 1 == 2") // always true: dropped from the hot path
            .restrict("a >= 1 or b >= 100") // also always true, but not constant
            .build()
            .unwrap();
        assert_eq!(s.engine().active.len(), 1);
        assert_eq!(s.restrictions().len(), 2, "sources are preserved");
        assert_eq!(s.count_valid(), 6);
        assert_eq!(s.count_valid_brute(), 6);
    }

    #[test]
    fn always_false_restriction_empties_the_space() {
        let s = ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 3]))
            .restrict("1 == 2")
            .build()
            .unwrap();
        assert_eq!(s.count_valid(), 0);
        assert_eq!(s.count_valid_brute(), 0);
        assert!(s.valid_indices().is_empty());
        assert!(!s.is_valid(&[1]));
    }

    #[test]
    fn scratch_validity_variant_agrees() {
        let s = small_space();
        let mut scratch = vec![0i64; s.num_params()];
        for idx in 0..s.cardinality() {
            assert_eq!(
                s.is_valid_index(idx),
                s.is_valid_index_into(idx, &mut scratch)
            );
        }
    }

    #[test]
    fn builder_rejects_duplicates_and_unknowns() {
        let err = ConfigSpace::builder()
            .param(Param::boolean("x"))
            .param(Param::boolean("x"))
            .build()
            .unwrap_err();
        assert!(matches!(err, SpaceError::DuplicateParam(_)));

        let err = ConfigSpace::builder()
            .param(Param::boolean("x"))
            .restrict("y == 1")
            .build()
            .unwrap_err();
        assert!(matches!(err, SpaceError::Compile { .. }));
    }

    #[test]
    fn pinning_preserves_restrictions() {
        let s = small_space();
        let pinned = s.pinned(&[("b", 2)]).unwrap();
        assert_eq!(pinned.cardinality(), 6);
        // a*b<=4 with b=2 -> a in {1,2}: 2 of 3, times c: 4
        assert_eq!(pinned.count_valid(), 4);
    }

    #[test]
    fn spec_round_trip() {
        let s = small_space();
        let spec = SpaceSpec::from(&s);
        let back = ConfigSpace::try_from(spec).unwrap();
        assert_eq!(back.cardinality(), s.cardinality());
        assert_eq!(back.count_valid(), s.count_valid());
    }

    #[test]
    fn iter_visits_every_config_once() {
        let s = small_space();
        let all: Vec<_> = s.iter().collect();
        assert_eq!(all.len(), 12);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 12);
    }
}
