//! Neighbourhood structures over configuration spaces.
//!
//! The fitness flow graph of Schoonhoven et al. (used by the paper's
//! proportion-of-centrality metric, Fig. 3) and the local-search tuners both
//! need a notion of "neighbouring configuration". Two variants are provided:
//!
//! * [`Neighborhood::HammingAny`] — configurations differing in exactly one
//!   parameter, to *any* other candidate value;
//! * [`Neighborhood::Adjacent`] — configurations differing in exactly one
//!   parameter, to an *adjacent* candidate value in the parameter's ordered
//!   value list (a "strictly-adjacent" neighbourhood).

use crate::space::ConfigSpace;

/// Neighbourhood kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Neighborhood {
    /// Change one parameter to any other value.
    HammingAny,
    /// Change one parameter one step up or down its ordered value list.
    Adjacent,
}

impl Neighborhood {
    /// Dense indices of all neighbours of `index` (unrestricted space).
    ///
    /// Neighbour indices are produced by stride arithmetic; no configs are
    /// decoded. The output order is deterministic: parameters in slot order,
    /// values in list order.
    pub fn neighbor_indices(self, space: &ConfigSpace, index: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.for_each_neighbor(space, index, |n| out.push(n));
        out
    }

    /// Visit each neighbour index of `index` without allocating.
    #[inline]
    pub fn for_each_neighbor<F: FnMut(u64)>(self, space: &ConfigSpace, index: u64, mut f: F) {
        debug_assert!(index < space.cardinality());
        let mut rem = index;
        for (i, p) in space.params().iter().enumerate() {
            let stride = space.stride(i);
            let pos = (rem / stride) as usize;
            rem %= stride;
            let base = index - (pos as u64) * stride;
            match self {
                Neighborhood::HammingAny => {
                    for alt in 0..p.len() {
                        if alt != pos {
                            f(base + (alt as u64) * stride);
                        }
                    }
                }
                Neighborhood::Adjacent => {
                    if pos > 0 {
                        f(base + (pos as u64 - 1) * stride);
                    }
                    if pos + 1 < p.len() {
                        f(base + (pos as u64 + 1) * stride);
                    }
                }
            }
        }
    }

    /// Neighbours of `index` that satisfy the restriction set.
    ///
    /// A neighbour differs from `index` in exactly one slot, so only the
    /// restrictions *touching* that slot can change verdict: the base
    /// configuration is decoded and evaluated once, and each candidate then
    /// patches a single value and re-checks just the touching restrictions
    /// — instead of fully decoding and re-validating every neighbour.
    pub fn valid_neighbor_indices(self, space: &ConfigSpace, index: u64) -> Vec<u64> {
        debug_assert!(index < space.cardinality());
        let engine = space.engine();
        if engine.always_false {
            return Vec::new();
        }
        let mut scratch = vec![0i64; space.num_params()];
        space.decode_into(index, &mut scratch);
        // Verdict of every active restriction on the base configuration.
        let mut base_ok = vec![true; engine.programs.len()];
        let mut total_false = 0usize;
        for &ri in &engine.active {
            if !engine.programs[ri].eval_bool(&scratch) {
                base_ok[ri] = false;
                total_false += 1;
            }
        }
        let mut out = Vec::new();
        let mut rem = index;
        for (i, p) in space.params().iter().enumerate() {
            let stride = space.stride(i);
            let pos = (rem / stride) as usize;
            rem %= stride;
            let touching = &engine.touching[i];
            // Restrictions not touching slot i keep their base verdict, so
            // every failing one must touch slot i or no neighbour along this
            // slot can be valid.
            let false_touching = touching.iter().filter(|&&ri| !base_ok[ri]).count();
            if false_touching != total_false {
                continue;
            }
            let base = index - (pos as u64) * stride;
            let old = scratch[i];
            let try_alt = |alt: usize, scratch: &mut [i64], out: &mut Vec<u64>| {
                scratch[i] = p.values[alt];
                if touching
                    .iter()
                    .all(|&ri| engine.programs[ri].eval_bool(scratch))
                {
                    out.push(base + (alt as u64) * stride);
                }
            };
            match self {
                Neighborhood::HammingAny => {
                    for alt in 0..p.len() {
                        if alt != pos {
                            try_alt(alt, &mut scratch, &mut out);
                        }
                    }
                }
                Neighborhood::Adjacent => {
                    if pos > 0 {
                        try_alt(pos - 1, &mut scratch, &mut out);
                    }
                    if pos + 1 < p.len() {
                        try_alt(pos + 1, &mut scratch, &mut out);
                    }
                }
            }
            scratch[i] = old;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    fn space() -> ConfigSpace {
        ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 4, 8]))
            .param(Param::new("b", vec![0, 1]))
            .build()
            .unwrap()
    }

    #[test]
    fn hamming_degree() {
        let s = space();
        let n = Neighborhood::HammingAny.neighbor_indices(&s, 0);
        assert_eq!(n.len(), 4); // 3 alternatives for a + 1 for b
    }

    #[test]
    fn adjacent_degree_depends_on_position() {
        let s = space();
        // index 0 => a at first position, b at first position: 1 + 1 neighbours
        assert_eq!(Neighborhood::Adjacent.neighbor_indices(&s, 0).len(), 2);
        // a in the middle (pos 1), b at 0: 2 + 1 neighbours
        let idx = s.index_of(&[2, 0]).unwrap();
        assert_eq!(Neighborhood::Adjacent.neighbor_indices(&s, idx).len(), 3);
    }

    #[test]
    fn neighbors_differ_in_exactly_one_param() {
        let s = space();
        let idx = s.index_of(&[4, 1]).unwrap();
        for n in Neighborhood::HammingAny.neighbor_indices(&s, idx) {
            let a = s.config_at(idx);
            let b = s.config_at(n);
            let diff = a.iter().zip(&b).filter(|(x, y)| x != y).count();
            assert_eq!(diff, 1, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let s = space();
        for idx in 0..s.cardinality() {
            for n in Neighborhood::HammingAny.neighbor_indices(&s, idx) {
                let back = Neighborhood::HammingAny.neighbor_indices(&s, n);
                assert!(back.contains(&idx));
            }
        }
    }

    #[test]
    fn valid_neighbors_respect_restrictions() {
        let s = ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 4, 8]))
            .param(Param::new("b", vec![1, 2]))
            .restrict("a * b <= 8")
            .build()
            .unwrap();
        let idx = s.index_of(&[4, 1]).unwrap();
        let valid = Neighborhood::HammingAny.valid_neighbor_indices(&s, idx);
        // (8,1) ok, (1,1),(2,1) ok, (4,2) ok => 4 valid neighbours
        assert_eq!(valid.len(), 4);
        let all = Neighborhood::HammingAny.neighbor_indices(&s, idx);
        assert_eq!(all.len(), 4); // (8,2) would be from (8,1)? no: from (4,1) only one b-neighbor
    }

    /// The single-slot patching fast path must agree with the naive
    /// decode-and-revalidate baseline from every starting index — valid or
    /// not — including restrictions spanning several parameters.
    #[test]
    fn valid_neighbors_match_naive_baseline_everywhere() {
        let s = ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 4, 8]))
            .param(Param::new("b", vec![1, 2, 3]))
            .param(Param::new("c", vec![0, 1]))
            .restrict("a * b <= 12")
            .restrict("b != 2 or c == 1")
            .build()
            .unwrap();
        let mut scratch = vec![0i64; s.num_params()];
        for nb in [Neighborhood::HammingAny, Neighborhood::Adjacent] {
            for idx in 0..s.cardinality() {
                let naive: Vec<u64> = nb
                    .neighbor_indices(&s, idx)
                    .into_iter()
                    .filter(|&n| s.is_valid_index_into(n, &mut scratch))
                    .collect();
                assert_eq!(
                    nb.valid_neighbor_indices(&s, idx),
                    naive,
                    "index {idx} ({nb:?})"
                );
            }
        }
    }
}
