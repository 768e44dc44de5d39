//! Table VIII: search-space reduction from feature importance.
//!
//! Parameters whose permutation importance reaches 0.05 on *any*
//! architecture are kept; the rest are pinned to the values of the best
//! known configuration. The paper reports the resulting "Reduced" and
//! "Reduce-Constrained" cardinalities as a guide to where the interesting
//! part of each space lives.

use bat_space::{ConfigSpace, SpaceError};

/// Result of reducing one benchmark's space.
#[derive(Debug, Clone)]
pub struct ReducedSpace {
    /// Names of the parameters kept free.
    pub kept: Vec<String>,
    /// Cardinality of the reduced space (free params only, no
    /// restrictions) — Table VIII "Reduced".
    pub reduced_cardinality: u64,
    /// Valid configurations of the reduced space under the original
    /// restriction set — Table VIII "Reduce-Constrained".
    pub reduced_constrained: u64,
}

/// Reduce `space` to the parameters named in `important` (importance ≥
/// threshold on any architecture), pinning the others to `pin_config`
/// (the best known configuration, aligned with the space's slots).
pub fn reduce_space(
    space: &ConfigSpace,
    important: &[String],
    pin_config: &[i64],
) -> Result<ReducedSpace, SpaceError> {
    assert_eq!(pin_config.len(), space.num_params());
    let mut pins: Vec<(&str, i64)> = Vec::new();
    let mut kept = Vec::new();
    for (i, p) in space.params().iter().enumerate() {
        if important.iter().any(|n| n == &p.name) {
            kept.push(p.name.clone());
        } else {
            pins.push((p.name.as_str(), pin_config[i]));
        }
    }
    let pinned = space.pinned(&pins)?;
    Ok(ReducedSpace {
        kept,
        reduced_cardinality: pinned.cardinality(),
        reduced_constrained: pinned.count_valid(),
    })
}

/// Merge per-architecture importance scores: a parameter is important when
/// it reaches `threshold` on any architecture (the paper's rule).
pub fn important_on_any(per_arch: &[(Vec<String>, Vec<f64>)], threshold: f64) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for (names, scores) in per_arch {
        for (n, &s) in names.iter().zip(scores) {
            if s >= threshold && !out.contains(n) {
                out.push(n.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_space::{ConfigSpace, Param};

    fn space() -> ConfigSpace {
        ConfigSpace::builder()
            .param(Param::new("a", vec![1, 2, 4, 8]))
            .param(Param::new("b", vec![1, 2, 3]))
            .param(Param::boolean("c"))
            .restrict("a * b <= 8")
            .build()
            .unwrap()
    }

    #[test]
    fn reduction_pins_unimportant_params() {
        let s = space();
        let r = reduce_space(&s, &["a".to_string()], &[4, 2, 1]).unwrap();
        assert_eq!(r.kept, vec!["a".to_string()]);
        // b pinned to 2, c pinned to 1: a free (4 values).
        assert_eq!(r.reduced_cardinality, 4);
        // restriction a*2 <= 8 -> a in {1,2,4}: 3 valid.
        assert_eq!(r.reduced_constrained, 3);
    }

    #[test]
    fn keeping_everything_changes_nothing() {
        let s = space();
        let all: Vec<String> = s.names().to_vec();
        let r = reduce_space(&s, &all, &[1, 1, 0]).unwrap();
        assert_eq!(r.reduced_cardinality, s.cardinality());
        assert_eq!(r.reduced_constrained, s.count_valid());
    }

    #[test]
    fn any_architecture_rule() {
        let per_arch = vec![
            (vec!["a".to_string(), "b".to_string()], vec![0.8, 0.01]),
            (vec!["a".to_string(), "b".to_string()], vec![0.7, 0.06]),
        ];
        let names = important_on_any(&per_arch, 0.05);
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
        let strict = important_on_any(&per_arch, 0.5);
        assert_eq!(strict, vec!["a".to_string()]);
    }
}
