//! The cell index: a store's cells kept sorted by their (benchmark,
//! architecture, scenario) key and found by binary search. Every lookup
//! and insertion of a [`CacheStore`](crate::CacheStore) cell goes through
//! these two functions, so the sorted invariant the byte-stable JSON form
//! relies on has one owner. Keys compare field by field, so ("ab", "c")
//! and ("a", "bc") never meet.

use crate::store::CacheCell;

/// Where the cell with this key sits: `Ok(i)` when present, `Err(i)` where
/// it would be inserted to keep `cells` sorted.
pub(crate) fn position(cells: &[CacheCell], key: (&str, &str, &str)) -> Result<usize, usize> {
    cells.binary_search_by(|c| c.key().cmp(&key))
}

/// The cell with this key, inserted empty at its sorted position on first
/// use.
pub(crate) fn entry<'a>(
    cells: &'a mut Vec<CacheCell>,
    key: (&str, &str, &str),
) -> &'a mut CacheCell {
    let i = match position(cells, key) {
        Ok(i) => i,
        Err(i) => {
            let (benchmark, architecture, scenario) = key;
            cells.insert(i, CacheCell::new(benchmark, architecture, scenario));
            i
        }
    };
    &mut cells[i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheStore;
    use std::collections::BTreeMap;

    fn store_with(n: i64) -> CacheStore {
        let mut s = CacheStore::new();
        for i in 0..n {
            let mut config = BTreeMap::new();
            config.insert("block_size_x".to_string(), i);
            s.observe(
                &format!("bench-{}", i % 7),
                &format!("arch-{}", i % 3),
                &format!("scenario-{i}"),
                &config,
                1.0 + i as f64,
                None,
            );
        }
        s
    }

    #[test]
    fn index_finds_every_cell_and_misses_cleanly() {
        let store = store_with(200);
        assert_eq!(store.cells.len(), 200);
        assert!(store.cells.windows(2).all(|w| w[0].key() < w[1].key()));
        for (i, cell) in store.cells.iter().enumerate() {
            assert_eq!(position(&store.cells, cell.key()), Ok(i));
            let found = store
                .cell(&cell.benchmark, &cell.architecture, &cell.scenario)
                .expect("stored cell found");
            assert_eq!(found, cell);
        }
        assert!(store.cell("bench-0", "arch-0", "scenario-9999").is_none());
        assert!(store.cell("", "", "").is_none());
        assert_eq!(position(&store.cells, ("", "", "")), Err(0));
    }

    #[test]
    fn separator_prevents_key_splicing() {
        let mut s = CacheStore::new();
        let config = BTreeMap::new();
        s.observe("ab", "c", "x", &config, 1.0, None);
        assert!(s.cell("a", "bc", "x").is_none());
        assert!(s.cell("ab", "c", "x").is_some());
        entry(&mut s.cells, ("a", "bc", "x"));
        assert_eq!(s.cells.len(), 2);
        assert_eq!(s.cell("ab", "c", "x").unwrap().top.len(), 1);
        assert!(s.cell("a", "bc", "x").unwrap().top.is_empty());
    }
}
