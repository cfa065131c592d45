//! Deterministic k-way merge of per-shard ranked lists.
//!
//! The merged order must be a pure function of the items and the
//! comparator — never of the shard count or the thread interleaving that
//! produced the lists — otherwise the same corpus queried with `shards =
//! 1` and `shards = 8` would return different rankings. Callers therefore
//! provide a *total* order (for XSACT: score descending, then document id,
//! then node id); when the comparator still reports two heads equal, the
//! lower list index wins, so even a sloppy comparator cannot introduce
//! nondeterminism.

use std::cmp::Ordering;

/// Merges pre-sorted `lists` into one list ordered by `cmp`
/// (`Ordering::Less` means "ranks earlier").
///
/// With `k` lists this scans the `k` current heads per emitted item —
/// `O(n·k)` overall. Shard counts are bounded by the machine's cores (a
/// dozen, not thousands), where the head scan beats a binary heap's
/// allocation and bookkeeping; if shard counts ever grow past that, swap
/// the scan for a heap without changing the contract.
///
/// Each input list must already be sorted by `cmp` (debug-asserted); the
/// per-shard search produces exactly that. One list is already merged and
/// comes back as it is — a one-document query's case.
pub(crate) fn k_way_merge<T>(mut lists: Vec<Vec<T>>, cmp: impl Fn(&T, &T) -> Ordering) -> Vec<T> {
    debug_assert!(lists
        .iter()
        .all(|l| l.windows(2).all(|w| cmp(&w[0], &w[1]) != Ordering::Greater)));
    if lists.len() == 1 {
        return lists.pop().expect("len checked");
    }
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut iters: Vec<std::vec::IntoIter<T>> = lists.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<T>> = iters.iter_mut().map(Iterator::next).collect();
    let mut merged = Vec::with_capacity(total);
    loop {
        let mut best: Option<usize> = None;
        for (i, head) in heads.iter().enumerate() {
            let Some(item) = head else { continue };
            // Strictly-less to advance: on ties the earlier list keeps the
            // slot, making the merge stable across comparator ties.
            best = match best {
                Some(b)
                    if cmp(item, heads[b].as_ref().expect("best is live")) != Ordering::Less =>
                {
                    Some(b)
                }
                _ => Some(i),
            };
        }
        let Some(b) = best else { break };
        let item = heads[b].take().expect("best is live");
        heads[b] = iters[b].next();
        merged.push(item);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_sorted_lists() {
        let merged = k_way_merge(vec![vec![1, 4, 7], vec![2, 5], vec![3, 6, 8]], i32::cmp);
        assert_eq!(merged, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn empty_inputs() {
        assert!(k_way_merge(Vec::<Vec<i32>>::new(), i32::cmp).is_empty());
        let merged = k_way_merge(vec![vec![], vec![9], vec![]], i32::cmp);
        assert_eq!(merged, vec![9]);
    }

    #[test]
    fn ties_resolve_to_the_earlier_list() {
        // Items carry their origin; comparator only sees the key.
        let merged = k_way_merge(
            vec![vec![(1, "a"), (2, "a")], vec![(1, "b")], vec![(1, "c"), (3, "c")]],
            |x, y| x.0.cmp(&y.0),
        );
        assert_eq!(merged, vec![(1, "a"), (1, "b"), (1, "c"), (2, "a"), (3, "c")]);
    }

    #[test]
    fn merge_is_shard_count_independent() {
        // The same 12 items split into 1, 2, 3 and 4 round-robin lists
        // merge to the same output.
        let items: Vec<i32> = vec![5, 3, 9, 1, 12, 7, 2, 8, 11, 4, 10, 6];
        let mut expected = items.clone();
        expected.sort();
        for shards in 1..=4 {
            let mut lists = vec![Vec::new(); shards];
            for (i, &x) in items.iter().enumerate() {
                lists[i % shards].push(x);
            }
            for list in &mut lists {
                list.sort();
            }
            assert_eq!(k_way_merge(lists, i32::cmp), expected, "{shards} shards");
        }
    }

    #[test]
    fn descending_comparators_work() {
        let merged = k_way_merge(vec![vec![9, 4, 1], vec![8, 5]], |a, b| b.cmp(a));
        assert_eq!(merged, vec![9, 8, 5, 4, 1]);
    }
}
